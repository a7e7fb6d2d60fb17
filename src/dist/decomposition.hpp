// Geometry of the block decomposition, shared so that every consumer of
// the per-rank epoch schedule prices the *same* schedule:
//
//  * the executing solver (distributed.hpp) cuts each rank's window
//    (the core::GridWindow its StencilSolver runs on: origin and level
//    clips) and its exchange slabs from it,
//  * the rank-program builder (rank_program.hpp) derives the modeled
//    compute/send/recv sequence the discrete-event engine replays from
//    the identical boxes — which is what makes the event engine's epoch
//    times agree with the executing thread-backed World to within
//    floating-point noise instead of "roughly".
//
// One Decomposition describes the whole world (global grid, process grid,
// halo depth); RankGeometry is the per-rank slice.  All index conventions
// are exactly those of DistributedStencil: a rank owns `own` interior
// cells starting at global index `own_lo`, surrounded by `halo` ghost
// layers, local extents own + 2*halo.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"  // core::LevelClip
#include "simnet/comm.hpp"    // simnet::CartTopology

namespace tb::dist {

/// Per-rank slice of a Decomposition.
struct RankGeometry {
  std::array<int, 3> coords{};       ///< Cartesian process coordinates
  std::array<int, 3> own_lo{};       ///< global index of first owned cell
  std::array<int, 3> own{};          ///< owned cells per dimension
  std::array<int, 3> local_n{};      ///< local extents (own + 2*halo)
  std::array<int, 3> neighbor_lo{-1, -1, -1};  ///< rank below, -1 if none
  std::array<int, 3> neighbor_hi{-1, -1, -1};  ///< rank above, -1 if none

  [[nodiscard]] bool has_neighbor(int d, int side) const {
    return (side == 0 ? neighbor_lo[static_cast<std::size_t>(d)]
                      : neighbor_hi[static_cast<std::size_t>(d)]) >= 0;
  }
  [[nodiscard]] int neighbor(int d, int side) const {
    return side == 0 ? neighbor_lo[static_cast<std::size_t>(d)]
                     : neighbor_hi[static_cast<std::size_t>(d)];
  }
};

/// Axis-aligned local-index box [lo, hi).
struct Box3 {
  std::array<int, 3> lo{};
  std::array<int, 3> hi{};

  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(hi[0] - lo[0]) *
           static_cast<std::size_t>(hi[1] - lo[1]) *
           static_cast<std::size_t>(hi[2] - lo[2]);
  }
};

class Decomposition {
 public:
  /// Throws the same admissibility errors as DistributedStencil — they
  /// depend only on global inputs, so every rank agrees.
  Decomposition(const std::array<int, 3>& global_n,
                const std::array<int, 3>& proc_dims, int halo)
      : global_n_(global_n),
        proc_dims_(proc_dims),
        halo_(halo),
        topo_(proc_dims[0] * proc_dims[1] * proc_dims[2], proc_dims) {
    if (halo < 1)
      throw std::invalid_argument("Decomposition: halo must be >= 1");
    for (int d = 0; d < 3; ++d) {
      const int interior = global_n_[static_cast<std::size_t>(d)] - 2;
      const int parts = proc_dims_[static_cast<std::size_t>(d)];
      if (parts < 1)
        throw std::invalid_argument("Decomposition: bad process grid");
      if (interior < parts)
        throw std::invalid_argument(
            "DistributedStencil: more ranks than interior cells");
      // Minimum share of the balanced partition; must depend only on the
      // global geometry so no rank of an uneven partition disagrees.
      if (parts > 1 && interior / parts < halo_)
        throw std::invalid_argument(
            "DistributedStencil: subdomain thinner than the halo width");
    }
  }

  [[nodiscard]] int ranks() const {
    return proc_dims_[0] * proc_dims_[1] * proc_dims_[2];
  }
  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] const std::array<int, 3>& global_n() const {
    return global_n_;
  }
  [[nodiscard]] const std::array<int, 3>& proc_dims() const {
    return proc_dims_;
  }
  [[nodiscard]] const simnet::CartTopology& topology() const { return topo_; }

  /// Balanced partition along dimension d: {first owned global index,
  /// owned cell count} of process coordinate c.
  [[nodiscard]] std::pair<int, int> owned_range(int d, int c) const {
    const int interior = global_n_[static_cast<std::size_t>(d)] - 2;
    const int parts = proc_dims_[static_cast<std::size_t>(d)];
    const int lo = 1 + static_cast<int>(1LL * c * interior / parts);
    const int next = 1 + static_cast<int>(1LL * (c + 1) * interior / parts);
    return {lo, next - lo};
  }

  [[nodiscard]] RankGeometry geometry(int rank) const {
    RankGeometry g;
    g.coords = topo_.coords_of(rank);
    for (int d = 0; d < 3; ++d) {
      const auto [lo, cnt] = owned_range(d, g.coords[static_cast<std::size_t>(d)]);
      g.own_lo[static_cast<std::size_t>(d)] = lo;
      g.own[static_cast<std::size_t>(d)] = cnt;
      g.local_n[static_cast<std::size_t>(d)] = cnt + 2 * halo_;
      g.neighbor_lo[static_cast<std::size_t>(d)] = topo_.neighbor(rank, d, -1);
      g.neighbor_hi[static_cast<std::size_t>(d)] = topo_.neighbor(rank, d, +1);
    }
    return g;
  }

  /// Per-level update regions in local coordinates: level s may update
  /// cells at ghost depth <= h - s on sides with a neighbour, and only
  /// the global interior on physical-boundary sides.
  [[nodiscard]] std::vector<core::LevelClip> level_clips(
      const RankGeometry& g) const {
    std::vector<core::LevelClip> clips(static_cast<std::size_t>(halo_));
    for (int s = 1; s <= halo_; ++s) {
      core::LevelClip& c = clips[static_cast<std::size_t>(s - 1)];
      for (int d = 0; d < 3; ++d) {
        const std::size_t du = static_cast<std::size_t>(d);
        c.lo[du] = g.neighbor_lo[du] >= 0 ? s : halo_;
        c.hi[du] = g.neighbor_hi[du] >= 0 ? g.local_n[du] - s
                                          : halo_ + g.own[du];
      }
    }
    return clips;
  }

  /// Cell updates of one epoch.  With `inner_only`, only cells whose
  /// whole dependency cone stays inside owned data are counted: a
  /// level-s update transitively reads base-level values within distance
  /// s, so on a neighbour-facing side it must keep a distance of s from
  /// the owned-region boundary to be computable before the ghost layers
  /// arrive.
  [[nodiscard]] long long compute_cells(const RankGeometry& g,
                                        bool inner_only) const {
    long long cells = 0;
    const std::vector<core::LevelClip> clips = level_clips(g);
    for (int s = 1; s <= halo_; ++s) {
      const core::LevelClip& c = clips[static_cast<std::size_t>(s - 1)];
      long long full = 1, inner = 1;
      for (int d = 0; d < 3; ++d) {
        const std::size_t du = static_cast<std::size_t>(d);
        const int lo = g.neighbor_lo[du] >= 0 ? halo_ + s : c.lo[du];
        const int hi = g.neighbor_hi[du] >= 0 ? halo_ + g.own[du] - s
                                              : c.hi[du];
        full *= std::max(0, c.hi[du] - c.lo[du]);
        inner *= std::max(0, hi - lo);
      }
      cells += inner_only ? inner : full;
    }
    return cells;
  }

  /// Transverse extents of the slab exchanged along dimension d in the
  /// sequential x -> y -> z scheme: dimensions already exchanged (e < d)
  /// span the refreshed full ghost extent where a neighbour exists, the
  /// rest span the owned cells plus the physical boundary layer.  The
  /// d-extent of the returned box is unset; send_box/recv_box fill it.
  [[nodiscard]] Box3 exchange_base_box(const RankGeometry& g, int d) const {
    Box3 b;
    for (int e = 0; e < 3; ++e) {
      const std::size_t eu = static_cast<std::size_t>(e);
      if (e < d) {  // refreshed: full ghost where a neighbour exists
        b.lo[eu] = g.neighbor_lo[eu] >= 0 ? 0 : halo_ - 1;
        b.hi[eu] = g.neighbor_hi[eu] >= 0 ? g.local_n[eu]
                                          : halo_ + g.own[eu] + 1;
      } else {  // not yet: owned cells plus the physical boundary layer
        b.lo[eu] = g.neighbor_lo[eu] >= 0 ? halo_ : halo_ - 1;
        b.hi[eu] = g.neighbor_hi[eu] >= 0 ? halo_ + g.own[eu]
                                          : halo_ + g.own[eu] + 1;
      }
    }
    return b;
  }

  /// Slab this rank sends to its side-`side` (0 = lo, 1 = hi) neighbour
  /// along dimension d: the outermost `halo` owned layers.
  [[nodiscard]] Box3 send_box(const RankGeometry& g, int d, int side) const {
    Box3 b = exchange_base_box(g, d);
    const std::size_t du = static_cast<std::size_t>(d);
    b.lo[du] = side == 0 ? halo_ : g.own[du];
    b.hi[du] = b.lo[du] + halo_;
    return b;
  }

  /// Ghost slab this rank receives from its side-`side` neighbour along
  /// dimension d.
  [[nodiscard]] Box3 recv_box(const RankGeometry& g, int d, int side) const {
    Box3 b = exchange_base_box(g, d);
    const std::size_t du = static_cast<std::size_t>(d);
    b.lo[du] = side == 0 ? 0 : halo_ + g.own[du];
    b.hi[du] = b.lo[du] + halo_;
    return b;
  }

 private:
  std::array<int, 3> global_n_;
  std::array<int, 3> proc_dims_;
  int halo_;
  simnet::CartTopology topo_;
};

}  // namespace tb::dist
