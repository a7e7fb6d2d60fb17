// Unified query API over the analytic performance models — the single
// entry point the model-guided tuner (src/tune/) ranks candidate
// schedules with.
//
// The underlying physics is the paper's Sec. 1.4 bandwidth model
// (single_cache_model.hpp) plus the wavefront capacity model
// (wavefront_model.hpp), generalized from the hard-coded 16 B/LUP Jacobi
// traffic to arbitrary per-operator byte counts:
//
//   time per update = mem_bytes / B_mem(threads) + cache_bytes / B_cache
//
// where temporal blocking of sweep depth S divides the main-memory
// traffic by S and moves the remaining (S-1)/S updates onto the shared
// cache.  Feasibility gates (does the wavefront's plane set fit the
// cache? can the pipeline hold its in-flight blocks?) fall back to the
// unblocked traffic instead of predicting impossible reuse.
//
// Everything here is *predictive ranking*, not measurement: the tuner
// prunes the search space with these numbers, then settles the final
// choice with short timed probes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "perfmodel/single_cache_model.hpp"
#include "perfmodel/wavefront_model.hpp"
#include "topo/machine.hpp"

namespace tb::perfmodel {

/// Main-memory traffic per lattice-site update of one standard two-grid
/// sweep of an operator (solution read + write + write-allocate), plus
/// any read-only auxiliary fields the operator streams (the varcoef
/// face coefficients, the lbm geometry flags).
struct OperatorTraffic {
  double mem_bytes = 24.0;     ///< standard sweep, cached stores
  double mem_bytes_nt = 24.0;  ///< with streaming stores (= mem_bytes if none)
  double aux_bytes = 0.0;      ///< read-only per-cell auxiliary fields

  /// Per-cell doubles a distributed ghost exchange transports per halo
  /// layer: the grids StencilSolver::level_grids() returns, the carrier
  /// plus every read-write state field.  1 for the carrier-only
  /// operators; 20 for lbm (carrier + 19 distributions — the geometry
  /// flags are rebuilt rank-locally from global inputs, never wired).
  /// The halo/cluster models multiply their 8 B/cell messages by this.
  double halo_fields = 1.0;

  /// Cache-resident state per in-flight block, as a multiple of the
  /// carrier block's bytes (the `block_bytes` the capacity gate is fed).
  /// 1.0 is the historic Jacobi calibration; operators whose update
  /// streams additional per-cell fields through the cache (varcoef's
  /// six coefficients, lbm's two 19-component lattices) scale it up so
  /// the Sec. 1.3 capacity estimate sees their real working set.
  double block_state_factor = 1.0;

  /// Concurrent read streams one row sweep advances (distinct arrays /
  /// row pointers walked in lockstep): what the hardware prefetcher must
  /// track.  5 for the 7-point carriers (c, j±1, k±1), 11 for varcoef
  /// (+6 coefficient rows), 9 for box27's row set, 21 for the D3Q19 pull
  /// (19 distributions + carrier + mask).  Feeds
  /// NodeModel::gather_efficiency, which discounts operators exceeding
  /// the tracker budget unless software prefetch covers them.
  double read_streams = 5.0;
};

/// Traffic of a registry operator by name — the single table the tuner's
/// ranking, the search-space shaping and the bench matrix's bytes/LUP
/// column share.  Unknown names get the generic 24 B/LUP two-grid
/// traffic without a streaming-store path.
[[nodiscard]] inline OperatorTraffic operator_traffic(std::string_view op) {
  OperatorTraffic t;  // generic: 24 B/LUP, no NT, no aux
  if (op == "jacobi") {
    t.mem_bytes = 24.0;
    t.mem_bytes_nt = 16.0;  // streaming stores skip the write-allocate
  } else if (op == "varcoef") {
    t.aux_bytes = 6 * sizeof(double);  // six face-coefficient fields
    t.block_state_factor = 1.0 + t.aux_bytes / t.mem_bytes;
    t.read_streams = 11.0;  // 5 solution rows + 6 coefficient rows
  } else if (op == "box27") {
    t.read_streams = 9.0;  // c, j±1, k±1 and the four diagonal rows
  } else if (op == "lbm") {
    // Two-lattice ping-pong: 19 distributions read + written (incl.
    // write-allocate) per update, plus the density carrier's own
    // two-grid traffic; the bounce-back mask streams one read-only
    // 8-byte word per cell.  The SoA row kernel streams its stores
    // (every level-L fout is first read at level L+1, never sooner), so
    // the NT path drops the write-allocate of all 19 distributions and
    // the carrier: 19 * (8 read + 8 write) + (8 + 8).
    t.mem_bytes = 19 * 24.0 + 24.0;
    t.mem_bytes_nt = 19 * 16.0 + 16.0;
    t.aux_bytes = 8.0;
    t.halo_fields = 20.0;  // density carrier + 19 distribution fields
    t.read_streams = 21.0;  // 19 distributions + carrier + mask row
    // In-flight state per cell: both parities of the 19 distributions
    // plus both carrier grids plus the mask word, relative to the
    // 8 B/cell carrier block the capacity gate is fed.
    t.block_state_factor = (2 * 19 * 8.0 + 2 * 8.0 + 8.0) / 8.0;
  } else if (op == "lbm:aa") {
    // In-place AA storage: each distribution is read and rewritten in
    // ONE lattice, so the write hits a cache line the read just loaded —
    // no second lattice, no write-allocate.  19 * (8 read + 8 write)
    // plus the carrier's two-grid traffic and the 8-byte mask word.
    t.mem_bytes = 19 * 16.0 + 24.0;
    // The in-place lattice stores have no write-allocate to skip, but
    // the carrier still two-grids — streaming ITS store drops one line:
    // same 320 B/LUP floor as the streamed ping-pong.
    t.mem_bytes_nt = 19 * 16.0 + 16.0;
    t.aux_bytes = 8.0;
    t.halo_fields = 20.0;  // same fields; dist rejects AA anyway
    t.read_streams = 21.0;  // same 19-pointer pull as the ping-pong
    // Single resident lattice + both carrier grids + the mask word.
    t.block_state_factor = (19 * 8.0 + 2 * 8.0 + 8.0) / 8.0;
  }
  // box27 reads more *rows* but the same grids: traffic per update is
  // identical to jacobi without the streaming-store path.  redblack
  // updates only half the cells per level but still streams the full
  // solution through memory (the other color is copied), so each
  // half-sweep level moves the full 24 B per carried cell — one full
  // red–black iteration (two levels) costs two Jacobi sweeps of traffic
  // for one sweep's worth of relaxation.
  return t;
}

/// Bandwidth-model view of one shared-memory node.
class NodeModel {
 public:
  explicit NodeModel(topo::MachineSpec spec) : spec_(std::move(spec)) {
    spec_.validate();
  }

  [[nodiscard]] const topo::MachineSpec& spec() const { return spec_; }

  /// Achievable memory bandwidth of `threads` cores [B/s]: scales with
  /// the thread count until the touched sockets' buses saturate.
  [[nodiscard]] double mem_bw(int threads) const {
    const int sockets_used =
        std::clamp((threads + spec_.cores_per_socket - 1) /
                       spec_.cores_per_socket,
                   1, spec_.sockets);
    return std::min(static_cast<double>(threads) * spec_.mem_bw_single,
                    static_cast<double>(sockets_used) * spec_.mem_bw_socket);
  }

  /// Aggregate shared-cache bandwidth of `groups` cache groups [B/s].
  [[nodiscard]] double cache_bw(int groups) const {
    return spec_.cache_bw *
           std::clamp(groups, 1, spec_.sockets);
  }

  /// Concurrent read streams the hardware prefetcher tracks per core —
  /// beyond this, demand misses stall the pull and effective bandwidth
  /// drops unless software prefetch covers the overflow.  Typical L2
  /// stream-tracker budget on the x86 parts the paper measures.
  static constexpr double kHwPrefetchStreams = 12.0;

  /// Fraction of the streaming bandwidth an operator's read pattern
  /// actually achieves.  Operators within the hardware tracker budget run
  /// at full rate; the D3Q19 gather (21 streams) overruns it and pays a
  /// latency penalty growing with the untracked fraction.  Software
  /// prefetch (prefetch_dist > 0) restores the overrun streams but costs
  /// a small instruction overhead — issuing it on an operator that does
  /// not need it is a (mild) pessimization, which is exactly the
  /// trade-off the ranker must see to order the prefetch axis honestly.
  [[nodiscard]] static double gather_efficiency(const OperatorTraffic& op,
                                                int prefetch_dist) {
    constexpr double kPrefetchOverhead = 0.98;
    if (op.read_streams <= kHwPrefetchStreams)
      return prefetch_dist > 0 ? kPrefetchOverhead : 1.0;
    if (prefetch_dist > 0) return kPrefetchOverhead;
    return 1.0 - 0.25 * (1.0 - kHwPrefetchStreams / op.read_streams);
  }

  /// Predicted throughput of the standard spatially blocked solver
  /// [LUP/s] (Eq. (2) generalized to the operator's traffic, discounted
  /// by the read pattern's gather efficiency).
  [[nodiscard]] double baseline_lups(const OperatorTraffic& op, int threads,
                                     bool nontemporal,
                                     int prefetch_dist = 0) const {
    const double mem = (nontemporal ? op.mem_bytes_nt : op.mem_bytes) +
                       op.aux_bytes;
    return gather_efficiency(op, prefetch_dist) * mem_bw(threads) / mem;
  }

  /// Predicted throughput of pipelined temporal blocking [LUP/s]:
  /// `teams` teams of `t` threads, T updates per thread, sweep depth
  /// S = teams*t*T, on blocks of `block_bytes` (one grid's bytes of one
  /// block) at upper thread distance `du`.  The compressed storage
  /// scheme avoids the write-allocate of the two-grid scheme.
  [[nodiscard]] double pipelined_lups(const OperatorTraffic& op, int teams,
                                      int t, int T, std::size_t block_bytes,
                                      int du, bool compressed) const {
    const double S = static_cast<double>(teams) * t * T;
    // The compressed scheme's in-place stores avoid the write-allocate
    // line (one word per update); in-cache updates likewise move the
    // operator's traffic minus that line.
    const double wa = sizeof(double);
    const double base_mem =
        (compressed ? op.mem_bytes - wa : op.mem_bytes) + op.aux_bytes;
    // Sec. 1.3 capacity estimate: the shared cache must hold the du
    // in-flight blocks of every thread, including every per-cell field
    // the operator keeps resident (coefficients, side-channel lattices).
    const double max_du =
        max_thread_distance(spec_, t,
                            static_cast<std::size_t>(
                                static_cast<double>(block_bytes) *
                                op.block_state_factor));
    if (static_cast<double>(du) > max_du || max_du < 1.0)
      return baseline_lups(op, teams * t, /*nontemporal=*/false);
    const double mem = base_mem / S;
    const double cache =
        (op.mem_bytes - wa + op.aux_bytes) * (S - 1.0) / S;
    return 1.0 /
           (mem / mem_bw(teams * t) + cache / cache_bw(teams));
  }

  /// Predicted throughput of the t-thread wavefront on an nx*ny plane
  /// [LUP/s]: pipeline-like reuse while the 2t planes stay cache
  /// resident, standard-algorithm ceiling once they spill.
  [[nodiscard]] double wavefront_lups(const OperatorTraffic& op, int t,
                                      int nx, int ny) const {
    if (!perfmodel::wavefront_fits(spec_, nx, ny, t))
      return baseline_lups(op, t, /*nontemporal=*/false);
    const double wa = sizeof(double);
    const double S = static_cast<double>(t);
    const double mem = (op.mem_bytes + op.aux_bytes) / S;
    const double cache =
        (op.mem_bytes - wa + op.aux_bytes) * (S - 1.0) / S;
    return 1.0 / (mem / mem_bw(t) + cache / cache_bw(1));
  }

 private:
  topo::MachineSpec spec_;
};

}  // namespace tb::perfmodel
