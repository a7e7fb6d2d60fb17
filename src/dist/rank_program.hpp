// Builds the per-rank halo-exchange programs (simnet::RankProgram) from a
// dist::Decomposition — the modeled twin of the sequential epoch loop of
// DistributedStencil::advance (dist/distributed.hpp).  Both draw every box from the same Decomposition
// methods, so the bytes, message counts, tags and op order here are
// exactly those the executing solver produces; only the payload contents
// differ (the event engine and the replayer move dummy bytes).
//
// The overlapped (isend) exchange is deliberately not modeled yet: its
// schedule depends on Comm-internal completion times the IR does not
// carry.  Sequential mode is what the scaling sweeps and the paper's
// Fig. 6 reproduce.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "dist/decomposition.hpp"
#include "simnet/rank_program.hpp"

namespace tb::dist {

/// Parameters of a modeled distributed halo-exchange run.
struct HaloProgramSpec {
  std::array<int, 3> global_n{34, 34, 34};
  std::array<int, 3> proc_dims{1, 1, 1};
  int halo = 1;          ///< ghost width = levels per epoch
  int fields = 1;        ///< grids exchanged per cell (level_grids(); 20 for lbm)
  double proc_lups = 1.0e9;  ///< modeled per-rank update rate [LUP/s]
  int epochs = 1;
  bool mark_epochs = true;  ///< emit a kEpochMark after every epoch
};

/// Same (dimension, side) face tags DistributedStencil uses.
[[nodiscard]] inline int halo_face_tag(int d, int side) {
  return d * 2 + side;
}

/// One program per rank, replaying `spec.epochs` sequential epochs:
/// for d = x, y, z — post both face sends, then both face receives —
/// then charge the epoch's cell updates, then mark the epoch.
inline std::vector<simnet::RankProgram> build_halo_programs(
    const HaloProgramSpec& spec) {
  const Decomposition decomp(spec.global_n, spec.proc_dims, spec.halo);
  const std::size_t field_bytes = sizeof(double);
  std::vector<simnet::RankProgram> programs(
      static_cast<std::size_t>(decomp.ranks()));

  for (int rank = 0; rank < decomp.ranks(); ++rank) {
    const RankGeometry g = decomp.geometry(rank);
    const double epoch_seconds =
        static_cast<double>(decomp.compute_cells(g, /*inner_only=*/false)) /
        spec.proc_lups;
    std::vector<simnet::RankOp>& ops =
        programs[static_cast<std::size_t>(rank)].ops;
    for (int e = 0; e < spec.epochs; ++e) {
      for (int d = 0; d < 3; ++d) {
        for (int side = 0; side < 2; ++side) {
          if (!g.has_neighbor(d, side)) continue;
          const std::size_t bytes = decomp.send_box(g, d, side).cells() *
                                    static_cast<std::size_t>(spec.fields) *
                                    field_bytes;
          ops.push_back(simnet::RankOp::send(g.neighbor(d, side),
                                             halo_face_tag(d, side), bytes));
        }
        for (int side = 0; side < 2; ++side) {
          if (!g.has_neighbor(d, side)) continue;
          const std::size_t bytes = decomp.recv_box(g, d, side).cells() *
                                    static_cast<std::size_t>(spec.fields) *
                                    field_bytes;
          // The neighbour tagged its message from *its* perspective.
          ops.push_back(simnet::RankOp::recv(
              g.neighbor(d, side), halo_face_tag(d, 1 - side), bytes));
        }
      }
      ops.push_back(simnet::RankOp::compute(epoch_seconds));
      if (spec.mark_epochs) ops.push_back(simnet::RankOp::epoch_mark());
    }
  }
  return programs;
}

}  // namespace tb::dist
