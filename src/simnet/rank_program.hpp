// Rank programs: the backend-neutral IR of a simulated-cluster run.
//
// A RankProgram is the per-rank schedule of the epoch loop of
// dist::DistributedStencil (dist/distributed.hpp) — compute phases charged
// at a modeled LUP rate, halo messages with explicit peers/tags/bytes,
// epoch marks.  Extracting it lets the *same* schedule run through two
// backends:
//
//  * replay_on_world(): the executing oracle.  One OS thread per rank on
//    simnet::World, real mailbox traffic with dummy payloads, simulated
//    time advanced by the NetworkModel — byte-for-byte the timing
//    semantics of the production halo exchange, capped at O(10) ranks by
//    thread count.
//  * event::Engine (simnet/event/engine.hpp): a discrete-event simulator
//    replaying the identical ops over a topo::ClusterFabric with
//    max-min-fair link sharing — O(10^4) ranks in seconds.
//
// The agreement tests (tests/simnet/test_event_engine.cpp) hold the two
// backends to within 1e-9 seconds per epoch on uncontended fabrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simnet/comm.hpp"

namespace tb::simnet {

enum class RankOpKind {
  kCompute,    ///< advance this rank's clock by `seconds`
  kSend,       ///< blocking send of `bytes` to `peer` with `tag`
  kIsend,      ///< non-blocking send: pay packing only, wire in background
  kRecv,       ///< blocking receive of `bytes` from `peer` with `tag`
  kEpochMark,  ///< record this rank's clock (epoch boundary)
  kBarrier,    ///< synchronize all ranks' clocks
};

/// One instruction of a rank program.  `bytes` is carried on receives
/// too: the executing replayer needs the exact buffer size up front
/// (Comm::recv treats a length mismatch as a bug and throws).
struct RankOp {
  RankOpKind kind = RankOpKind::kCompute;
  double seconds = 0.0;   ///< kCompute only
  int peer = -1;          ///< kSend/kIsend/kRecv
  int tag = 0;            ///< kSend/kIsend/kRecv
  std::size_t bytes = 0;  ///< kSend/kIsend/kRecv payload size

  static RankOp compute(double seconds) {
    RankOp op;
    op.kind = RankOpKind::kCompute;
    op.seconds = seconds;
    return op;
  }
  static RankOp send(int peer, int tag, std::size_t bytes) {
    RankOp op;
    op.kind = RankOpKind::kSend;
    op.peer = peer;
    op.tag = tag;
    op.bytes = bytes;
    return op;
  }
  static RankOp isend(int peer, int tag, std::size_t bytes) {
    RankOp op = send(peer, tag, bytes);
    op.kind = RankOpKind::kIsend;
    return op;
  }
  static RankOp recv(int peer, int tag, std::size_t bytes) {
    RankOp op = send(peer, tag, bytes);
    op.kind = RankOpKind::kRecv;
    return op;
  }
  static RankOp epoch_mark() {
    RankOp op;
    op.kind = RankOpKind::kEpochMark;
    return op;
  }
  static RankOp barrier() {
    RankOp op;
    op.kind = RankOpKind::kBarrier;
    return op;
  }
};

struct RankProgram {
  std::vector<RankOp> ops;
};

/// Result of replaying a program set (either backend reports this shape).
struct ReplayResult {
  std::vector<double> final_times;  ///< [rank] clock after the last op
  /// [rank][k]: clock at the rank's k-th kEpochMark.
  std::vector<std::vector<double>> epoch_times;
  std::vector<std::uint64_t> bytes_sent;  ///< [rank]
  std::vector<std::uint64_t> messages_sent;
};

/// Executes one program per rank on the thread-backed World — the
/// executing oracle the event engine is validated against.  Payloads are
/// dummy zero-filled buffers of the declared byte size (rounded to whole
/// doubles), so data movement is real but contents are irrelevant.
/// `programs.size()` must equal `world.size()`.
ReplayResult replay_on_world(World& world,
                             const std::vector<RankProgram>& programs);

}  // namespace tb::simnet
