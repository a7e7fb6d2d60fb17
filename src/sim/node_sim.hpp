// Discrete-event node simulator.
//
// The paper's Fig. 3 numbers are wall-clock measurements on a dual-socket
// Nehalem EP.  Timings on a host with another topology (one socket, a
// different cache size or memory bandwidth) say little about that
// machine's bottlenecks, so the simulator replays the
// *exact pipeline schedule* of the real implementation (same BlockPlan,
// same windows, same dl/du/dt clearance rules, same barrier placement) on
// a modeled machine with:
//
//  * per-socket memory controllers — saturating capacity Ms with a
//    per-stream cap Ms,1 (a single thread cannot saturate the bus),
//  * per-socket shared caches with aggregate bandwidth Mc,
//  * a cross-socket (QPI-style) path with its own per-stream cap,
//  * an in-core execution rate (cycles per stencil update) that bounds
//    in-cache throughput — the effect that makes the Eq. (5) model fail
//    for T >= 2,
//  * ccNUMA page homing per placement policy (first-touch / round-robin),
//  * shared-cache capacity: if the in-flight block span of a team exceeds
//    the cache, handovers fall back to memory traffic (this is what
//    punishes too-large d_u),
//  * barrier costs and, for the relaxed scheme, counter-propagation
//    latency,
//  * optional multiplicative execution jitter (OS noise, prefetch
//    variation).  Jitter is what makes pipeline looseness valuable: with
//    d_u = d_l the chain moves in lock step and every bubble stalls all
//    threads, which is the effect behind the ~80 % gain of Fig. 3 (right).
//
// Time advances with a fluid-flow model: every active transfer gets a
// max-min fair share of its resource, bounded by its per-stream cap;
// rates are recomputed at each task completion.
#pragma once

#include <array>
#include <cstdint>

#include "core/config.hpp"
#include "topo/machine.hpp"
#include "topo/placement.hpp"

namespace tb::sim {

/// Per-kernel cost characterization.  Defaults describe the 7-point
/// Jacobi stencil; d3q19() describes the lattice-Boltzmann update whose
/// code balance is an order of magnitude worse (the paper's motivation).
struct KernelTraits {
  /// Memory bytes per cell streamed in when a block is first touched by
  /// the pipeline (load + write-allocate; halved by the compressed grid).
  double front_bytes = 16.0;
  /// Memory bytes per cell written back when the rear thread finishes.
  double evict_bytes = 8.0;
  /// Shared-cache bytes per cell of one in-cache update.
  double cache_bytes = 16.0;
  /// Number of scalar fields per cell (sizes the cache footprint).
  int fields = 1;
  /// In-core cost of one update when the block was last touched by
  /// *another* core (data arrives via the shared L3 / coherence traffic).
  double cycles_first_touch = 5.3;
  /// In-core cost when the thread reuses its own previous update (T > 1,
  /// data still in the private cache hierarchy).
  double cycles_cached = 4.8;
  /// Fixed in-core cost per x-row start (loop overhead, prefetcher
  /// warm-up).  Short inner loops amortize this badly — the effect behind
  /// the paper's preference for long inner loops and bx ~ 120 blocks.
  double row_start_cycles = 40.0;

  [[nodiscard]] static KernelTraits jacobi() { return {}; }

  /// D3Q19 BGK lattice-Boltzmann: 19 distributions of 8 B are read and
  /// written per update (plus write-allocate on the stores), and the
  /// collision costs on the order of 100 cycles per cell.
  [[nodiscard]] static KernelTraits d3q19() {
    KernelTraits t;
    t.front_bytes = 19 * 16.0;  // 19 loads + 19 write-allocates
    t.evict_bytes = 19 * 8.0;
    t.cache_bytes = 19 * 16.0;
    t.fields = 19;
    t.cycles_first_touch = 115.0;
    t.cycles_cached = 100.0;
    t.row_start_cycles = 80.0;
    return t;
  }
};

/// Machine model parameters beyond the MachineSpec bandwidths.
struct SimMachine {
  topo::MachineSpec spec = topo::nehalem_ep();
  KernelTraits kernel = KernelTraits::jacobi();
  /// Per-stream bandwidth cap for cross-socket transfers (QPI-like).
  double qpi_stream_bw = 11.0e9;
  /// Multiplier on the per-stream cap when a thread reads a memory page
  /// homed on the other socket.
  double remote_mem_factor = 0.45;
  /// Relaxed-sync counter propagation latency (cache line transfer).
  double sync_latency_cycles = 150.0;
  /// Lognormal execution jitter (sigma of log); 0 disables noise.  The
  /// jitter is what makes the rigid lock-step pipeline slow: each round of
  /// a d_u = d_l chain runs at the *maximum* of the threads' noise draws.
  double jitter_sigma = 0.45;
  /// RNG seed for the jitter (results are reproducible).
  std::uint64_t seed = 42;
};

/// The paper's testbed: one Nehalem EP socket (`sockets` = 1, the
/// "Socket" bars of Fig. 3) or the two-socket node (`sockets` = 2).
[[nodiscard]] inline SimMachine nehalem(int sockets) {
  SimMachine m;
  if (sockets == 1) m.spec = topo::nehalem_ep_socket();
  return m;
}

/// The paper's Fig. 3 schedule: `teams` teams (one per socket) of four
/// threads, T updates per thread, 120x20x20 blocks and the config
/// defaults d_l = 1, d_u = 4, relaxed sync, two grids.
[[nodiscard]] inline core::PipelineConfig paper_schedule(int teams, int T) {
  core::PipelineConfig pc;
  pc.teams = teams;
  pc.team_size = 4;
  pc.steps_per_thread = T;
  pc.block = {120, 20, 20};
  return pc;
}

/// Simulated run outcome.
struct SimResult {
  double seconds = 0.0;
  double mlups = 0.0;
  double mem_bytes = 0.0;    ///< total memory-controller traffic
  double cache_bytes = 0.0;  ///< total shared-cache traffic
  double stall_seconds = 0.0;  ///< summed per-thread clearance wait time
};

/// Simulates `sweeps` team sweeps of the pipelined temporal blocking
/// scheme on an interior grid of `grid` cells (boundary handling as in the
/// real solver).  Threads of team g run on socket g.  cfg's T must be
/// set: the simulated machine is not the host core::resolve_depth asks.
[[nodiscard]] SimResult simulate_pipeline(
    const SimMachine& machine, const core::PipelineConfig& cfg,
    std::array<int, 3> grid, int sweeps,
    topo::PagePlacement placement = topo::PagePlacement::kRoundRobin);

/// Simulates `sweeps` sweeps of the standard (spatially blocked,
/// non-temporal-store) Jacobi with `threads` threads distributed evenly
/// over the sockets, first-touch placement.
[[nodiscard]] SimResult simulate_standard(const SimMachine& machine,
                                          std::array<int, 3> grid,
                                          int threads, int sweeps);

}  // namespace tb::sim
