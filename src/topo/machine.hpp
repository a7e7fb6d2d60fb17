// Machine topology description: sockets, cache groups, cache and bandwidth
// parameters.
//
// The pipelined temporal blocking scheme is *multicore-aware*: it needs to
// know which cores share an outer-level cache (a "cache group") to form
// thread teams, how large that cache is to size blocks, and the memory /
// cache bandwidths to drive the diagnostic performance model (Sec. 1.4).
//
// MachineSpec is a plain value type so tests and the discrete-event
// simulator can describe machines that are not physically present — in
// particular the paper's dual-socket Intel Nehalem EP (Xeon 5550) testbed.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace tb::topo {

/// Static description of one shared-memory node.
///
/// Bandwidths follow the paper's notation:
///   Ms   — saturated (all-cores) STREAM COPY memory bandwidth per socket,
///   Ms1  — single-threaded STREAM COPY memory bandwidth,
///   Mc   — multi-threaded shared-cache bandwidth for COPY-like kernels.
struct MachineSpec {
  std::string name = "generic";

  int sockets = 1;                    ///< outer-level cache groups per node
  int cores_per_socket = 4;           ///< cores sharing the outer cache
  std::size_t shared_cache_bytes = 8u << 20;  ///< outer-level (L3) capacity
  std::size_t private_cache_bytes = 256u << 10;  ///< per-core (L2) capacity
  std::size_t cache_line_bytes = 64;

  double mem_bw_socket = 18.5e9;      ///< Ms   [B/s] per socket, saturated
  double mem_bw_single = 10.0e9;      ///< Ms,1 [B/s] one thread
  double cache_bw = 80.0e9;           ///< Mc   [B/s] shared cache, COPY-like
  double clock_hz = 2.66e9;

  /// Cost of one global barrier across `threads` cores (cycles). The paper
  /// cites "hundreds if not thousands of cycles" depending on topology.
  double barrier_cycles_base = 400.0;
  double barrier_cycles_per_thread = 150.0;

  [[nodiscard]] int total_cores() const { return sockets * cores_per_socket; }

  /// Full-node saturated memory bandwidth (both sockets' controllers).
  [[nodiscard]] double mem_bw_node() const {
    return mem_bw_socket * sockets;
  }

  /// Barrier cost in seconds for a given participant count.
  [[nodiscard]] double barrier_seconds(int threads) const {
    return (barrier_cycles_base + barrier_cycles_per_thread * threads) /
           clock_hz;
  }

  /// Validates invariants; throws std::invalid_argument on nonsense specs.
  void validate() const {
    if (sockets < 1 || cores_per_socket < 1)
      throw std::invalid_argument("MachineSpec: need >=1 socket and core");
    if (mem_bw_socket <= 0 || mem_bw_single <= 0 || cache_bw <= 0)
      throw std::invalid_argument("MachineSpec: bandwidths must be positive");
    if (shared_cache_bytes == 0)
      throw std::invalid_argument("MachineSpec: zero shared cache");
  }
};

/// Best-effort description of the machine this process runs on: core
/// count from the scheduler, cache capacities from sysconf/sysfs where
/// the OS exposes them, bandwidths left at generic estimates (measure
/// them with perfmodel/stream.hpp when accuracy matters).  Deterministic
/// on a given host — the tuning cache derives its machine signature from
/// this spec, so two runs on the same machine must agree.
[[nodiscard]] MachineSpec host_machine();

/// Number of hardware threads actually available on this host (at
/// least 1).
[[nodiscard]] int hardware_cores();

/// The paper's testbed: dual-socket Intel Xeon 5550 (Nehalem EP), 2.66 GHz,
/// 8 MB shared L3 per socket, Ms = 18.5 GB/s, Ms,1 = 10 GB/s, Mc ~ 8*Ms,1.
[[nodiscard]] inline MachineSpec nehalem_ep() {
  MachineSpec m;
  m.name = "Nehalem EP (Xeon 5550)";
  m.sockets = 2;
  m.cores_per_socket = 4;
  m.shared_cache_bytes = 8u << 20;
  m.private_cache_bytes = 256u << 10;
  m.mem_bw_socket = 18.5e9;
  m.mem_bw_single = 10.0e9;
  m.cache_bw = 8.0 * m.mem_bw_single;  // Mc/Ms,1 ~ 8 on this CPU [8]
  m.clock_hz = 2.66e9;
  return m;
}

/// Single socket of the Nehalem EP node (the "Socket" bars in Fig. 3).
[[nodiscard]] inline MachineSpec nehalem_ep_socket() {
  MachineSpec m = nehalem_ep();
  m.name = "Nehalem EP socket";
  m.sockets = 1;
  return m;
}

/// An older, more bandwidth-starved design in the spirit of Core 2: memory
/// bandwidth saturates with one thread (Ms ~ Ms,1), so temporal blocking
/// has more headroom (the paper's outlook, Sec. 3).
[[nodiscard]] inline MachineSpec core2_like() {
  MachineSpec m;
  m.name = "Core2-like (bandwidth-starved)";
  m.sockets = 2;
  m.cores_per_socket = 4;
  m.shared_cache_bytes = 6u << 20;
  m.mem_bw_socket = 8.0e9;
  m.mem_bw_single = 7.5e9;   // one core nearly saturates the bus
  m.cache_bw = 60.0e9;
  m.clock_hz = 2.83e9;
  return m;
}

/// A hypothetical bandwidth-scalable machine where the memory bandwidth
/// grows with core count; the model predicts little gain from temporal
/// blocking here ("a bad candidate", Sec. 1.4).
[[nodiscard]] inline MachineSpec bandwidth_scalable() {
  MachineSpec m;
  m.name = "bandwidth-scalable";
  m.sockets = 1;
  m.cores_per_socket = 4;
  m.shared_cache_bytes = 8u << 20;
  m.mem_bw_single = 10.0e9;
  m.mem_bw_socket = 40.0e9;  // Ms = t * Ms,1: scales with cores
  m.cache_bw = 80.0e9;
  m.clock_hz = 2.66e9;
  return m;
}

/// A projected many-core socket (Sec. 3 outlook): twice Nehalem's cores
/// sharing one cache, with barely more memory bandwidth.
[[nodiscard]] inline MachineSpec starved_manycore() {
  MachineSpec m;
  m.name = "future many-core (8c, starved)";
  m.cores_per_socket = 8;
  m.shared_cache_bytes = 16u << 20;
  m.mem_bw_socket = 20.0e9;
  m.mem_bw_single = 14.0e9;  // one core nearly saturates
  m.cache_bw = 160.0e9;
  m.clock_hz = 2.5e9;
  return m;
}

}  // namespace tb::topo
