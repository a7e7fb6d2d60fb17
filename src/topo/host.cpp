// Host machine detection for topo::host_machine().
//
// Only core count and cache capacities are probed; bandwidths stay at
// generic estimates because measuring them takes seconds (see
// perfmodel/stream.hpp for the real measurement).  Every probe has a
// deterministic fallback so the resulting spec — and therefore the
// tuning-cache machine signature built from it — is stable across runs
// on the same host.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "topo/machine.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace tb::topo {

namespace {

/// sysconf cache probe; 0 when the OS does not report the value.  Each
/// call site guards itself with the availability of the specific
/// _SC_LEVELn_CACHE_SIZE macro it passes: an earlier version gated this
/// helper's whole body on _SC_LEVEL2_CACHE_SIZE, so a platform defining
/// only the L3 macro silently probed 0 for L3 — a wrong machine
/// signature that made the tuning cache keep (or drop) plans it
/// shouldn't.
#if defined(__unix__) || defined(__APPLE__)
[[maybe_unused]] std::size_t sysconf_bytes(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}
#endif

/// Reads a "<number>K" cache size from sysfs (Linux); 0 when absent.
std::size_t sysfs_cache_bytes(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  long kib = 0;
  const int got = std::fscanf(f, "%ld", &kib);
  std::fclose(f);
  return (got == 1 && kib > 0) ? static_cast<std::size_t>(kib) * 1024 : 0;
}

}  // namespace

int hardware_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

MachineSpec host_machine() {
  MachineSpec m;
  const int cores = hardware_cores();
  m.name = "host(" + std::to_string(cores) + " cores)";
  m.sockets = 1;  // one cache group: conservative without NUMA probing
  m.cores_per_socket = cores;

  std::size_t l3 = 0, l2 = 0;
#if defined(_SC_LEVEL3_CACHE_SIZE)
  l3 = sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
#endif
  if (l3 == 0)
    l3 = sysfs_cache_bytes(
        "/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (l2 == 0)
    l2 = sysfs_cache_bytes(
        "/sys/devices/system/cpu/cpu0/cache/index2/size");
  if (l3 != 0) m.shared_cache_bytes = l3;
  if (l2 != 0) m.private_cache_bytes = l2;

  // Generic DDR-era estimates; the relative model ranking is what the
  // tuner consumes, and measurement probes settle the final choice.
  // The saturated bus can never be slower than one thread (Ms >= Ms,1).
  m.mem_bw_single = 10.0e9;
  m.mem_bw_socket =
      std::max(m.mem_bw_single, std::min<double>(4, cores) * 5.0e9);
  m.cache_bw = 8.0 * m.mem_bw_single;
  return m;
}

}  // namespace tb::topo
