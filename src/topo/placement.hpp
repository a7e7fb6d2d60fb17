// NUMA page-placement policies.
//
// The baseline Jacobi uses *first-touch* placement (each thread initializes
// the pages it will later update), which is optimal for static work
// distribution on ccNUMA nodes.  Pipelined temporal blocking defeats
// first-touch — every thread updates every block — so the paper uses a
// *round-robin* page distribution to spread memory pressure evenly across
// the sockets' controllers.
//
// Without libnuma (and on this single-socket VM) placement is emulated: the
// policy decides which *logical initializing thread* first writes each page,
// which is exactly the mechanism by which first-touch policies operate.  The
// discrete-event simulator consumes the same policy enum to model bandwidth
// distribution across controllers.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace tb::topo {

/// Page placement policy for grid storage.
enum class PagePlacement {
  kFirstTouch,   ///< pages homed where the owning thread first writes them
  kRoundRobin,   ///< pages interleaved across locality domains
  kSerial,       ///< all pages touched by the calling thread (worst case)
};

[[nodiscard]] constexpr const char* to_string(PagePlacement p) {
  switch (p) {
    case PagePlacement::kFirstTouch: return "first-touch";
    case PagePlacement::kRoundRobin: return "round-robin";
    case PagePlacement::kSerial: return "serial";
  }
  return "?";
}

inline constexpr std::size_t kPageBytes = 4096;

/// Bytes of the page the kernel homes as a whole for a buffer of `count`
/// doubles: util::kHugePageBytes where util::AlignedBuffer backs the
/// buffer with huge pages (a host whose THP mode allows it homes all of
/// a huge page on the node of its first toucher), kPageBytes otherwise.
[[nodiscard]] std::size_t placement_unit_bytes(std::size_t count);

/// Touches the `count` doubles at `data` according to `policy` using
/// `threads` logical initializer threads.  Each initializer writes zeros
/// to the pages the policy assigns to it, establishing first-touch homing
/// on real ccNUMA hardware and a deterministic initialization everywhere
/// else.  Pages are placement_unit_bytes(count) units aligned in the
/// address space, so round-robin hands whole huge pages to threads.
void touch_pages(double* data, std::size_t count, PagePlacement policy,
                 int threads);

/// Returns the locality domain (0..domains-1) that `policy` assigns to the
/// page containing element `index`; used by the machine simulator to model
/// per-controller traffic of the simulated machine's kPageBytes pages.
[[nodiscard]] int page_domain(std::size_t index, PagePlacement policy,
                              int domains, std::size_t elems_per_domain);

}  // namespace tb::topo
