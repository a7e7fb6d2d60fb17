#include "topo/placement.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/aligned_buffer.hpp"

namespace tb::topo {
namespace {

constexpr std::size_t kDoublesPerPage = kPageBytes / sizeof(double);

void zero_range(double* data, std::size_t begin, std::size_t end) {
  if (end > begin) std::memset(data + begin, 0, (end - begin) * sizeof(double));
}

}  // namespace

void touch_pages(double* data, std::size_t count, PagePlacement policy,
                 int threads) {
  if (count == 0) return;
  threads = std::max(1, threads);

  if (policy == PagePlacement::kSerial || threads == 1) {
    zero_range(data, 0, count);
    return;
  }

  // Placement units are the pages the kernel homes whole, aligned in the
  // address space: huge pages for buffers AlignedBuffer backs with them.
  const std::size_t unit = placement_unit_bytes(count) / sizeof(double);
  const std::size_t lead =
      reinterpret_cast<std::uintptr_t>(data) / sizeof(double) % unit;
  const std::size_t pages = (lead + count + unit - 1) / unit;
  // Elements [begin, end) of data that fall in units [p0, p1).
  const auto units = [=](std::size_t p0, std::size_t p1) {
    const std::size_t begin = p0 == 0 ? 0 : p0 * unit - lead;
    const std::size_t end = std::min(p1 * unit - lead, count);
    return std::pair{begin, std::max(begin, end)};
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([=] {
      if (policy == PagePlacement::kRoundRobin) {
        // Thread t touches pages t, t+threads, t+2*threads, ...
        for (std::size_t p = static_cast<std::size_t>(t); p < pages;
             p += static_cast<std::size_t>(threads)) {
          const auto [begin, end] = units(p, p + 1);
          zero_range(data, begin, end);
        }
      } else {  // kFirstTouch: contiguous chunk per thread
        const std::size_t chunk = (pages + threads - 1) / threads;
        const std::size_t p0 =
            std::min(static_cast<std::size_t>(t) * chunk, pages);
        const auto [begin, end] = units(p0, std::min(p0 + chunk, pages));
        zero_range(data, begin, end);
      }
    });
  }
  for (auto& w : workers) w.join();
}

std::size_t placement_unit_bytes(std::size_t count) {
  return count * sizeof(double) >= util::kHugePageBytes ? util::kHugePageBytes
                                                        : kPageBytes;
}

int page_domain(std::size_t index, PagePlacement policy, int domains,
                std::size_t elems_per_domain) {
  if (domains <= 1) return 0;
  const std::size_t page = index / kDoublesPerPage;
  switch (policy) {
    case PagePlacement::kRoundRobin:
      return static_cast<int>(page % static_cast<std::size_t>(domains));
    case PagePlacement::kFirstTouch: {
      if (elems_per_domain == 0) return 0;
      const std::size_t d = index / elems_per_domain;
      return static_cast<int>(
          std::min<std::size_t>(d, static_cast<std::size_t>(domains - 1)));
    }
    case PagePlacement::kSerial:
      return 0;
  }
  return 0;
}

}  // namespace tb::topo
