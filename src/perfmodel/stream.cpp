#include "perfmodel/stream.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "util/aligned_buffer.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tb::perfmodel {

namespace {

void copy_range(double* __restrict__ dst, const double* __restrict__ src,
                std::size_t n, bool nontemporal) {
#if defined(__SSE2__)
  if (nontemporal) {
    std::size_t i = 0;
    for (; i < n && (reinterpret_cast<std::uintptr_t>(dst + i) & 0xF) != 0; ++i)
      dst[i] = src[i];
    for (; i + 2 <= n; i += 2)
      _mm_stream_pd(dst + i, _mm_loadu_pd(src + i));
    for (; i < n; ++i) dst[i] = src[i];
    _mm_sfence();
    return;
  }
#endif
  (void)nontemporal;
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

struct CopyRuns {
  std::vector<double> seconds;  ///< wall time of each repetition
  std::size_t bytes = 0;        ///< bytes one repetition moves
};

/// `repetitions` timed dispatches, each copying every worker's slice
/// `passes` times.
CopyRuns timed_copies(std::size_t elems, int threads, bool nontemporal,
                      int repetitions, int passes) {
  threads = std::max(1, threads);
  util::AlignedBuffer<double> a(elems), b(elems);
  util::ThreadPool pool(threads);
  auto slice = [&](int w) {
    return std::pair{elems * static_cast<std::size_t>(w) / threads,
                     elems * static_cast<std::size_t>(w + 1) / threads};
  };

  // First-touch initialization with the same partition as the copy loop.
  pool.run([&](int w) {
    const auto [lo, hi] = slice(w);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = static_cast<double>(i);
      b[i] = 0.0;
    }
  });

  const bool nt = nontemporal && tb::core::nontemporal_supported();
  CopyRuns runs;
  for (int r = 0; r < repetitions; ++r) {
    util::Timer t;
    pool.run([&](int w) {
      const auto [lo, hi] = slice(w);
      for (int p = 0; p < passes; ++p)
        copy_range(b.data() + lo, a.data() + lo, hi - lo, nt);
    });
    runs.seconds.push_back(t.elapsed());
  }
  // 8B load + 8B store, plus 8B write-allocate unless streaming stores.
  const double bytes_per_elem = nt ? 16.0 : 24.0;
  runs.bytes = static_cast<std::size_t>(bytes_per_elem *
                                        static_cast<double>(elems) * passes);
  return runs;
}

/// The repetition at `pick` (0 = fastest, 0.5 = median) of the sorted
/// times, with the interquartile spread of the bandwidths.
BandwidthResult summarize(CopyRuns runs, double pick) {
  std::vector<double>& s = runs.seconds;
  std::sort(s.begin(), s.end());
  auto at = [&](double q) {
    return s[static_cast<std::size_t>(q * static_cast<double>(s.size() - 1) +
                                      0.5)];
  };
  auto rate = [&](double seconds) {
    return seconds > 0 ? static_cast<double>(runs.bytes) / seconds : 0.0;
  };
  BandwidthResult res;
  res.bytes = runs.bytes;
  res.seconds = at(pick);
  res.bytes_per_second = rate(res.seconds);
  const double median = rate(at(0.5));
  // Shorter time = higher bandwidth: the first quartile of the times is
  // the third of the bandwidths.
  res.relative_spread =
      median > 0 ? (rate(at(0.25)) - rate(at(0.75))) / median : 0.0;
  return res;
}

}  // namespace

BandwidthResult stream_copy(std::size_t elems, int threads, bool nontemporal,
                            int repetitions) {
  return summarize(timed_copies(elems, threads, nontemporal,
                                std::max(1, repetitions), 1),
                   0.0);
}

BandwidthResult measure_ms(int threads, std::size_t llc_bytes) {
  // Working set ~8x the LLC so the copy streams from memory.
  const std::size_t elems = llc_bytes * 8 / sizeof(double) / 2;
  return stream_copy(elems, threads, /*nontemporal=*/true);
}

BandwidthResult measure_ms1(std::size_t llc_bytes) {
  return measure_ms(1, llc_bytes);
}

BandwidthResult measure_mc(int threads, std::size_t llc_bytes) {
  // Working set ~1/4 of the LLC: both arrays resident in the shared cache.
  const std::size_t elems = llc_bytes / 4 / sizeof(double) / 2;
  return summarize(timed_copies(elems, threads, /*nontemporal=*/false,
                                /*repetitions=*/15, /*passes=*/8),
                   0.5);
}

}  // namespace tb::perfmodel
