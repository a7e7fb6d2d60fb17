// Persistent worker-thread pool.
//
// The pipelined solver launches the same set of threads for every team
// sweep; re-spawning std::threads per sweep would dominate runtime on small
// grids.  ThreadPool keeps P workers parked on a condition variable and
// hands them one job (a callable of the worker index) at a time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tb::util {

/// Fixed-size pool executing one parallel region at a time.
///
/// run(f) invokes f(worker_id) on every worker concurrently and returns when
/// all workers have finished.  Exceptions thrown by f terminate the program
/// (workers are noexcept contexts by design — solver kernels do not throw).
class ThreadPool {
 public:
  explicit ThreadPool(int workers) : job_count_(static_cast<std::size_t>(workers)) {
    threads_.reserve(job_count_);
    for (std::size_t w = 0; w < job_count_; ++w)
      threads_.emplace_back([this, w] { worker_loop(static_cast<int>(w)); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] int size() const { return static_cast<int>(job_count_); }

  /// Runs `f(worker_id)` on all workers; blocks until everyone is done.
  void run(const std::function<void(int)>& f) {
    {
      std::scoped_lock lock(mutex_);
      job_ = &f;
      ++generation_;
      remaining_ = job_count_;
    }
    cv_.notify_all();
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker_loop(int id) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(id);
      {
        std::scoped_lock lock(mutex_);
        if (--remaining_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t job_count_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
};

/// Number of slabs for_each_slab cuts a range into on `pool`.
[[nodiscard]] inline int slab_count(const ThreadPool* pool) {
  return pool == nullptr || pool->size() <= 1 ? 1 : pool->size();
}

/// Splits the plane range [k0, k1) into slab_count(pool) contiguous slabs
/// and runs `fn(slab, lo, hi)` once per slab, slab s on worker s: a fixed
/// partition, so per-slab partials combine reproducibly and a fill pass
/// homes the same pages on the same workers every time.  A null or
/// one-worker pool runs fn(0, k0, k1) on the calling thread.  `fn` must
/// not throw (see ThreadPool::run).
template <class Fn>
void for_each_slab(ThreadPool* pool, int k0, int k1, Fn&& fn) {
  const int slabs = slab_count(pool);
  if (slabs == 1) {
    fn(0, k0, k1);
    return;
  }
  pool->run([&](int s) {
    fn(s, k0 + (k1 - k0) * s / slabs, k0 + (k1 - k0) * (s + 1) / slabs);
  });
}

}  // namespace tb::util
