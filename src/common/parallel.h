// Shared-memory parallel primitives.
//
// The paper assigns one CUDA warp per sparse tile; on the CPU the analogous
// unit is one loop iteration of a dynamically scheduled parallel-for. All
// parallelism in the library is expressed through these helpers so the
// thread count can be controlled centrally (the Fig. 6 scalability harness
// sweeps it) — and so the execution backend can be swapped wholesale:
//
//   * OpenMP (default): `#pragma omp` loops, worker identity from the OMP
//     runtime.
//   * std::thread (-DTSG_PARALLEL_STD=ON, forced by -DTSG_TSAN=ON): the
//     same dynamic-chunk scheduling over std::thread workers and a shared
//     atomic counter. Every synchronisation edge is a pthread/atomic
//     primitive ThreadSanitizer understands — gcc's libgomp synchronises
//     its barriers through futexes TSan cannot see, which makes every
//     cross-region access look like a race. The race tests under `ctest -L
//     analysis` run on this backend.
//
// Code that needs a per-thread scratch slot indexes it by worker_rank(),
// bounded by max_workers() — never by omp_get_thread_num() directly, so
// both backends satisfy the same contract: ranks are dense in
// [0, max_workers()) and stable for one worker for the whole region.
#pragma once

#include <cstddef>
#include <exception>
#include <mutex>
#include <type_traits>
#include <utility>

#ifndef TSG_PARALLEL_STD
#define TSG_PARALLEL_STD 0
#endif

#if TSG_PARALLEL_STD
#include <atomic>
#include <thread>
#include <vector>
#else
#include <omp.h>
#endif

#include "obs/metrics.h"

namespace tsg {

/// Number of threads a parallel region will use.
int num_threads();

/// Set the number of threads used by subsequent parallel regions.
/// `n <= 0` restores the backend default (hardware concurrency).
void set_num_threads(int n);

/// Upper bound (exclusive) on worker_rank() in the next parallel region —
/// the size any rank-indexed scratch array must have.
int max_workers();

#if TSG_PARALLEL_STD

namespace detail {
/// Rank of the calling thread inside a run_workers region; 0 outside.
inline thread_local int t_worker_rank = 0;
/// True while the calling thread executes inside a parallel region —
/// nested regions run inline on the caller (mirrors OpenMP's default
/// non-nested behaviour, and keeps rank-indexed scratch race-free).
inline thread_local bool t_in_parallel = false;
}  // namespace detail

/// Dense id of the calling worker in [0, max_workers()); 0 on the main
/// thread outside any parallel region.
inline int worker_rank() { return detail::t_worker_rank; }

#else

/// Dense id of the calling worker in [0, max_workers()); 0 on the main
/// thread outside any parallel region.
inline int worker_rank() { return omp_get_thread_num(); }

#endif

/// RAII guard that sets the thread count and restores the previous value.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(num_threads()) { set_num_threads(n); }
  ~ThreadCountGuard() { set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

namespace detail {

/// Captures the first exception thrown inside a parallel region and
/// rethrows it on the calling thread — exceptions must not escape an
/// OpenMP construct (and must not call std::terminate via a throwing
/// std::thread body).
class ExceptionTrap {
 public:
  template <class F>
  void run(F&& f) noexcept {
    try {
      f();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!eptr_) eptr_ = std::current_exception();
    }
  }
  void rethrow_if_any() {
    if (eptr_) std::rethrow_exception(eptr_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr eptr_;
};

#if TSG_PARALLEL_STD

/// Chunk dispatcher of the std::thread backend: min(max_workers(), nchunks)
/// workers pull chunk indices from a shared atomic counter (the moral
/// equivalent of `schedule(dynamic)`). `chunk_fn` must not throw — wrap the
/// user body in an ExceptionTrap before handing it here.
template <class ChunkFn>
void run_workers(std::ptrdiff_t nchunks, ChunkFn&& chunk_fn) {
  if (nchunks <= 0) return;
  if (t_in_parallel) {  // nested region: run inline on the caller's rank
    for (std::ptrdiff_t c = 0; c < nchunks; ++c) chunk_fn(c);
    return;
  }
  int nw = max_workers();
  if (static_cast<std::ptrdiff_t>(nw) > nchunks) nw = static_cast<int>(nchunks);
  if (nw < 1) nw = 1;
  std::atomic<std::ptrdiff_t> next{0};
  auto worker = [&](int rank) {
    t_worker_rank = rank;
    t_in_parallel = true;
    for (;;) {
      const std::ptrdiff_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      chunk_fn(c);
    }
    t_in_parallel = false;
    t_worker_rank = 0;
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nw - 1));
  for (int rank = 1; rank < nw; ++rank) pool.emplace_back(worker, rank);
  worker(0);
  for (std::thread& t : pool) t.join();
}

#endif  // TSG_PARALLEL_STD

}  // namespace detail

/// Dynamically scheduled parallel loop over [begin, end).
/// `body(i)` is invoked exactly once for every i; iterations are handed to
/// threads dynamically, 64 at a time under OpenMP, which keeps load
/// balance for skewed work (the whole point of tiling).
template <class Index, class Body>
void parallel_for(Index begin, Index end, Body&& body) {
  if (begin >= end) return;
  detail::ExceptionTrap trap;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(end - begin);
  // Always-on call/task counters; per-thread tallies (for the imbalance
  // histogram) only materialise under the metrics-detail gate.
  obs::ParallelForScope obs_scope(static_cast<std::size_t>(n), max_workers());
#if TSG_PARALLEL_STD
  detail::run_workers(n, [&](std::ptrdiff_t i) {
    trap.run([&] {
      obs_scope.count(worker_rank(), 1);
      body(static_cast<Index>(begin + i));
    });
  });
#else
#pragma omp parallel for schedule(dynamic, 64)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    trap.run([&] {
      obs_scope.count(worker_rank(), 1);
      body(static_cast<Index>(begin + i));
    });
  }
#endif
  trap.rethrow_if_any();
}

/// Statically scheduled variant for uniform per-iteration cost.
template <class Index, class Body>
void parallel_for_static(Index begin, Index end, Body&& body) {
  if (begin >= end) return;
  detail::ExceptionTrap trap;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(end - begin);
#if TSG_PARALLEL_STD
  const std::ptrdiff_t blocks =
      n < static_cast<std::ptrdiff_t>(max_workers()) ? n : max_workers();
  detail::run_workers(blocks, [&](std::ptrdiff_t b) {
    const std::ptrdiff_t lo = b * n / blocks;
    const std::ptrdiff_t hi = (b + 1) * n / blocks;
    for (std::ptrdiff_t i = lo; i < hi; ++i) {
      trap.run([&] { body(static_cast<Index>(begin + i)); });
    }
  });
#else
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    trap.run([&] { body(static_cast<Index>(begin + i)); });
  }
#endif
  trap.rethrow_if_any();
}

/// Parallel reduction over [begin, end): sums `body(i)` with `+`.
template <class T, class Index, class Body>
T parallel_reduce(Index begin, Index end, T init, Body&& body) {
  detail::ExceptionTrap trap;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(end - begin);
#if TSG_PARALLEL_STD
  if (n <= 0) return init;
  const std::ptrdiff_t blocks =
      n < static_cast<std::ptrdiff_t>(max_workers()) ? n : max_workers();
  std::vector<T> locals(static_cast<std::size_t>(blocks), T{});
  detail::run_workers(blocks, [&](std::ptrdiff_t b) {
    const std::ptrdiff_t lo = b * n / blocks;
    const std::ptrdiff_t hi = (b + 1) * n / blocks;
    T local{};
    for (std::ptrdiff_t i = lo; i < hi; ++i) {
      trap.run([&] { local = local + body(static_cast<Index>(begin + i)); });
    }
    locals[static_cast<std::size_t>(b)] = local;
  });
  trap.rethrow_if_any();
  T total = init;
  for (const T& local : locals) total = total + local;
  return total;
#else
  T total = init;
#pragma omp parallel
  {
    T local{};
#pragma omp for schedule(static) nowait
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      trap.run([&] { local = local + body(static_cast<Index>(begin + i)); });
    }
#pragma omp critical(tsg_parallel_reduce)
    total = total + local;
  }
  trap.rethrow_if_any();
  return total;
#endif
}

}  // namespace tsg
