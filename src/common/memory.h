// Peak-memory accounting.
//
// The paper's Fig. 9 plots the runtime peak space cost of each SpGEMM
// method. We reproduce that by routing every large buffer an algorithm
// allocates through `tracked_vector`, whose allocator reports to a global
// MemoryTracker. The tracker keeps the current and peak footprint and can
// optionally record a (timestamp, bytes) trace for plotting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/status.h"
#include "common/timer.h"

namespace tsg {

/// Deterministic allocation-failure injection plan. All three triggers are
/// optional and combine with OR; a tripped trigger makes the tracked
/// allocation throw std::bad_alloc *before* any memory is requested, so the
/// tracker's accounting stays balanced and the failing call site sees
/// exactly what a real out-of-memory would produce. Tests use this to prove
/// every allocation site of a multiply surfaces as a clean
/// StatusCode::kAllocationFailed (see tests/test_fault_injection.cpp).
struct FaultPlan {
  /// Fail the Nth tracked allocation after the plan is armed (1-based);
  /// 0 disables this trigger. Deterministic under a fixed thread count.
  std::uint64_t fail_at = 0;
  /// Fail any allocation that would push the live tracked footprint above
  /// this many bytes; 0 disables this trigger.
  std::size_t byte_watermark = 0;
  /// Fail each allocation independently with this probability, driven by a
  /// counter-based hash of `seed` — same plan, same allocation index, same
  /// verdict, regardless of wall clock or prior runs. 0 disables.
  double fail_rate = 0.0;
  /// Stream seed for `fail_rate` decisions.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  bool enabled() const { return fail_at > 0 || byte_watermark > 0 || fail_rate > 0.0; }
};

/// One sample of the live tracked footprint.
struct MemorySample {
  double time_ms = 0.0;     ///< milliseconds since trace start
  std::int64_t bytes = 0;   ///< live tracked bytes after the event
};

/// Process-wide tracker of "algorithm workspace" bytes.
///
/// Thread-safe. `current()` and `peak()` are exact with respect to all
/// allocations routed through TrackedAllocator; allocations made with the
/// plain default allocator are invisible by design (we only want to account
/// for the buffers an SpGEMM method chooses to allocate, mirroring how the
/// paper instruments device-memory allocations).
class MemoryTracker {
 public:
  static MemoryTracker& instance();

  void add(std::size_t bytes);
  void sub(std::size_t bytes);

  /// Gate every tracked allocation: bumps the allocation counter and throws
  /// std::bad_alloc when the armed fault plan trips. Called by
  /// TrackedAllocator::allocate before the real allocation, so an injected
  /// failure requests no memory and unbalances no accounting.
  void on_allocate(std::size_t bytes);

  /// Arm / disarm allocation-failure injection. Arming resets the
  /// allocation counter so FaultPlan::fail_at counts from the next tracked
  /// allocation.
  void set_fault_plan(const FaultPlan& plan);
  void clear_fault_plan();
  bool fault_injection_armed() const { return fault_armed_.load(std::memory_order_acquire); }

  /// Tracked allocations observed since the plan was last armed (or since
  /// construction when no plan was ever armed).
  std::uint64_t tracked_allocs() const { return allocs_.load(std::memory_order_relaxed); }
  /// Allocations failed by the plan since it was last armed.
  std::uint64_t injected_faults() const { return faults_.load(std::memory_order_relaxed); }

  std::int64_t current() const { return current_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Cumulative bytes ever allocated through tracked buffers since the last
  /// reset (never decremented). The delta across an iteration of a repeated
  /// workload is the "allocation traffic" a pooled workspace eliminates.
  std::int64_t allocated_total() const {
    return allocated_total_.load(std::memory_order_relaxed);
  }

  /// Reset current/peak to zero and clear any recorded trace.
  /// Only valid between experiments (no tracked buffers alive), which the
  /// bench harness guarantees by scoping.
  void reset();

  /// Start/stop recording a (time, bytes) trace of every footprint change.
  void start_trace();
  std::vector<MemorySample> stop_trace();
  bool tracing() const { return tracing_.load(std::memory_order_acquire); }

 private:
  MemoryTracker() = default;
  void record(std::int64_t bytes_now) TSG_EXCLUDES(trace_mutex_);

  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::int64_t> allocated_total_{0};
  std::atomic<bool> tracing_{false};
  std::mutex trace_mutex_;
  std::vector<MemorySample> trace_ TSG_GUARDED_BY(trace_mutex_);
  Timer trace_timer_ TSG_GUARDED_BY(trace_mutex_);

  std::atomic<bool> fault_armed_{false};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::mutex fault_mutex_;  ///< guards plan_ against concurrent (re)arming
  FaultPlan plan_ TSG_GUARDED_BY(fault_mutex_);
};

/// Compile-time contracts on the accounting value types: samples are copied
/// into traces in bulk and must stay trivially copyable and padding-free
/// enough to reason about (the lint's static-analysis story leans on these
/// shapes never silently growing locks or vtables).
static_assert(std::is_trivially_copyable_v<MemorySample>,
              "MemorySample is memcpy'd by trace consumers");
static_assert(std::is_trivially_copyable_v<FaultPlan>,
              "FaultPlan is copied under the fault mutex on every gate check");

/// RAII fault-plan guard for tests: arms the plan on construction, disarms
/// on destruction (also on the exception path, so a failed EXPECT cannot
/// leave injection armed for the rest of the binary).
class FaultInjectionScope {
 public:
  explicit FaultInjectionScope(const FaultPlan& plan) {
    MemoryTracker::instance().set_fault_plan(plan);
  }
  ~FaultInjectionScope() { MemoryTracker::instance().clear_fault_plan(); }
  FaultInjectionScope(const FaultInjectionScope&) = delete;
  FaultInjectionScope& operator=(const FaultInjectionScope&) = delete;
};

/// RAII helper: resets the tracker on construction; exposes the peak
/// observed during its lifetime.
class PeakMemoryScope {
 public:
  PeakMemoryScope() { MemoryTracker::instance().reset(); }
  std::int64_t peak_bytes() const { return MemoryTracker::instance().peak(); }
  double peak_mb() const { return static_cast<double>(peak_bytes()) / (1024.0 * 1024.0); }
};

/// Standard-allocator shim that reports (de)allocations to MemoryTracker.
template <class T>
class TrackedAllocator {
 public:
  using value_type = T;

  TrackedAllocator() noexcept = default;
  template <class U>
  TrackedAllocator(const TrackedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    // Widened byte count with an explicit overflow check: a corrupted
    // element count must surface as bad_alloc, not wrap to a tiny request.
    std::size_t bytes = 0;
    if (!checked_mul(n, sizeof(T), bytes)) throw std::bad_alloc();
    MemoryTracker::instance().on_allocate(bytes);  // may inject a failure
    T* p = static_cast<T*>(::operator new(bytes));
    MemoryTracker::instance().add(bytes);
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept {
    MemoryTracker::instance().sub(n * sizeof(T));
    ::operator delete(p);
  }

  /// Default-initialises (the default-init allocator idiom): `resize(n)` and
  /// `tracked_vector<T>(n)` of a trivial type leave the new elements
  /// unwritten instead of zero-filling them, so a buffer that is overwritten
  /// right away is touched once, by its writer. A site that reads the zeros
  /// asks for them: `assign(n, 0)` or `resize(n, 0)`.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const TrackedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Vector whose storage is counted against the global MemoryTracker.
/// Every SpGEMM implementation in this library uses tracked_vector for its
/// output arrays and any global-memory-equivalent scratch space.
template <class T>
using tracked_vector = std::vector<T, TrackedAllocator<T>>;

/// Modeled device-memory capacity. The paper's GPUs hold 12/24 GB, and the
/// row-row baselines that allocate large global intermediate buffers
/// (bhSPARSE most of all) fail with out-of-memory on high-compression-rate
/// matrices. The host has no such hard limit, so methods that allocate a
/// single large workspace consult this budget and throw std::bad_alloc
/// beyond it — reproducing the paper's "0.00 (failed)" bars. SpgemmContext
/// enforces the same budget on the tiled pipeline itself: when the
/// estimated per-call footprint exceeds it, the multiply degrades to
/// chunked execution over C's tile rows instead of failing (see
/// spgemm_context.h), the graceful half of the Fig. 9 story.
/// Configured by TSG_DEVICE_MEM_MB (default 420 MB, which sits in the same
/// place relative to the scaled-down workloads as 24 GB sat relative to the
/// paper's full-size ones: the bulk of the suite fits, the highest-
/// compression-rate matrices do not). A programmatic override set through
/// set_device_memory_budget_bytes (e.g. from SpgemmContext::Config) wins
/// over the environment.
std::size_t device_memory_budget_bytes();

/// Override the modeled device-memory budget at runtime; 0 reverts to the
/// TSG_DEVICE_MEM_MB environment value. SpgemmContext::Config is the
/// intended caller — prefer configuring a context over touching this
/// process-wide knob directly.
void set_device_memory_budget_bytes(std::size_t bytes);

/// Throw std::bad_alloc if a workspace of `bytes` would exceed the modeled
/// device memory.
void check_workspace_budget(std::size_t bytes);

}  // namespace tsg
