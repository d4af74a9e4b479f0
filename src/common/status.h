// Structured error layer.
//
// The library core reports failures as values instead of scattering
// `throw std::runtime_error` / `assert` across the kernels: a `Status`
// carries an error code plus a human-readable message, `Expected<T>` is
// either a result or a non-ok Status, and `Error` is the exception
// `Expected::value()` and the throwing convenience wrappers raise so that
// exception-style callers keep working and still see the same code.
//
// Conventions:
//   * `try_*` entry points return `Expected<T>` and never throw for
//     anticipated failures (bad operands, budget, allocation).
//   * The classic entry points wrap them and throw `tsg::Error`.
//   * `std::bad_alloc` escaping a tracked allocation (real or injected by
//     the MemoryTracker fault plan) is converted to kAllocationFailed at
//     the context boundary, never leaked to callers of `try_*`.
#pragma once

#include <cstddef>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace tsg {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    ///< malformed operand or option value
  kDimensionMismatch,  ///< operand shapes do not compose
  kIndexOverflow,      ///< a size/offset would not fit index_t/offset_t
  kBudgetExceeded,     ///< modeled device budget too small, degradation off
  kAllocationFailed,   ///< tracked allocation threw (real or injected)
  kIoError,            ///< malformed or unreadable matrix file
  kQueueFull,          ///< bounded service queue at capacity (try_submit)
  kRejected,           ///< admission control refused the request
  kCancelled,          ///< request abandoned by shutdown before it ran
  kDeadlineExceeded,   ///< per-request deadline elapsed (queued or running)
};

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "Ok";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kDimensionMismatch: return "DimensionMismatch";
    case StatusCode::kIndexOverflow: return "IndexOverflow";
    case StatusCode::kBudgetExceeded: return "BudgetExceeded";
    case StatusCode::kAllocationFailed: return "AllocationFailed";
    case StatusCode::kIoError: return "IoError";
    case StatusCode::kQueueFull: return "QueueFull";
    case StatusCode::kRejected: return "Rejected";
    case StatusCode::kCancelled: return "Cancelled";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}

/// [[nodiscard]] on the class: *any* function returning a Status by value
/// warns when the result is dropped — the annotate-then-sweep contract the
/// `discarded-status` lint rule (tools/tsg_lint) re-checks lexically.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_argument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status dimension_mismatch(std::string m) {
    return {StatusCode::kDimensionMismatch, std::move(m)};
  }
  static Status index_overflow(std::string m) {
    return {StatusCode::kIndexOverflow, std::move(m)};
  }
  static Status budget_exceeded(std::string m) {
    return {StatusCode::kBudgetExceeded, std::move(m)};
  }
  static Status allocation_failed(std::string m) {
    return {StatusCode::kAllocationFailed, std::move(m)};
  }
  static Status io_error(std::string m) { return {StatusCode::kIoError, std::move(m)}; }
  static Status queue_full(std::string m) { return {StatusCode::kQueueFull, std::move(m)}; }
  static Status rejected(std::string m) { return {StatusCode::kRejected, std::move(m)}; }
  static Status cancelled(std::string m) { return {StatusCode::kCancelled, std::move(m)}; }
  static Status deadline_exceeded(std::string m) {
    return {StatusCode::kDeadlineExceeded, std::move(m)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Code: message" (or just "Ok"), the form the CLI prints on failure.
  std::string to_string() const {
    if (ok()) return "Ok";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// The exception thrown by the non-`try_` convenience API. Derives from
/// std::runtime_error so pre-Status catch sites (and the bench harness's
/// generic catch) keep working unchanged.
class Error : public std::runtime_error {
 public:
  explicit Error(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const { return status_; }
  StatusCode code() const { return status_.code(); }

 private:
  Status status_;
};

/// A value or a non-ok Status. Deliberately tiny: exactly the surface the
/// `try_*` entry points need, not a full std::expected polyfill.
template <class T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}                 // NOLINT(google-explicit-constructor)
  Expected(Status status) : state_(std::move(status)) {           // NOLINT(google-explicit-constructor)
    if (std::get<Status>(state_).ok()) {
      state_ = Status(StatusCode::kInvalidArgument,
                      "Expected constructed from an ok Status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  /// The error; an ok Status when a value is held.
  Status status() const { return ok() ? Status{} : std::get<Status>(state_); }

  /// Access the held value; throws tsg::Error when holding a Status (so
  /// `expected.value()` behaves exactly like the throwing API).
  T& value() & {
    if (!ok()) throw Error(std::get<Status>(state_));
    return std::get<T>(state_);
  }
  const T& value() const& {
    if (!ok()) throw Error(std::get<Status>(state_));
    return std::get<T>(state_);
  }
  T&& value() && {
    if (!ok()) throw Error(std::get<Status>(state_));
    return std::get<T>(std::move(state_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> state_;
};

/// How much operand checking the context performs at its API boundary.
enum class ValidationLevel {
  kOff,    ///< trust the caller (dimension compatibility is still checked)
  kCheap,  ///< O(rows + tiles) structural sanity: sizes, offsets, bounds
  kFull,   ///< full invariant walk (validate()) plus the NaN/Inf policy scan
};

/// What full validation does with non-finite values in the operands.
enum class NanPolicy {
  kAllow,   ///< NaN/Inf propagate through the multiply (IEEE semantics)
  kReject,  ///< full validation fails with InvalidArgument on any non-finite
};

/// Overflow-checked size arithmetic for byte-footprint computations: the
/// widening audit helpers. Return false (leaving `out` untouched) on wrap.
[[nodiscard]] inline bool checked_add(std::size_t a, std::size_t b, std::size_t& out) {
  if (a > static_cast<std::size_t>(-1) - b) return false;
  out = a + b;
  return true;
}

[[nodiscard]] inline bool checked_mul(std::size_t a, std::size_t b, std::size_t& out) {
  if (b != 0 && a > static_cast<std::size_t>(-1) / b) return false;
  out = a * b;
  return true;
}

/// Throwing convenience for allocation-size expressions: `a * b` as size_t,
/// or std::bad_alloc on wrap — the same failure the allocation itself would
/// produce, surfaced before a wrapped (tiny) size can be requested. This is
/// the form the `unchecked-size-mul` lint rule expects at element-count
/// multiplies feeding resize/reserve/assign.
[[nodiscard]] inline std::size_t checked_size_mul(std::size_t a, std::size_t b) {
  std::size_t out = 0;
  if (!checked_mul(a, b, out)) throw std::bad_alloc();
  return out;
}

}  // namespace tsg
