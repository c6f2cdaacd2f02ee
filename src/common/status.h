// Status / Result error-handling primitives (Arrow/RocksDB idiom).
//
// All fallible APIs in gpujoin return Status or Result<T> instead of throwing
// exceptions. Use the GPUJOIN_RETURN_IF_ERROR / GPUJOIN_ASSIGN_OR_RETURN
// macros to propagate errors up the call stack.

#ifndef GPUJOIN_COMMON_STATUS_H_
#define GPUJOIN_COMMON_STATUS_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace gpujoin {

/// Broad category of an error. Kept small on purpose; the detail lives in the
/// human-readable message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfMemory = 2,
  kNotImplemented = 3,
  kInternal = 4,
  kResourceExhausted = 5,
  kCancelled = 6,
  kDeadlineExceeded = 7,
  /// Per-tenant admission backpressure: the submission exceeds the tenant's
  /// quota (plus its borrowing allowance) or the tenant's queue is full.
  kTenantOverQuota = 9,
  /// A transient fault: an injected kernel-execution fault, a watchdog
  /// timeout on a runaway kernel, or a backend quarantined by its circuit
  /// breaker. Retryable — unlike OOM (the work itself does not fit) the
  /// same work is expected to succeed on a later attempt or on the other
  /// backend. The message carries the fault kind and attempt count.
  kUnavailable = 10,
};

/// Returns a short stable name for a StatusCode ("OK", "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value. Cheap to copy in the OK case (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status TenantOverQuota(std::string msg) {
    return Status(StatusCode::kTenantOverQuota, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsTenantOverQuota() const {
    return code_ == StatusCode::kTenantOverQuota;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  /// True for the lifecycle-layer terminal statuses: the query was stopped
  /// on purpose (cancel request or deadline), not by a fault.
  bool IsLifecycleStop() const {
    return IsCancelled() || IsDeadlineExceeded();
  }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of type T or an error Status. Like arrow::Result.
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return some_t;` in Result-returning code.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status: allows `return Status::Invalid...(...);`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Precondition: ok(). Aborts otherwise (programming error).
  T& value() & {
    CheckOk();
    return *value_;
  }
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  T ValueOrDie() && {
    CheckOk();
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const {
    if (!value_.has_value()) {
      std::fprintf(stderr, "FATAL: Result accessed with error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_ = Status::OK();
};

namespace internal {
inline Status GenericToStatus(Status s) { return s; }
template <typename T>
Status GenericToStatus(const Result<T>& r) {
  return r.status();
}
}  // namespace internal

}  // namespace gpujoin

/// Propagates a non-OK Status (or the status of an error Result) to the caller.
#define GPUJOIN_RETURN_IF_ERROR(expr)                                \
  do {                                                               \
    const ::gpujoin::Status _gpujoin_st =                            \
        ::gpujoin::internal::GenericToStatus((expr));                \
    if (!_gpujoin_st.ok()) return _gpujoin_st;                       \
  } while (0)

#define GPUJOIN_CONCAT_IMPL(x, y) x##y
#define GPUJOIN_CONCAT(x, y) GPUJOIN_CONCAT_IMPL(x, y)

/// GPUJOIN_ASSIGN_OR_RETURN(lhs, rexpr): evaluates rexpr (a Result<T>); on
/// error returns its status, otherwise move-assigns the value into lhs.
#define GPUJOIN_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                  \
  if (!result_name.ok()) return result_name.status();          \
  lhs = std::move(result_name).value();

#define GPUJOIN_ASSIGN_OR_RETURN(lhs, rexpr) \
  GPUJOIN_ASSIGN_OR_RETURN_IMPL(             \
      GPUJOIN_CONCAT(_gpujoin_result_, __LINE__), lhs, rexpr)

/// Aborts the process when `expr` yields a non-OK status. For use in main()
/// functions, tests, and examples where errors are programming errors.
#define GPUJOIN_CHECK_OK(expr)                                       \
  do {                                                               \
    const ::gpujoin::Status _gpujoin_st =                            \
        ::gpujoin::internal::GenericToStatus((expr));                \
    if (!_gpujoin_st.ok()) {                                         \
      std::fprintf(stderr, "FATAL at %s:%d: %s\n", __FILE__,         \
                   __LINE__, _gpujoin_st.ToString().c_str());        \
      std::abort();                                                  \
    }                                                                \
  } while (0)

#endif  // GPUJOIN_COMMON_STATUS_H_
