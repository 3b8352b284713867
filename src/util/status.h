#ifndef HETPS_UTIL_STATUS_H_
#define HETPS_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace hetps {

/// Error category for a failed operation. Mirrors the RocksDB/Arrow idiom of
/// returning a Status instead of throwing across API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  kAborted,
  kInternal,
  kIOError,
  kNotSupported,
  /// A call exceeded its deadline (retryable; see net/message_bus.h).
  /// Appended last so serialized status codes stay stable.
  kDeadlineExceeded,
};

/// Returns a short human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A cheap value type carrying success or an error code plus message.
///
/// Functions that can fail return `Status` (or `Result<T>`); callers must
/// check `ok()` before relying on side effects. The zero-argument
/// constructor yields OK so `Status s; ... return s;` composes naturally.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

/// Prints "Result::value() on error: <status>" to stderr and aborts.
[[noreturn]] void DieOnErrorResult(const Status& status);

/// Either a value of type T or an error Status. Accessing the value when
/// `!ok()` is a programming error: it aborts with the status message
/// rather than reading an empty optional. T need not be
/// default-constructible.
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  /* implicit */ Result(Status status)  // NOLINT
      : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *Checked(); }
  T& value() & { return *Checked(); }
  T&& value() && { return std::move(*Checked()); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  const std::optional<T>& Checked() const {
    if (!status_.ok()) DieOnErrorResult(status_);
    return value_;
  }
  std::optional<T>& Checked() {
    if (!status_.ok()) DieOnErrorResult(status_);
    return value_;
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace hetps

/// Propagates a non-OK Status to the caller. Usage:
///   HETPS_RETURN_NOT_OK(DoThing());
#define HETPS_RETURN_NOT_OK(expr)                 \
  do {                                            \
    ::hetps::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                    \
  } while (0)

#endif  // HETPS_UTIL_STATUS_H_
