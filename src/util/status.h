// Status / StatusOr: exception-free error handling, in the style of
// Abseil/Arrow/RocksDB. All fallible public APIs in this library return
// Status or StatusOr<T>.
#ifndef PDTSTORE_UTIL_STATUS_H_
#define PDTSTORE_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace pdtstore {

/// Error classification for Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kConflict,       ///< write-write transaction conflict (Serialize failure)
  kIOError,        ///< simulated or real I/O failure (WAL, chunk store)
  kCorruption,     ///< internal invariant violated in persistent state
  kInternal,
  kResourceExhausted,  ///< memory budget / admission queue / pool cap hit
};

/// Human-readable name of a StatusCode (e.g. "Conflict").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result, carrying a code and a message on failure.
///
/// The library never throws; every operation that can fail returns Status
/// (or StatusOr<T> when it also produces a value).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
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

/// A Status plus a value of type T on success.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: success.
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  /// Implicit from non-OK status: failure. Asserts the status is not OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status to the caller.
#define PDT_RETURN_NOT_OK(expr)            \
  do {                                     \
    ::pdtstore::Status _st = (expr);       \
    if (!_st.ok()) return _st;             \
  } while (0)

/// Evaluates a StatusOr expression, propagating failure, else binding
/// the value to `lhs`.
#define PDT_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                              \
  if (!var.ok()) return var.status();             \
  lhs = std::move(var).value();

#define PDT_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define PDT_ASSIGN_OR_RETURN_NAME(x, y) PDT_ASSIGN_OR_RETURN_CONCAT(x, y)
#define PDT_ASSIGN_OR_RETURN(lhs, expr) \
  PDT_ASSIGN_OR_RETURN_IMPL(            \
      PDT_ASSIGN_OR_RETURN_NAME(_statusor_, __LINE__), lhs, expr)

}  // namespace pdtstore

#endif  // PDTSTORE_UTIL_STATUS_H_
