#pragma once

#include <memory>
#include <string>
#include <utility>

/// \file status.h
/// Arrow/RocksDB-style error propagation. Library code never throws across
/// module boundaries; fallible functions return `Status` or `Result<T>`.

namespace skyrise {

enum class StatusCode : char {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,   ///< Quota exceeded / throttled (e.g., S3 SlowDown).
  kDeadlineExceeded,    ///< Request timed out.
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kIoError,
  kCancelled,
};

/// Returned by fallible operations. Cheap to pass around: the OK state is a
/// null pointer, errors carry a heap-allocated code + message.
///
/// Marked [[nodiscard]] so dropping a fallible call's Status on the floor is a
/// compile error under -Werror=unused-result (pinned for every call shape by
/// tests/tools/fixtures/unused_result.cc).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message);

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  [[nodiscard]] static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  [[nodiscard]] static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const;

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }

  /// True for transient failures that a retrying client should re-attempt.
  bool IsRetriable() const {
    return IsResourceExhausted() || IsDeadlineExceeded() ||
           code() == StatusCode::kIoError;
  }

  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const State> state_;  ///< Null when OK.
};

const char* StatusCodeToString(StatusCode code);

}  // namespace skyrise
