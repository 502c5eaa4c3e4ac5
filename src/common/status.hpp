// Error handling for the SDR SDK: every fallible call returns a Status, a
// code plus a message that carries the call site's context.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace sdr {

enum class StatusCode : std::int32_t {
  kOk = 0,
  kInvalidArgument = -1,
  kResourceExhausted = -2,   // e.g. message table full, CQ overrun
  kNotConnected = -3,        // QP used before qp_connect()
  kNotReady = -4,            // poll: completion not available yet
  kOutOfRange = -5,          // offset/length outside registered buffer
  kAlreadyExists = -6,
  kNotFound = -7,
  kFailedPrecondition = -8,  // API misuse (e.g. continue after end)
  kAborted = -9,             // message dropped / receiver gave up
  kUnimplemented = -10,
  kInternal = -11,
};

std::string_view to_string(StatusCode code);

class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status{}; }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return is_ok(); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  StatusCode code_{StatusCode::kOk};
  std::string message_;
};

inline std::string_view to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kNotConnected: return "NOT_CONNECTED";
    case StatusCode::kNotReady: return "NOT_READY";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  os << to_string(s.code());
  if (!s.message().empty()) os << ": " << s.message();
  return os;
}

}  // namespace sdr
