#include "common/status.h"

namespace pbitree {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kRetryExhausted:
      return "RetryExhausted";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kSlackExhausted:
      return "SlackExhausted";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace pbitree
