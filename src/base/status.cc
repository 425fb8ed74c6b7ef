#include "src/base/status.h"

namespace geattack {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kError:
      return "error";
    case StatusCode::kTimedOut:
      return "timed_out";
    case StatusCode::kSkipped:
      return "skipped";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kDataLoss:
      return "data_loss";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kNotFound:
      return "not_found";
  }
  return "unknown";
}

bool IsRetryableStatus(StatusCode code) {
  return code == StatusCode::kError || code == StatusCode::kTimedOut;
}

bool DeadlineFits(double ms, std::chrono::steady_clock::time_point now) {
  if (!std::isfinite(ms)) return false;
  if (ms <= 0.0) return true;
  const std::chrono::duration<double, std::milli> room =
      std::chrono::steady_clock::time_point::max() - now;
  return ms < room.count() - 1000.0;
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string s = StatusCodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace geattack
