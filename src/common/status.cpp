#include "src/common/status.hpp"

namespace tcevd {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::Ok:
      return "Ok";
    case ErrorCode::InvalidInput:
      return "InvalidInput";
    case ErrorCode::InvalidArgument:
      return "InvalidArgument";
    case ErrorCode::NoConvergence:
      return "NoConvergence";
    case ErrorCode::PrecisionLoss:
      return "PrecisionLoss";
    case ErrorCode::SingularPanel:
      return "SingularPanel";
    case ErrorCode::FaultInjected:
      return "FaultInjected";
    case ErrorCode::Internal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::to_string() const {
  if (ok()) return "Ok";
  std::string s = error_code_name(code_);
  s += ": ";
  s += message_;
  if (detail_ >= 0) {
    s += " [detail=";
    s += std::to_string(detail_);
    s += "]";
  }
  return s;
}

Status invalid_input_error(std::string message) {
  return Status(ErrorCode::InvalidInput, std::move(message));
}

Status invalid_argument_error(std::string message) {
  return Status(ErrorCode::InvalidArgument, std::move(message));
}

Status no_convergence_error(std::string message, std::int64_t detail) {
  return Status(ErrorCode::NoConvergence, std::move(message), detail);
}

Status precision_loss_error(std::string message) {
  return Status(ErrorCode::PrecisionLoss, std::move(message));
}

Status singular_panel_error(std::string message, std::int64_t detail) {
  return Status(ErrorCode::SingularPanel, std::move(message), detail);
}

Status fault_injected_error(std::string site) {
  return Status(ErrorCode::FaultInjected, "injected fault at site " + std::move(site));
}

bool is_recoverable(const Status& status) noexcept {
  switch (status.code()) {
    case ErrorCode::NoConvergence:
    case ErrorCode::PrecisionLoss:
    case ErrorCode::SingularPanel:
    case ErrorCode::FaultInjected:
      return true;
    default:
      return false;
  }
}

}  // namespace tcevd
