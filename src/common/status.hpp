// Structured error propagation for the EVD pipeline.
//
// The numerically fragile stages (fp16 splits, TSQR panels, iteration-capped
// tridiagonal solvers) report failure through `Status` / `StatusOr<T>`
// instead of aborting or returning an opaque bool, so drivers can degrade
// gracefully (solver fallback chain, per-block fp32 retry, panel fallback).
// TCEVD_CHECK remains for programmer-error contracts only (shape mismatches,
// out-of-range options); data-dependent failure is always a Status.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/common/check.hpp"

namespace tcevd {

enum class ErrorCode {
  Ok = 0,
  InvalidInput,    ///< NaN/Inf/asymmetric input, contract-level bad data
  InvalidArgument, ///< inconsistent caller options (e.g. big_block < bandwidth)
  NoConvergence,   ///< an iteration-capped solver exhausted its budget
  PrecisionLoss,   ///< low-precision path saturated/overflowed (fp16 range)
  SingularPanel,   ///< panel factorization hit a (near-)zero pivot
  FaultInjected,   ///< a registered fault-injection site fired (tests only)
  Internal,        ///< should-not-happen invariant violation
};

/// Stable short name ("NoConvergence", ...) for logs and messages.
const char* error_code_name(ErrorCode code) noexcept;

class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is success.
  Status() = default;
  Status(ErrorCode code, std::string message, std::int64_t detail = -1)
      : code_(code), detail_(detail), message_(std::move(message)) {}

  bool ok() const noexcept { return code_ == ErrorCode::Ok; }
  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }
  /// Failure-specific index (failing eigenvalue, pivot column, ...); -1 when
  /// not applicable.
  std::int64_t detail() const noexcept { return detail_; }

  /// "NoConvergence: steqr: eigenvalue 3 ... [detail=3]" (or "Ok").
  std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::Ok;
  std::int64_t detail_ = -1;
  std::string message_;
};

inline Status ok_status() { return Status(); }
Status invalid_input_error(std::string message);
Status invalid_argument_error(std::string message);
Status no_convergence_error(std::string message, std::int64_t detail = -1);
Status precision_loss_error(std::string message);
Status singular_panel_error(std::string message, std::int64_t detail = -1);
/// Status carried by a fired injection site; `site` is the registered name.
Status fault_injected_error(std::string site);

/// True for failures a driver may answer with a degradation path (solver
/// fallback, precision escalation, panel retry). InvalidInput,
/// InvalidArgument, and Internal are not recoverable: retrying with a
/// different algorithm cannot fix them.
bool is_recoverable(const Status& status) noexcept;

/// Value-or-error return. Converts implicitly from both Status (errors) and
/// T (success) so `return singular_panel_error(...)` and `return result`
/// both work.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {
    TCEVD_CHECK(!status_.ok(), "StatusOr constructed from an Ok status without a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const noexcept { return status_.ok(); }
  const Status& status() const noexcept { return status_; }

  T& value() & {
    TCEVD_CHECK(ok(), "StatusOr::value() called on an error result");
    return *value_;
  }
  const T& value() const& {
    TCEVD_CHECK(ok(), "StatusOr::value() called on an error result");
    return *value_;
  }
  T&& value() && {
    TCEVD_CHECK(ok(), "StatusOr::value() called on an error result");
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace tcevd

/// Propagate a failed Status out of the current function.
#define TCEVD_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::tcevd::Status tcevd_status_ = (expr);          \
    if (!tcevd_status_.ok()) return tcevd_status_;   \
  } while (0)
