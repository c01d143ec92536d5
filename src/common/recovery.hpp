// Recovery logging: a record of every graceful-degradation action the
// pipeline took while producing a result.
//
// Degradations fire deep inside the stack (an fp32 retry inside the GEMM
// engine, a panel fallback inside SBR) where threading a log through every
// signature would be invasive. Instead a driver opens a thread-local
// `recovery::Scope`; any `recovery::note()` below it on the call stack is
// collected and surfaced to the caller (e.g. `EvdResult::recovery`). With no
// scope active, note() is a no-op, so library code can note unconditionally.
#pragma once

#include <string>
#include <vector>

namespace tcevd {

/// One degradation action: where it happened and what was done instead.
struct RecoveryEvent {
  std::string site;    ///< e.g. "evd.solver", "sbr.panel", "ec_tcgemm"
  std::string action;  ///< e.g. "stedc failed (NoConvergence: ...); fell back to steqr"
};

using RecoveryLog = std::vector<RecoveryEvent>;

namespace recovery {

/// RAII collector; the innermost live Scope on this thread receives notes.
/// On destruction, events not claimed with take() propagate to the enclosing
/// scope so an outer driver still sees nested recoveries.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  RecoveryLog take() noexcept;
  const RecoveryLog& events() const noexcept { return events_; }

 private:
  friend void note(std::string site, std::string action);
  RecoveryLog events_;
  Scope* parent_ = nullptr;
};

/// Record a degradation (no-op when no Scope is active on this thread).
void note(std::string site, std::string action);

}  // namespace recovery
}  // namespace tcevd
