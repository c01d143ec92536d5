// Resumable EVD solve: the full pipeline of evd::solve broken at stage
// boundaries so a scheduler can interleave many solves.
//
// A SolveJob owns one problem's in-flight state (workspace scope, partial
// factorizations, verification attempt bookkeeping) and advances one pipeline
// stage per step() call: reduction (SBR / sytrd) -> bulge chasing ->
// tridiagonal solver -> verification. A job with a selected index range
// shares the reduction and bulge stages; its solver stage runs bisection and
// inverse iteration for that range only and ends the job (no verification).
// The synchronous evd::solve and evd::solve_selected are loops of step()
// calls on the caller's thread; the streaming EvdService runs the same steps
// on pool workers, picking which job advances next at every boundary.
// Because both drivers execute the identical step sequence on one Context,
// the service's results are bitwise-identical to sequential evd::solve by
// construction.
//
// Threading: a job is not thread-safe, but it has no thread affinity —
// successive steps may run on different threads as long as calls are
// serialized (each step opens and closes its own recovery::Scope, so the
// thread-local recovery chain never spans a suspension point).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/blas/abft.hpp"
#include "src/common/context.hpp"
#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/common/timer.hpp"
#include "src/common/workspace.hpp"
#include "src/evd/evd.hpp"
#include "src/sbr/sbr.hpp"

namespace tcevd::evd {

/// Selected eigenvalue indices [il, iu]: 0-based, inclusive, ascending order.
struct IndexRange {
  index_t il = 0;
  index_t iu = 0;
};

class SolveJob {
 public:
  enum class Stage { Reduction, Bulge, Solver, Finish, Done };

  /// `a` and `ctx` are borrowed and must outlive the job; the context must
  /// not be used by anything else until the job is done (it holds a live
  /// workspace scope — and, while escalated, an engine override — between
  /// steps). With `range` set, the solver stage computes eigenvalues
  /// range->il..range->iu by Sturm bisection and, when opt.vectors, their
  /// eigenvectors by inverse iteration back-transformed through Q; the range
  /// must satisfy 0 <= il <= iu < n (callers validate request data first).
  SolveJob(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt,
           std::optional<IndexRange> range = std::nullopt);
  ~SolveJob();
  SolveJob(const SolveJob&) = delete;
  SolveJob& operator=(const SolveJob&) = delete;

  Stage stage() const noexcept { return stage_; }
  bool done() const noexcept { return stage_ == Stage::Done; }
  /// Stable stage label ("reduction", "bulge", "solver", "finish") for
  /// telemetry keys and progress displays.
  static const char* stage_name(Stage stage) noexcept;

  /// Advance exactly one pipeline stage. No-op once done(). May throw only
  /// what the underlying kernels throw (std::bad_alloc); schedulers catch.
  void step();

  /// Valid once done(): move the final result (or failure Status) out.
  StatusOr<EvdResult> take();

  /// Recovery events a failed solve would have propagated to the caller's
  /// enclosing recovery::Scope on the synchronous path (where the scope chain
  /// spans the whole solve). Empty on success. The sync wrapper re-notes
  /// them; the service intentionally drops them, matching what solve_many
  /// has always reported for failed problems.
  const RecoveryLog& dropped_events() const noexcept { return dropped_events_; }

 private:
  void step_reduction();
  void step_bulge();
  void step_solver();
  Status solve_tridiagonal();
  Status solve_range();
  void step_finish();
  void fail_attempt(const Status& status);
  void escalate_engine(std::unique_ptr<tc::GemmEngine> next);
  void complete_success();
  void release_attempt_state();

  ConstMatrixView<float> a_;
  Context& ctx_;
  EvdOptions opt_;
  std::optional<IndexRange> range_;
  std::optional<blas::abft::AbftScope> abft_;  // spans every attempt, like solve()

  // Verification attempt loop (mirrors the old solve_verified locals).
  bool verified_ = false;
  int max_attempts_ = 1;
  int attempts_ = 0;
  int escalations_ = 0;
  // `escalated_` is declared before `engine_scope_` so the override scope
  // (which borrows the engine) is destroyed first.
  std::unique_ptr<tc::GemmEngine> escalated_;
  std::optional<EngineOverrideScope> engine_scope_;
  RecoveryLog accumulated_;  ///< successful attempts' recovery, attempt order
  RecoveryLog pending_;      ///< breach/escalation notes not yet claimed
  RecoveryLog attempt_log_;  ///< the in-flight attempt's events so far

  // Per-attempt pipeline state.
  std::optional<Workspace::Scope> attempt_scope_;
  Timer attempt_timer_;
  EvdResult result_;
  std::vector<float> d_, e_;
  Matrix<float> q_;
  std::optional<sbr::SbrResult> sres_;

  Stage stage_ = Stage::Reduction;
  std::optional<Status> error_;
  std::optional<EvdResult> final_;
  RecoveryLog dropped_events_;
};

}  // namespace tcevd::evd
