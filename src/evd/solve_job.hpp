// Resumable EVD solve: the full pipeline of evd::solve broken at stage
// boundaries so a scheduler can interleave many solves.
//
// A SolveJob owns one problem's in-flight state (workspace scope, partial
// factorizations, verification attempt bookkeeping, the recovery log) and
// advances one pipeline stage per step() call: reduction (SBR / sytrd) ->
// bulge chasing -> tridiagonal solver -> verification. A job with a selected
// index range shares the reduction and bulge stages; its solver stage runs
// bisection and inverse iteration for that range only and ends the job (no
// verification).
// The synchronous evd::solve and evd::solve_selected are loops of step()
// calls on the caller's thread; the streaming EvdService runs the same steps
// on pool workers, picking which job advances next at every boundary.
// Because both drivers execute the identical step sequence on one Context,
// the service's results are bitwise-identical to sequential evd::solve by
// construction.
//
// Threading: a job is not thread-safe, but it has no thread affinity —
// successive steps may run on different threads as long as calls are
// serialized (each step opens and closes its own recovery::Scope and, for an
// ABFT request, its own blas::abft::AbftScope, so neither thread-local state
// spans a suspension point).
#pragma once

#include <memory>
#include <optional>
#include <vector>

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

/// The request checks evd::solve, evd::solve_selected and EvdService::submit
/// make before any work: InvalidArgument (message prefixed with `who`) when
/// `a` is not square, opt.bandwidth < 1, or `range` is not within [0, n).
/// These are caller data, not programmer contracts, so a bad request is
/// refused with a Status instead of aborting the process.
Status validate_request(ConstMatrixView<float> a, const EvdOptions& opt,
                        std::optional<IndexRange> range, const char* who);

class SolveJob {
 public:
  enum class Stage { Reduction, Bulge, Solver, Finish, Done };

  /// `a` and `ctx` are borrowed and must outlive the job; the context must
  /// not be used by anything else until the job is done (it holds a live
  /// workspace scope — and, while escalated, an engine override — between
  /// steps). With `range` set, the solver stage computes eigenvalues
  /// range->il..range->iu by Sturm bisection and, when opt.vectors, their
  /// eigenvectors by inverse iteration back-transformed through Q. The
  /// request must pass validate_request (checked; callers validate first).
  SolveJob(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt,
           std::optional<IndexRange> range = std::nullopt);
  ~SolveJob();
  SolveJob(const SolveJob&) = delete;
  SolveJob& operator=(const SolveJob&) = delete;

  Stage stage() const noexcept { return stage_; }
  bool done() const noexcept { return stage_ == Stage::Done; }

  /// Advance exactly one pipeline stage. No-op once done(). May throw only
  /// what the underlying kernels throw (std::bad_alloc); schedulers catch.
  void step();

  /// Valid once done(): move the final result (or failure Status) out.
  StatusOr<EvdResult> take();

  /// A failed solve's recovery log: every event of every attempt, in the
  /// order it happened, the escalation notes included. Empty on success,
  /// where the log is EvdResult::recovery. evd::solve re-notes it into the
  /// caller's recovery::Scope; EvdService returns it in
  /// RequestResult::recovery. Either way it has already reached the
  /// context's telemetry, once.
  const RecoveryLog& dropped_events() const noexcept { return log_; }

 private:
  void step_reduction();
  void step_bulge();
  void step_solver();
  Status solve_tridiagonal();
  Status solve_range();
  void step_finish();
  /// The one way an attempt ends without an accepted result: a stage failed
  /// with `failure`, or (`breached`) verification breached and `failure` is
  /// the PrecisionLoss to return. Re-solves on the next engine of the chain
  /// when the policy allows, else ends the job with `failure`.
  void escalate_or_fail(Status failure, bool breached);
  void complete_success();
  void release_attempt_state();

  ConstMatrixView<float> a_;
  Context& ctx_;
  EvdOptions opt_;
  std::optional<IndexRange> range_;

  // Verification attempt loop. It ends when the escalation chain
  // Tc -> EcTc -> Fp32 does, so a solve makes at most three attempts.
  bool verified_ = false;
  int attempts_ = 0;
  int escalations_ = 0;
  // `escalated_` is declared before `engine_scope_` so the override scope
  // (which borrows the engine) is destroyed first.
  std::unique_ptr<tc::GemmEngine> escalated_;
  std::optional<EngineOverrideScope> engine_scope_;
  /// Every recovery event of the solve so far, in the order it happened,
  /// across attempts.
  RecoveryLog log_;

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
};

}  // namespace tcevd::evd
