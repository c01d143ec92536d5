#include "src/evd/evd.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/evd/partial.hpp"
#include "src/evd/solve_job.hpp"

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/timer.hpp"
#include "src/lapack/stein.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/lapack/tridiag.hpp"

namespace tcevd::evd {

namespace {

using blas::Trans;

Status run_tri_solver(Workspace& ws, TriSolver solver, std::vector<float>& d,
                      std::vector<float>& e, MatrixView<float>* z) {
  switch (solver) {
    case TriSolver::Ql:
      return lapack::steqr<float>(d, e, z);
    case TriSolver::DivideConquer:
      return lapack::stedc<float>(d, e, z);
    case TriSolver::Bisection: {
      const index_t n = static_cast<index_t>(d.size());
      auto eigs = lapack::stebz<float>(d, e, 0, n - 1);
      if (z != nullptr) {
        // Vectors via inverse iteration on the bisection values, then fold
        // into the accumulated orthogonal factor: z := z * S.
        auto scope = ws.scope();
        auto s = scope.matrix<float>(n, n);
        TCEVD_RETURN_IF_ERROR(lapack::stein<float>(d, e, eigs, s));
        auto tmp = scope.matrix<float>(z->rows(), n);
        blas::gemm<float>(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(*z),
                          ConstMatrixView<float>(s), 0.0f, tmp);
        copy_matrix<float>(ConstMatrixView<float>(tmp), *z);
      }
      std::copy(eigs.begin(), eigs.end(), d.begin());
      return ok_status();
    }
  }
  return Status(ErrorCode::Internal, "unknown tridiagonal solver");
}

Status screen_input(ConstMatrixView<float> a, float asym_tol) {
  const index_t n = a.rows();
  float amax = 0.0f;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const float v = a(i, j);
      if (!std::isfinite(v))
        return invalid_input_error("evd::solve: input matrix has a non-finite entry");
      amax = std::max(amax, std::abs(v));
    }
  const float tol = asym_tol * std::max(amax, 1e-30f);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i)
      if (std::abs(a(i, j) - a(j, i)) > tol)
        return invalid_input_error("evd::solve: input matrix is not symmetric");
  return ok_status();
}

/// Splice `tail` onto the end of `log`.
void append_log(RecoveryLog& log, RecoveryLog&& tail) {
  if (log.empty()) {
    log = std::move(tail);
    return;
  }
  log.insert(log.end(), std::make_move_iterator(tail.begin()),
             std::make_move_iterator(tail.end()));
}

/// Next engine in the accuracy-ascending escalation chain
/// Tc -> EcTc -> Fp32, or nullptr when `kind` is already the most accurate.
/// `prec` carries the Tc operand precision across the Tc -> EcTc step so an
/// escalated tc-tf32 solve corrects tf32 numerics, not fp16.
std::unique_ptr<tc::GemmEngine> next_escalation_engine(tc::EngineKind kind,
                                                       tc::TcPrecision prec) {
  switch (kind) {
    case tc::EngineKind::Tc: return std::make_unique<tc::EcTcEngine>(prec);
    case tc::EngineKind::EcTc: return std::make_unique<tc::Fp32Engine>();
    case tc::EngineKind::Fp32: return nullptr;  // already the terminal engine
  }
  return nullptr;
}

/// Synchronous driver: step `job` to completion on the calling thread.
StatusOr<EvdResult> run_to_completion(SolveJob& job) {
  while (!job.done()) job.step();
  StatusOr<EvdResult> out = job.take();
  if (!out.ok()) {
    // On the synchronous path a failed attempt's unclaimed recovery events
    // historically propagated to the caller's enclosing recovery::Scope when
    // the per-solve scope unwound; the job parks them instead, so re-note.
    for (const RecoveryEvent& ev : job.dropped_events()) recovery::note(ev.site, ev.action);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SolveJob: the solve pipeline as a resumable stage machine. Every stage body
// is a verbatim port of the old monolithic solve_once / solve_verified code;
// the only change is that control returns to the caller between stages, with
// the in-flight state parked in members instead of stack locals. Each step
// opens its own recovery::Scope and drains it into attempt_log_ before
// returning, so the thread-local scope chain never spans a suspension point
// (steps of one job may run on different scheduler threads).
// ---------------------------------------------------------------------------

Status validate_request(ConstMatrixView<float> a, const EvdOptions& opt,
                        std::optional<IndexRange> range, const char* who) {
  const index_t n = a.rows();
  if (a.cols() != n)
    return invalid_argument_error(std::string(who) + ": matrix is " + std::to_string(n) +
                                  " x " + std::to_string(a.cols()) +
                                  ", not square symmetric");
  if (opt.bandwidth < 1)
    return invalid_argument_error(std::string(who) + ": bandwidth " +
                                  std::to_string(opt.bandwidth) + " is below 1");
  if (range && !(0 <= range->il && range->il <= range->iu && range->iu < n))
    return invalid_argument_error(
        std::string(who) + ": selected index range [il, iu] = [" +
        std::to_string(range->il) + ", " + std::to_string(range->iu) +
        "] invalid for n = " + std::to_string(n));
  return ok_status();
}

SolveJob::SolveJob(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt,
                   std::optional<IndexRange> range)
    : a_(a), ctx_(ctx), opt_(opt), range_(range) {
  TCEVD_CHECK(validate_request(a_, opt_, range_, "SolveJob").ok(),
              "SolveJob: invalid request (callers check validate_request first)");
  // Trivial sizes never reach the pipeline (SBR needs bandwidth in [1, n)),
  // and never verify — matching the old solve() routing for n <= 1. Nor do
  // selected ranges: the estimators need the full spectrum.
  verified_ = opt_.verify != verify::Policy::Off && a_.rows() > 1 && !range_;
}

SolveJob::~SolveJob() = default;

const char* SolveJob::stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::Reduction: return "reduction";
    case Stage::Bulge: return "bulge";
    case Stage::Solver: return "solver";
    case Stage::Finish: return "finish";
    case Stage::Done: return "done";
  }
  return "?";
}

void SolveJob::step() {
  // ABFT covers this request's GEMMs, stage by stage, escalations included;
  // the calling thread passes the choice on to the pool workers running its
  // tiles, and other requests' GEMMs stay unchecked.
  std::optional<blas::abft::AbftScope> abft;
  if (opt_.abft) abft.emplace();
  switch (stage_) {
    case Stage::Reduction: step_reduction(); return;
    case Stage::Bulge: step_bulge(); return;
    case Stage::Solver: step_solver(); return;
    case Stage::Finish: step_finish(); return;
    case Stage::Done: return;
  }
}

StatusOr<EvdResult> SolveJob::take() {
  TCEVD_CHECK(done(), "SolveJob::take() called before the job is done");
  if (error_) return *error_;
  return std::move(*final_);
}

void SolveJob::release_attempt_state() {
  attempt_scope_.reset();
  sres_.reset();
  engine_scope_.reset();  // restore the context's engine before anyone reuses it
  escalated_.reset();
}

void SolveJob::step_reduction() {
  ++attempts_;
  attempt_log_.clear();
  const index_t n = a_.rows();
  recovery::Scope scope;

  if (opt_.screen_input) {
    Status st = screen_input(a_, opt_.asymmetry_tol);
    if (!st.ok()) {
      append_log(attempt_log_, scope.take());
      fail_attempt(st);
      return;
    }
  }

  if (n <= 1) {
    EvdResult trivial;
    if (n == 1) {
      trivial.eigenvalues.assign(1, a_(0, 0));
      if (opt_.vectors) {
        trivial.vectors = Matrix<float>(1, 1);
        trivial.vectors(0, 0) = 1.0f;
      }
    } else if (opt_.vectors) {
      trivial.vectors = Matrix<float>(0, 0);
    }
    trivial.converged = true;
    final_ = std::move(trivial);
    stage_ = Stage::Done;
    release_attempt_state();
    return;
  }

  ctx_.workspace().reserve(workspace_query(n, opt_));
  attempt_scope_.emplace(ctx_.workspace());
  result_ = EvdResult{};
  d_.clear();
  e_.clear();
  q_ = Matrix<float>(0, 0);
  attempt_timer_.reset();

  if (opt_.reduction == Reduction::OneStage) {
    Timer t;
    {
      auto inner = ctx_.workspace().scope();
      auto work = inner.matrix<float>(n, n);
      copy_matrix(a_, work);
      std::vector<float> tau;
      lapack::sytrd_blocked(work, d_, e_, tau, std::min<index_t>(opt_.bandwidth, n));
      if (opt_.vectors) {
        q_ = Matrix<float>(n, n);
        lapack::orgtr<float>(work, tau, q_.view());
      }
    }
    result_.timings.reduction_s = t.seconds();
    ctx_.telemetry().record_stage("evd.reduction", result_.timings.reduction_s);
    append_log(attempt_log_, scope.take());
    stage_ = Stage::Solver;  // one-stage reduction has no bulge chase
    return;
  }

  sbr::SbrOptions sopt;
  sopt.bandwidth = std::min(opt_.bandwidth, n - 1);
  if (opt_.big_block < sopt.bandwidth)
    // The SBR layer rejects nb < b outright; here the caller's big_block is
    // a default that a large bandwidth can legitimately outgrow, so raise
    // it — but say so instead of mutating the options invisibly.
    recovery::note("evd.options",
                   "big_block " + std::to_string(opt_.big_block) +
                       " is below the bandwidth " + std::to_string(sopt.bandwidth) +
                       "; raising it to the bandwidth");
  sopt.big_block = std::max(opt_.big_block, sopt.bandwidth);
  sopt.panel = opt_.panel;
  sopt.accumulate_q = opt_.vectors;

  Timer t;
  StatusOr<sbr::SbrResult> sres_or =
      (opt_.reduction == Reduction::TwoStageWy)    ? sbr::sbr_wy(a_, ctx_, sopt)
      : (opt_.reduction == Reduction::TwoStageDbr) ? sbr::sbr_dbr(a_, ctx_, sopt)
                                                   : sbr::sbr_zy(a_, ctx_, sopt);
  if (!sres_or.ok()) {
    append_log(attempt_log_, scope.take());
    fail_attempt(sres_or.status());
    return;
  }
  sres_.emplace(std::move(*sres_or));
  result_.timings.reduction_s = t.seconds();
  ctx_.telemetry().record_stage("evd.reduction", result_.timings.reduction_s);
  append_log(attempt_log_, scope.take());
  stage_ = Stage::Bulge;
}

void SolveJob::step_bulge() {
  const index_t n = a_.rows();
  const index_t bw = std::min(opt_.bandwidth, n - 1);
  recovery::Scope scope;
  sbr::SbrResult& sres = *sres_;

  Timer t;
  MatrixView<float> qv = sres.q.view();
  auto tri = bulge::bulge_chase_auto<float>(ctx_, sres.band.view(), bw,
                                            opt_.vectors ? &qv : nullptr, opt_.bulge_threads);
  d_ = std::move(tri.d);
  e_ = std::move(tri.e);
  result_.timings.bulge_s = t.seconds();
  ctx_.telemetry().record_stage("evd.bulge", result_.timings.bulge_s);
  if (opt_.vectors) q_ = std::move(sres.q);
  sres_.reset();
  append_log(attempt_log_, scope.take());
  stage_ = Stage::Solver;
}

void SolveJob::step_solver() {
  recovery::Scope scope;
  Timer ts;
  Status sst = range_ ? solve_range() : solve_tridiagonal();
  result_.timings.solver_s = ts.seconds();
  ctx_.telemetry().record_stage("evd.solver", result_.timings.solver_s);
  append_log(attempt_log_, scope.take());
  if (!sst.ok()) {
    fail_attempt(sst);
    return;
  }
  result_.converged = true;
  result_.timings.total_s = attempt_timer_.seconds();
  result_.recovery = std::move(attempt_log_);
  attempt_log_.clear();
  ctx_.telemetry().record_recovery(result_.recovery);
  attempt_scope_.reset();  // the estimate (and any re-solve) re-opens its own

  if (!verified_) {
    complete_success();
    return;
  }
  stage_ = Stage::Finish;
}

Status SolveJob::solve_tridiagonal() {
  MatrixView<float> zv = q_.view();
  MatrixView<float>* zp = opt_.vectors ? &zv : nullptr;

  // The solvers destroy d/e (and fold rotations into q), so keep restore
  // points for the fallback chain.
  const std::vector<float> d0 = d_, e0 = e_;
  MatrixView<float> q0;
  if (opt_.vectors) {
    q0 = attempt_scope_->matrix<float>(q_.rows(), q_.cols());
    copy_matrix<float>(ConstMatrixView<float>(q_.view()), q0);
  }

  Status sst = run_tri_solver(ctx_.workspace(), opt_.solver, d_, e_, zp);
  if (!sst.ok() && is_recoverable(sst)) {
    TriSolver tried = opt_.solver;
    for (TriSolver fb : {TriSolver::DivideConquer, TriSolver::Ql, TriSolver::Bisection}) {
      if (fb == opt_.solver) continue;
      d_ = d0;
      e_ = e0;
      if (opt_.vectors) copy_matrix<float>(ConstMatrixView<float>(q0), q_.view());
      recovery::note("evd.solver", std::string(tri_solver_name(tried)) + " failed (" +
                                       sst.to_string() + "); retrying with " +
                                       tri_solver_name(fb));
      sst = run_tri_solver(ctx_.workspace(), fb, d_, e_, zp);
      if (sst.ok() || !is_recoverable(sst)) break;
      tried = fb;
    }
  }
  if (!sst.ok()) return sst;
  result_.eigenvalues = std::move(d_);
  if (opt_.vectors) result_.vectors = std::move(q_);
  return ok_status();
}

Status SolveJob::solve_range() {
  const index_t n = a_.rows();
  const index_t il = range_->il;
  const index_t nev = range_->iu - il + 1;
  if (opt_.verify != verify::Policy::Off)
    recovery::note("evd.verify",
                   "verification skipped: a selected range has no full spectrum to "
                   "estimate against; returning the result unverified");

  // stebz and stein read d/e by const, so no restore points are needed.
  result_.eigenvalues = lapack::stebz<float>(d_, e_, il, range_->iu);
  if (!opt_.vectors) return ok_status();

  // Tridiagonal eigenvectors by inverse iteration, then back-transform.
  auto z = attempt_scope_->matrix<float>(n, nev);
  Status st = lapack::stein<float>(d_, e_, result_.eigenvalues, z);
  if (!st.ok() && is_recoverable(st)) {
    // Inverse iteration stagnated on at least one vector. Solve the full
    // tridiagonal problem with QL instead and keep the selected columns —
    // slower (O(n^3) vs O(n * nev)) but unconditionally convergent in
    // practice on the matrices QL handles.
    recovery::note("evd.partial", "stein failed (" + st.to_string() +
                                      "); recomputed selected vectors with full QL solve");
    std::vector<float> dq = d_, eq = e_;
    auto ql_scope = ctx_.workspace().scope();
    auto zfull = ql_scope.matrix<float>(n, n);
    set_identity(zfull);
    MatrixView<float> zfv = zfull;
    TCEVD_RETURN_IF_ERROR(lapack::steqr<float>(dq, eq, &zfv));
    // steqr returns ascending eigenvalues, so columns il..iu line up with
    // the bisection selection.
    for (index_t j = 0; j < nev; ++j) {
      result_.eigenvalues[static_cast<std::size_t>(j)] = dq[static_cast<std::size_t>(il + j)];
      for (index_t i = 0; i < n; ++i) z(i, j) = zfull(i, il + j);
    }
  } else if (!st.ok()) {
    return st;
  }
  result_.vectors = Matrix<float>(n, nev);
  blas::gemm(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(q_.view()),
             ConstMatrixView<float>(z), 0.0f, result_.vectors.view());
  return ok_status();
}

void SolveJob::step_finish() {
  recovery::Scope scope;  // breach/give-up notes of this verification round
  accumulated_.insert(accumulated_.end(), result_.recovery.begin(), result_.recovery.end());

  verify::Options vopt;
  vopt.probes = opt_.verify_probes;
  vopt.tol_scale = static_cast<double>(opt_.verify_tol_scale);

  const tc::GemmEngine& engine = ctx_.engine();
  Timer tv;
  verify::Report report =
      opt_.vectors
          ? verify::estimate(a_, result_.eigenvalues,
                             ConstMatrixView<float>(result_.vectors.view()), engine.kind(),
                             vopt)
          : verify::estimate_values(a_, result_.eigenvalues, engine.kind(), vopt);
  result_.timings.verify_s = tv.seconds();
  ctx_.telemetry().record_stage("evd.verify", result_.timings.verify_s);
  report.attempts = attempts_;
  report.escalations = escalations_;
  report.engine = engine.name();

  const bool accept = report.passed || opt_.verify == verify::Policy::Estimate;
  if (!report.passed) {
    recovery::note(
        "evd.verify",
        "residual estimate " + std::to_string(report.residual) + " (tol " +
            std::to_string(report.residual_tol) + "), orthogonality estimate " +
            std::to_string(report.orthogonality) + " (tol " +
            std::to_string(report.orthogonality_tol) + ") breached on engine '" +
            engine.name() + "'" +
            (accept ? "; policy is estimate-only, returning the result annotated" : ""));
  }
  if (accept) {
    result_.verify = std::move(report);
    append_log(pending_, scope.take());
    ctx_.telemetry().record_recovery(pending_);
    accumulated_.insert(accumulated_.end(), pending_.begin(), pending_.end());
    pending_.clear();
    result_.recovery = std::move(accumulated_);
    complete_success();
    return;
  }

  // Escalate: next engine in the chain, same warm context.
  tc::TcPrecision prec = tc::TcPrecision::Fp16;
  if (const auto* tc_engine = dynamic_cast<const tc::TcEngine*>(&engine))
    prec = tc_engine->precision();
  std::unique_ptr<tc::GemmEngine> next = next_escalation_engine(engine.kind(), prec);
  if (next == nullptr) {
    const std::string reason = "the escalation chain is exhausted (already on '" +
                               std::string(engine.name()) + "')";
    recovery::note("evd.verify", "verification still failing and " + reason);
    append_log(pending_, scope.take());
    ctx_.telemetry().record_recovery(pending_);
    pending_.clear();  // claimed into telemetry, exactly as vscope.take() did
    error_ = precision_loss_error(
        "evd::solve: verification failed after " + std::to_string(attempts_) +
        " attempt(s) (residual estimate " + std::to_string(report.residual) + ", tol " +
        std::to_string(report.residual_tol) + ", engine '" + engine.name() + "'); " +
        reason);
    stage_ = Stage::Done;
    release_attempt_state();
    return;
  }
  recovery::note("evd.verify", "re-solving with higher-accuracy engine '" + next->name() +
                                   "' (attempt " + std::to_string(attempts_ + 1) + ")");
  append_log(pending_, scope.take());
  escalate_engine(std::move(next));
}

void SolveJob::fail_attempt(const Status& status) {
  attempt_scope_.reset();
  sres_.reset();

  if (!verified_) {
    // The synchronous path propagated the attempt's unclaimed events to the
    // caller's enclosing recovery::Scope when the per-solve scope unwound;
    // park them for the wrapper to re-note (schedulers drop them).
    dropped_events_ = std::move(attempt_log_);
    attempt_log_.clear();
    error_ = status;
    stage_ = Stage::Done;
    release_attempt_state();
    return;
  }

  // A recoverable pipeline failure (e.g. corruption drove the solver to
  // NoConvergence after its own fallbacks) is escalated like a breached
  // estimate: corruption that poisons the pipeline outright and corruption
  // that merely skews the result get the same answer, a re-solve on a better
  // engine. Non-recoverable failures and the estimate-only policy keep their
  // pre-verification semantics.
  auto give_up = [&] {
    dropped_events_ = std::move(pending_);
    pending_.clear();
    append_log(dropped_events_, std::move(attempt_log_));
    attempt_log_.clear();
    error_ = status;
    stage_ = Stage::Done;
    release_attempt_state();
  };
  if (opt_.verify != verify::Policy::EstimateEscalate || !is_recoverable(status)) {
    give_up();
    return;
  }
  tc::TcPrecision prec = tc::TcPrecision::Fp16;
  if (const auto* tc_engine = dynamic_cast<const tc::TcEngine*>(&ctx_.engine()))
    prec = tc_engine->precision();
  std::unique_ptr<tc::GemmEngine> next =
      next_escalation_engine(ctx_.engine().kind(), prec);
  if (next == nullptr) {
    give_up();
    return;
  }
  // The failed attempt's events reached the old vscope before the escalation
  // note was made; keep that order.
  append_log(pending_, std::move(attempt_log_));
  attempt_log_.clear();
  pending_.push_back(
      RecoveryEvent{"evd.verify", "solve attempt " + std::to_string(attempts_) +
                                      " failed (" + status.to_string() +
                                      "); re-solving with higher-accuracy engine '" +
                                      next->name() + "'"});
  escalate_engine(std::move(next));
}

void SolveJob::escalate_engine(std::unique_ptr<tc::GemmEngine> next) {
  ++escalations_;
  ctx_.telemetry().record_stage("evd.verify.escalation", 0.0);
  engine_scope_.emplace(ctx_, *next);  // destroys any previous override first
  escalated_ = std::move(next);
  stage_ = Stage::Reduction;
}

void SolveJob::complete_success() {
  final_ = std::move(result_);
  stage_ = Stage::Done;
  release_attempt_state();
}

const char* tri_solver_name(TriSolver solver) noexcept {
  switch (solver) {
    case TriSolver::Ql: return "ql";
    case TriSolver::DivideConquer: return "divide-conquer";
    case TriSolver::Bisection: return "bisection";
  }
  return "?";
}

StatusOr<EvdResult> solve(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt) {
  TCEVD_RETURN_IF_ERROR(validate_request(a, opt, std::nullopt, "evd::solve"));
  SolveJob job(a, ctx, opt);
  return run_to_completion(job);
}

StatusOr<EvdResult> solve_selected(ConstMatrixView<float> a, Context& ctx,
                                   const EvdOptions& opt, index_t il, index_t iu,
                                   bool vectors) {
  TCEVD_RETURN_IF_ERROR(validate_request(a, opt, IndexRange{il, iu}, "solve_selected"));
  EvdOptions sel = opt;
  sel.vectors = vectors;
  SolveJob job(a, ctx, sel, IndexRange{il, iu});
  return run_to_completion(job);
}

std::size_t workspace_query(index_t n, const EvdOptions& opt) {
  if (n <= 0) return 0;
  sbr::SbrOptions sopt;
  sopt.bandwidth = std::clamp<index_t>(opt.bandwidth, 1, std::max<index_t>(n - 1, 1));
  sopt.big_block = std::max(opt.big_block, sopt.bandwidth);
  sopt.big_block -= sopt.big_block % sopt.bandwidth;
  sopt.panel = opt.panel;

  const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  // Reduction stage: SBR arena peak, or the one-stage n x n scratch.
  std::size_t bytes = std::max(sbr::workspace_query(n, sopt), nn * sizeof(float));
  // Solver-fallback restore point (q0) + bisection inverse-iteration S and
  // the z*S product buffer; a values-only solve checks out none of them.
  if (opt.vectors) bytes += 3 * nn * sizeof(float);
  // The second stage's progress vector, checked out when the chase may run
  // on more than one lane (bulge_chase_auto: bulge_threads >= 2, or auto
  // with Q).
  if (opt.reduction != Reduction::OneStage && opt.bulge_threads != 1 &&
      (opt.vectors || opt.bulge_threads >= 2))
    bytes += bulge::wavefront_workspace_bytes(n);
  bytes += 64 * Workspace::kAlignment;  // per-checkout alignment slop
  return bytes;
}

StatusOr<std::vector<double>> reference_eigenvalues(ConstMatrixView<double> a) {
  const index_t n = a.rows();
  Matrix<double> work(n, n);
  copy_matrix(a, work.view());
  std::vector<double> d, e, tau;
  lapack::sytrd(work.view(), d, e, tau);
  TCEVD_RETURN_IF_ERROR(lapack::steqr<double>(d, e, nullptr));
  return d;
}

double eigenpair_residual(ConstMatrixView<float> a, const std::vector<float>& lambda,
                          ConstMatrixView<float> v) {
  const index_t n = a.rows();
  const index_t nev = v.cols();
  TCEVD_CHECK(static_cast<index_t>(lambda.size()) == nev && v.rows() == n,
              "eigenpair_residual: lambda/vector count mismatch");
  Matrix<double> ad(n, n), vd(n, nev);
  convert_matrix<float, double>(a, ad.view());
  convert_matrix<float, double>(v, vd.view());
  Matrix<double> av(n, nev);
  blas::gemm(Trans::No, Trans::No, 1.0, ad.view(), vd.view(), 0.0, av.view());
  const double scale = frobenius_norm<double>(ad.view());
  double worst = 0.0;
  for (index_t j = 0; j < nev; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double r = av(i, j) - static_cast<double>(lambda[static_cast<std::size_t>(j)]) * vd(i, j);
      s += r * r;
    }
    worst = std::max(worst, std::sqrt(s));
  }
  return worst / scale;
}

}  // namespace tcevd::evd
