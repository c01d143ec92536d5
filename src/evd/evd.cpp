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

/// Runs `solver` on (d, e): eigenvalues into d, and with `z` the
/// tridiagonal eigenvectors S folded into it, z := z * S. Every solver
/// updates z only once it has succeeded (stedc multiplies by its V after the
/// merges; QL rotates an identity from the arena instead of z), so a failed
/// solver leaves z as it was for the next one in the fallback chain.
Status run_tri_solver(Workspace& ws, TriSolver solver, std::vector<float>& d,
                      std::vector<float>& e, MatrixView<float>* z) {
  if (solver == TriSolver::DivideConquer) return lapack::stedc<float>(d, e, z);
  const index_t n = static_cast<index_t>(d.size());
  auto scope = ws.scope();
  MatrixView<float> s;
  if (z != nullptr) s = scope.matrix<float>(n, n);
  if (solver == TriSolver::Ql) {
    if (z != nullptr) set_identity(s);
    TCEVD_RETURN_IF_ERROR(lapack::steqr<float>(d, e, z != nullptr ? &s : nullptr));
  } else {
    // Bisection, and for vectors inverse iteration on its values.
    const std::vector<float> eigs = lapack::stebz<float>(d, e, 0, n - 1);
    if (z != nullptr) TCEVD_RETURN_IF_ERROR(lapack::stein<float>(d, e, eigs, s));
    std::copy(eigs.begin(), eigs.end(), d.begin());
  }
  if (z != nullptr) {
    auto zs = scope.matrix<float>(z->rows(), n);
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(*z),
                      ConstMatrixView<float>(s), 0.0f, zs);
    copy_matrix<float>(ConstMatrixView<float>(zs), *z);
  }
  return ok_status();
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

/// Next engine in the accuracy-ascending escalation chain
/// Tc -> EcTc -> Fp32, or nullptr when `engine` is already the most
/// accurate. A Tc engine's operand precision carries across the Tc -> EcTc
/// step, so an escalated tc-tf32 solve corrects tf32 numerics, not fp16.
std::unique_ptr<tc::GemmEngine> next_escalation_engine(const tc::GemmEngine& engine) {
  switch (engine.kind()) {
    case tc::EngineKind::Tc: {
      const auto* tc_engine = dynamic_cast<const tc::TcEngine*>(&engine);
      return std::make_unique<tc::EcTcEngine>(tc_engine != nullptr ? tc_engine->precision()
                                                                   : tc::TcPrecision::Fp16);
    }
    case tc::EngineKind::EcTc: return std::make_unique<tc::Fp32Engine>();
    case tc::EngineKind::Fp32: return nullptr;  // already the terminal engine
  }
  return nullptr;
}

/// Synchronous driver: step `job` to completion on the calling thread.
StatusOr<EvdResult> run_to_completion(SolveJob& job) {
  while (!job.done()) job.step();
  StatusOr<EvdResult> out = job.take();
  // A failed solve returns no EvdResult to carry its log, so the log goes
  // to the caller's enclosing recovery::Scope instead.
  if (!out.ok())
    for (const RecoveryEvent& ev : job.dropped_events()) recovery::note(ev.site, ev.action);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SolveJob: the solve pipeline as a resumable stage machine. Control returns
// to the caller between stages, with the in-flight state parked in members.
// Each step opens its own recovery::Scope and drains it into the job's one
// log before returning, so the thread-local scope chain never spans a
// suspension point (steps of one job may run on different scheduler
// threads).
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

void SolveJob::step() {
  if (done()) return;
  // ABFT covers this request's GEMMs, stage by stage, escalations included;
  // the calling thread passes the choice on to the pool workers running its
  // tiles, and other requests' GEMMs stay unchecked.
  std::optional<blas::abft::AbftScope> abft;
  if (opt_.abft) abft.emplace();
  // Every note of this step, the job's own failure and escalation notes
  // included, joins the log in the order it was made.
  recovery::Scope scope;
  switch (stage_) {
    case Stage::Reduction: step_reduction(); break;
    case Stage::Bulge: step_bulge(); break;
    case Stage::Solver: step_solver(); break;
    case Stage::Finish: step_finish(); break;
    case Stage::Done: break;
  }
  RecoveryLog events = scope.take();
  log_.insert(log_.end(), std::make_move_iterator(events.begin()),
              std::make_move_iterator(events.end()));
  if (!done()) return;
  // The job hands its log on once: to the context's telemetry, and to the
  // result on success (dropped_events() keeps it on failure).
  ctx_.telemetry().record_recovery(log_);
  if (final_) {
    final_->recovery = std::move(log_);
    log_.clear();
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
  const index_t n = a_.rows();

  if (opt_.screen_input) {
    Status st = screen_input(a_, opt_.asymmetry_tol);
    if (!st.ok()) {
      escalate_or_fail(std::move(st), /*breached=*/false);
      return;
    }
  }

  result_ = EvdResult{};
  if (n <= 1) {
    if (n == 1) {
      result_.eigenvalues.assign(1, a_(0, 0));
      if (opt_.vectors) {
        result_.vectors = Matrix<float>(1, 1);
        result_.vectors(0, 0) = 1.0f;
      }
    }
    result_.converged = true;
    complete_success();
    return;
  }

  ctx_.workspace().reserve(workspace_query(n, opt_));
  attempt_scope_.emplace(ctx_.workspace());
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
    escalate_or_fail(sres_or.status(), /*breached=*/false);
    return;
  }
  sres_.emplace(std::move(*sres_or));
  result_.timings.reduction_s = t.seconds();
  ctx_.telemetry().record_stage("evd.reduction", result_.timings.reduction_s);
  stage_ = Stage::Bulge;
}

void SolveJob::step_bulge() {
  const index_t n = a_.rows();
  const index_t bw = std::min(opt_.bandwidth, n - 1);
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
  stage_ = Stage::Solver;
}

void SolveJob::step_solver() {
  Timer ts;
  Status sst = range_ ? solve_range() : solve_tridiagonal();
  result_.timings.solver_s = ts.seconds();
  ctx_.telemetry().record_stage("evd.solver", result_.timings.solver_s);
  if (!sst.ok()) {
    escalate_or_fail(std::move(sst), /*breached=*/false);
    return;
  }
  result_.converged = true;
  result_.timings.total_s = attempt_timer_.seconds();
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

  // The solvers destroy d/e, so keep a restore point for the fallback
  // chain. Q needs none: a failed solver leaves it as it was.
  const std::vector<float> d0 = d_, e0 = e_;

  Status sst = run_tri_solver(ctx_.workspace(), opt_.solver, d_, e_, zp);
  if (!sst.ok() && is_recoverable(sst)) {
    TriSolver tried = opt_.solver;
    for (TriSolver fb : {TriSolver::DivideConquer, TriSolver::Ql, TriSolver::Bisection}) {
      if (fb == opt_.solver) continue;
      d_ = d0;
      e_ = e0;
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
    complete_success();
    return;
  }
  escalate_or_fail(precision_loss_error("evd::solve: verification failed after " +
                                        std::to_string(attempts_) +
                                        " attempt(s) (residual estimate " +
                                        std::to_string(report.residual) + ", tol " +
                                        std::to_string(report.residual_tol) + ", engine '" +
                                        engine.name() + "')"),
                   /*breached=*/true);
}

void SolveJob::escalate_or_fail(Status failure, bool breached) {
  attempt_scope_.reset();
  sres_.reset();
  // A breached estimate under EstimateEscalate re-solves on the next engine
  // up, and so does a recoverable pipeline failure of a verified solve
  // (corruption that poisons the pipeline outright and corruption that
  // merely skews the result get the same answer). Non-recoverable failures
  // and unverified solves end the job.
  std::unique_ptr<tc::GemmEngine> next;
  if (verified_ && opt_.verify == verify::Policy::EstimateEscalate && is_recoverable(failure))
    next = next_escalation_engine(ctx_.engine());
  if (next != nullptr) {
    recovery::note("evd.verify",
                   (breached ? std::string()
                             : "solve attempt " + std::to_string(attempts_) + " failed (" +
                                   failure.to_string() + "); ") +
                       "re-solving with higher-accuracy engine '" + next->name() +
                       "' (attempt " + std::to_string(attempts_ + 1) + ")");
    ++escalations_;
    ctx_.telemetry().record_stage("evd.verify.escalation", 0.0);
    engine_scope_.emplace(ctx_, *next);  // destroys any previous override first
    escalated_ = std::move(next);
    stage_ = Stage::Reduction;
    return;
  }
  if (breached) {
    const std::string reason = "the escalation chain is exhausted (already on '" +
                               std::string(ctx_.engine().name()) + "')";
    recovery::note("evd.verify", "verification still failing and " + reason);
    failure = precision_loss_error(failure.message() + "; " + reason);
  }
  error_ = std::move(failure);
  stage_ = Stage::Done;
  release_attempt_state();
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
  // The solver's tridiagonal eigenvectors S (QL's rotated identity or
  // bisection's inverse iteration) and the z*S product buffer; a values-only
  // solve checks out neither.
  if (opt.vectors) bytes += 2 * nn * sizeof(float);
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
