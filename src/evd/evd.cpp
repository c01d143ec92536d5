#include "src/evd/evd.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "src/evd/partial.hpp"
#include "src/evd/pipeline.hpp"

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
    StatusOr<std::vector<float>> eigs = lapack::stebz<float>(d, e, 0, n - 1);
    TCEVD_RETURN_IF_ERROR(eigs.status());
    if (z != nullptr) TCEVD_RETURN_IF_ERROR(lapack::stein<float>(d, e, *eigs, s));
    std::copy(eigs->begin(), eigs->end(), d.begin());
  }
  if (z != nullptr) {
    auto zs = scope.matrix<float>(z->rows(), n);
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(*z),
                      ConstMatrixView<float>(s), 0.0f, zs);
    copy_matrix<float>(ConstMatrixView<float>(zs), *z);
  }
  return ok_status();
}

Status screen_input(ConstMatrixView<float> a) {
  const index_t n = a.rows();
  float amax = 0.0f;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const float v = a(i, j);
      if (!std::isfinite(v))
        return invalid_input_error("evd::solve: input matrix has a non-finite entry");
      amax = std::max(amax, std::abs(v));
    }
  const float tol = EvdOptions::asymmetry_tol * std::max(amax, 1e-30f);
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
/// Engines are stateless and shareable, so every escalation shares these.
tc::GemmEngine* next_escalation_engine(const tc::GemmEngine& engine) {
  static tc::EcTcEngine ectc_fp16(tc::TcPrecision::Fp16);
  static tc::EcTcEngine ectc_tf32(tc::TcPrecision::Tf32);
  static tc::Fp32Engine fp32;
  switch (engine.kind()) {
    case tc::EngineKind::Tc: {
      const auto* tc_engine = dynamic_cast<const tc::TcEngine*>(&engine);
      return tc_engine != nullptr && tc_engine->precision() == tc::TcPrecision::Tf32
                 ? &ectc_tf32
                 : &ectc_fp16;
    }
    case tc::EngineKind::EcTc: return &fp32;
    case tc::EngineKind::Fp32: return nullptr;  // already the terminal engine
  }
  return nullptr;
}

/// The full-spectrum solver stage: opt.solver on (d, e), then the rest of
/// the chain D&C -> QL -> bisection while failures are recoverable. The
/// solvers destroy d/e, so each retry starts from a restore point; Q needs
/// none, since a failed solver leaves it as it was. Eigenvalues, and with
/// opt.vectors the vectors Q * S, go into `result`.
Status solve_tridiagonal(Workspace& ws, const EvdOptions& opt, std::vector<float>& d,
                         std::vector<float>& e, Matrix<float>& q, EvdResult& result) {
  MatrixView<float> zv = q.view();
  MatrixView<float>* zp = opt.vectors ? &zv : nullptr;
  const std::vector<float> d0 = d, e0 = e;

  Status sst = run_tri_solver(ws, opt.solver, d, e, zp);
  if (!sst.ok() && is_recoverable(sst)) {
    TriSolver tried = opt.solver;
    for (TriSolver fb : {TriSolver::DivideConquer, TriSolver::Ql, TriSolver::Bisection}) {
      if (fb == opt.solver) continue;
      d = d0;
      e = e0;
      recovery::note("evd.solver", std::string(tri_solver_name(tried)) + " failed (" +
                                       sst.to_string() + "); retrying with " +
                                       tri_solver_name(fb));
      sst = run_tri_solver(ws, fb, d, e, zp);
      if (sst.ok() || !is_recoverable(sst)) break;
      tried = fb;
    }
  }
  if (!sst.ok()) return sst;
  result.eigenvalues = std::move(d);
  if (opt.vectors) result.vectors = std::move(q);
  return ok_status();
}

/// The selected-range solver stage: Sturm bisection for eigenvalues
/// range.il..range.iu and, with opt.vectors, inverse iteration
/// back-transformed through Q. stebz and stein read d/e by const, so no
/// restore points are needed.
Status solve_range(Workspace& ws, const EvdOptions& opt, IndexRange range,
                   const std::vector<float>& d, const std::vector<float>& e,
                   ConstMatrixView<float> q, EvdResult& result) {
  const index_t n = static_cast<index_t>(d.size());
  const index_t il = range.il;
  const index_t nev = range.iu - il + 1;
  if (opt.verify != verify::Policy::Off)
    recovery::note("evd.verify",
                   "verification skipped: a selected range has no full spectrum to "
                   "estimate against; returning the result unverified");

  StatusOr<std::vector<float>> eigs = lapack::stebz<float>(d, e, il, range.iu);
  TCEVD_RETURN_IF_ERROR(eigs.status());
  result.eigenvalues = std::move(*eigs);
  if (!opt.vectors) return ok_status();

  // Tridiagonal eigenvectors by inverse iteration, then back-transform.
  auto scope = ws.scope();
  auto z = scope.matrix<float>(n, nev);
  Status st = lapack::stein<float>(d, e, result.eigenvalues, z);
  if (!st.ok() && is_recoverable(st)) {
    // Inverse iteration stagnated on at least one vector. Solve the full
    // tridiagonal problem with QL instead and keep the selected columns —
    // slower (O(n^3) vs O(n * nev)) but unconditionally convergent in
    // practice on the matrices QL handles.
    recovery::note("evd.partial", "stein failed (" + st.to_string() +
                                      "); recomputed selected vectors with full QL solve");
    std::vector<float> dq = d, eq = e;
    auto ql_scope = ws.scope();
    auto zfull = ql_scope.matrix<float>(n, n);
    set_identity(zfull);
    MatrixView<float> zfv = zfull;
    TCEVD_RETURN_IF_ERROR(lapack::steqr<float>(dq, eq, &zfv));
    // steqr returns ascending eigenvalues, so columns il..iu line up with
    // the bisection selection.
    for (index_t j = 0; j < nev; ++j) {
      result.eigenvalues[static_cast<std::size_t>(j)] = dq[static_cast<std::size_t>(il + j)];
      for (index_t i = 0; i < n; ++i) z(i, j) = zfull(i, il + j);
    }
  } else if (!st.ok()) {
    return st;
  }
  result.vectors = Matrix<float>(n, nev);
  blas::gemm(Trans::No, Trans::No, 1.0f, q, ConstMatrixView<float>(z), 0.0f,
             result.vectors.view());
  return ok_status();
}

/// One pass down the pipeline on the context's current engine, through the
/// solver stage, with `enter` run before each stage. Returns the unverified
/// result, or the first failure.
StatusOr<EvdResult> solve_once(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt,
                               std::optional<IndexRange> range, const StageGate& enter) {
  const index_t n = a.rows();
  TCEVD_RETURN_IF_ERROR(enter(Stage::Reduction));
  TCEVD_RETURN_IF_ERROR(screen_input(a));

  EvdResult result;
  if (n <= 1) {
    if (n == 1) {
      result.eigenvalues.assign(1, a(0, 0));
      if (opt.vectors) {
        result.vectors = Matrix<float>(1, 1);
        result.vectors(0, 0) = 1.0f;
      }
    }
    result.converged = true;
    return result;
  }

  ctx.workspace().reserve(workspace_query(n, opt));
  auto scope = ctx.workspace().scope();
  Timer total;
  std::vector<float> d, e;
  Matrix<float> q(0, 0);

  if (opt.reduction == Reduction::OneStage) {
    // One-stage reduction has no bulge chase.
    Timer t;
    {
      auto inner = ctx.workspace().scope();
      auto work = inner.matrix<float>(n, n);
      copy_matrix(a, work);
      std::vector<float> tau;
      lapack::sytrd_blocked(work, d, e, tau, std::min<index_t>(opt.bandwidth, n));
      if (opt.vectors) {
        q = Matrix<float>(n, n);
        lapack::orgtr<float>(work, tau, q.view());
      }
    }
    result.timings.reduction_s = t.seconds();
    ctx.telemetry().record_stage("evd.reduction", result.timings.reduction_s);
  } else {
    sbr::SbrOptions sopt;
    sopt.bandwidth = std::min(opt.bandwidth, n - 1);
    if (opt.big_block < sopt.bandwidth)
      // The SBR layer rejects nb < b outright; here the caller's big_block is
      // a default that a large bandwidth can legitimately outgrow, so raise
      // it — but say so instead of mutating the options invisibly.
      recovery::note("evd.options",
                     "big_block " + std::to_string(opt.big_block) +
                         " is below the bandwidth " + std::to_string(sopt.bandwidth) +
                         "; raising it to the bandwidth");
    sopt.big_block = std::max(opt.big_block, sopt.bandwidth);
    sopt.panel = opt.panel;
    sopt.accumulate_q = opt.vectors;

    Timer t;
    StatusOr<sbr::SbrResult> sres =
        (opt.reduction == Reduction::TwoStageWy)    ? sbr::sbr_wy(a, ctx, sopt)
        : (opt.reduction == Reduction::TwoStageDbr) ? sbr::sbr_dbr(a, ctx, sopt)
                                                    : sbr::sbr_zy(a, ctx, sopt);
    // The input passed the screen, so a non-finite panel can only come from
    // the engine's arithmetic (an fp16 overflow, say): a precision failure
    // that escalation can recover, not bad input.
    if (!sres.ok() && sres.status().code() == ErrorCode::InvalidInput)
      return precision_loss_error("evd::solve: reduction lost precision (" +
                                  sres.status().message() + ")");
    TCEVD_RETURN_IF_ERROR(sres.status());
    result.timings.reduction_s = t.seconds();
    ctx.telemetry().record_stage("evd.reduction", result.timings.reduction_s);

    TCEVD_RETURN_IF_ERROR(enter(Stage::Bulge));
    Timer tb;
    MatrixView<float> qv = sres->q.view();
    auto tri = bulge::bulge_chase_auto<float>(ctx, sres->band.view(), sopt.bandwidth,
                                              opt.vectors ? &qv : nullptr,
                                              EvdOptions::bulge_threads);
    d = std::move(tri.d);
    e = std::move(tri.e);
    result.timings.bulge_s = tb.seconds();
    ctx.telemetry().record_stage("evd.bulge", result.timings.bulge_s);
    if (opt.vectors) q = std::move(sres->q);
  }
  // Likewise a non-finite (d, e): an overflow no panel saw (in the last
  // trailing block, say). Given one, every solver fails or, like bisection,
  // returns finite garbage.
  const auto finite = [](const std::vector<float>& v) {
    return std::all_of(v.begin(), v.end(), [](float x) { return std::isfinite(x); });
  };
  if (!finite(d) || !finite(e))
    return precision_loss_error("evd::solve: the tridiagonal form has a non-finite entry");

  TCEVD_RETURN_IF_ERROR(enter(Stage::Solver));
  Timer ts;
  const Status st = range ? solve_range(ctx.workspace(), opt, *range, d, e, q.view(), result)
                          : solve_tridiagonal(ctx.workspace(), opt, d, e, q, result);
  result.timings.solver_s = ts.seconds();
  ctx.telemetry().record_stage("evd.solver", result.timings.solver_s);
  TCEVD_RETURN_IF_ERROR(st);
  result.converged = true;
  result.timings.total_s = total.seconds();
  return result;
}

/// run_solve's attempt loop: one pass down the pipeline, then verification
/// when the policy asks for it. A breached estimate under EstimateEscalate
/// runs the stages again on the next engine up, and so does a recoverable
/// failure of a verified solve (corruption that poisons the pipeline outright
/// and corruption that merely skews the result get the same answer).
/// Non-recoverable failures, the gate's included, and unverified solves end
/// the solve.
StatusOr<EvdResult> solve_with_escalation(ConstMatrixView<float> a, Context& ctx,
                                          const EvdOptions& opt,
                                          std::optional<IndexRange> range,
                                          const StageGate& gate) {
  // Trivial sizes never reach the pipeline (SBR needs bandwidth in [1, n))
  // and never verify, nor do selected ranges: the estimators need the full
  // spectrum.
  const bool verified = opt.verify != verify::Policy::Off && a.rows() > 1 && !range;
  const StageGate enter = [&gate](Stage stage) { return gate ? gate(stage) : ok_status(); };
  std::optional<EngineOverrideScope> engine_override;

  for (int attempt = 1;; ++attempt) {
    StatusOr<EvdResult> res = solve_once(a, ctx, opt, range, enter);
    if (res.ok() && !verified) return res;
    const bool breached = res.ok();
    Status failure = res.status();
    if (breached) {
      TCEVD_RETURN_IF_ERROR(enter(Stage::Verify));
      const verify::Options vopt;
      const tc::GemmEngine& engine = ctx.engine();
      Timer tv;
      verify::Report report =
          opt.vectors ? verify::estimate(a, res->eigenvalues,
                                         ConstMatrixView<float>(res->vectors.view()),
                                         engine.kind(), vopt)
                      : verify::estimate_values(a, res->eigenvalues, engine.kind(), vopt);
      res->timings.verify_s = tv.seconds();
      ctx.telemetry().record_stage("evd.verify", res->timings.verify_s);
      report.attempts = attempt;
      report.escalations = attempt - 1;
      report.engine = engine.name();

      const bool accept = report.passed || opt.verify == verify::Policy::Estimate;
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
        res->verify = std::move(report);
        return res;
      }
      failure = precision_loss_error(
          "evd::solve: verification failed after " + std::to_string(attempt) +
          " attempt(s) (residual estimate " + std::to_string(report.residual) + ", tol " +
          std::to_string(report.residual_tol) + ", engine '" + engine.name() + "')");
    }

    tc::GemmEngine* next = nullptr;
    if (verified && opt.verify == verify::Policy::EstimateEscalate && is_recoverable(failure))
      next = next_escalation_engine(ctx.engine());
    if (next == nullptr) {
      if (!breached) return failure;
      const std::string reason = "the escalation chain is exhausted (already on '" +
                                 std::string(ctx.engine().name()) + "')";
      recovery::note("evd.verify", "verification still failing and " + reason);
      return precision_loss_error(failure.message() + "; " + reason);
    }
    recovery::note("evd.verify",
                   (breached ? std::string()
                             : "solve attempt " + std::to_string(attempt) + " failed (" +
                                   failure.to_string() + "); ") +
                       "re-solving with higher-accuracy engine '" + next->name() +
                       "' (attempt " + std::to_string(attempt + 1) + ")");
    ctx.telemetry().record_stage("evd.verify.escalation", 0.0);
    engine_override.emplace(ctx, *next);  // destroys any previous override first
  }
}

}  // namespace

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

StatusOr<EvdResult> run_solve(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt,
                              std::optional<IndexRange> range, const StageGate& gate) {
  TCEVD_CHECK(validate_request(a, opt, range, "run_solve").ok(),
              "run_solve: invalid request (callers check validate_request first)");
  // ABFT covers every GEMM of this solve, escalations included; the calling
  // thread passes the choice on to the pool workers running its tiles, and
  // other threads' GEMMs stay unchecked.
  std::optional<blas::abft::AbftScope> abft;
  if (opt.abft) abft.emplace();
  // Every recovery event of the solve in the order it happened, across
  // attempts, the escalation notes included.
  recovery::Scope log;
  StatusOr<EvdResult> out = solve_with_escalation(a, ctx, opt, range, gate);
  // The log goes to the context's telemetry once, and to the result on
  // success. A failed solve has no result to carry it, so `log` hands it to
  // the caller's recovery::Scope as it closes.
  ctx.telemetry().record_recovery(log.events());
  if (out.ok()) out->recovery = log.take();
  return out;
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
  return run_solve(a, ctx, opt);
}

StatusOr<EvdResult> solve_selected(ConstMatrixView<float> a, Context& ctx,
                                   const EvdOptions& opt, index_t il, index_t iu) {
  TCEVD_RETURN_IF_ERROR(validate_request(a, opt, IndexRange{il, iu}, "solve_selected"));
  return run_solve(a, ctx, opt, IndexRange{il, iu});
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
  // on more than one lane (bulge_chase_auto's auto rule: only with Q).
  if (opt.reduction != Reduction::OneStage && opt.vectors)
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
