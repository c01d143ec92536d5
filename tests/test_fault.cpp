// Fault injection, Status propagation, and graceful-degradation coverage.
//
// Each registered injection site is armed one-shot against the full EVD
// pipeline on hard matrices (512 x 512 Wilkinson / clustered spectra); the
// solve must still succeed through its documented fallback, record the
// recovery, and produce residuals indistinguishable from a clean run.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/common/context.hpp"
#include "src/blas/blas.hpp"
#include "src/common/fault.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/tsqr/reconstruct_wy.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/service.hpp"
#include "src/lapack/stein.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/matgen/matgen.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"
#include "tests/test_util.hpp"

namespace tcevd {
namespace {

/// Wilkinson-type matrix W_n^+ as a full dense symmetric matrix:
/// d_i = |i - (n-1)/2|, unit off-diagonal. Eigenvalues come in notoriously
/// close pairs — a classic stress test for tridiagonal solvers.
Matrix<float> wilkinson_full(index_t n) {
  Matrix<float> a(n, n);
  set_zero(a.view());
  const double mid = static_cast<double>(n - 1) / 2.0;
  for (index_t i = 0; i < n; ++i) a(i, i) = static_cast<float>(std::abs(i - mid));
  for (index_t i = 0; i + 1 < n; ++i) {
    a(i, i + 1) = 1.0f;
    a(i + 1, i) = 1.0f;
  }
  return a;
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(FaultTest, SiteNamesRoundTrip) {
  for (int i = 0; i < fault::kSiteCount; ++i) {
    const auto site = static_cast<fault::Site>(i);
    fault::Site parsed{};
    ASSERT_TRUE(fault::site_from_name(fault::site_name(site), &parsed)) << fault::site_name(site);
    EXPECT_EQ(static_cast<int>(parsed), i);
  }
  fault::Site out{};
  EXPECT_FALSE(fault::site_from_name("no.such.site", &out));
}

TEST_F(FaultTest, ArmFromSpecGrammar) {
  EXPECT_TRUE(fault::arm_from_spec("steqr.exhaust"));
  EXPECT_TRUE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_TRUE(fault::arm_from_spec("panel.nan:3"));
  EXPECT_TRUE(fault::armed(fault::Site::PanelNan));
  EXPECT_TRUE(fault::arm_from_spec("ec_tcgemm.saturate:-1"));
  EXPECT_FALSE(fault::arm_from_spec("bogus.site"));
  EXPECT_FALSE(fault::arm_from_spec("panel.nan:x"));
  EXPECT_FALSE(fault::arm_from_spec(""));
}

TEST_F(FaultTest, ArmFromSpecToleratesWhitespace) {
  EXPECT_TRUE(fault::arm_from_spec("  steqr.exhaust  "));
  EXPECT_TRUE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_TRUE(fault::arm_from_spec(" panel.nan : 2 "));
  EXPECT_TRUE(fault::armed(fault::Site::PanelNan));
  EXPECT_TRUE(fault::arm_from_spec("\tgemm.tile_corrupt\t:\t-1\t"));
  EXPECT_TRUE(fault::armed(fault::Site::GemmTileCorrupt));
}

TEST_F(FaultTest, ArmFromSpecRejectsMalformedCounts) {
  EXPECT_FALSE(fault::arm_from_spec("panel.nan:"));        // empty count
  EXPECT_FALSE(fault::arm_from_spec("panel.nan: "));       // whitespace-only count
  EXPECT_FALSE(fault::arm_from_spec("panel.nan:2x"));      // trailing junk
  EXPECT_FALSE(fault::arm_from_spec("panel.nan:2:3"));     // second colon
  EXPECT_FALSE(fault::arm_from_spec("panel.nan:-2"));      // only -1 means unlimited
  EXPECT_FALSE(fault::arm_from_spec("panel.nan:99999999999"));  // overflows int
  EXPECT_FALSE(fault::armed(fault::Site::PanelNan));
}

TEST_F(FaultTest, ArmFromEnvValueParsesLists) {
  EXPECT_TRUE(fault::arm_from_env_value("steqr.exhaust, panel.nan:2 ,verify.residual:-1"));
  EXPECT_TRUE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_TRUE(fault::armed(fault::Site::PanelNan));
  EXPECT_TRUE(fault::armed(fault::Site::VerifyResidual));
  // Empty entries (leading/trailing/doubled commas) are skipped, not errors.
  fault::disarm_all();
  EXPECT_TRUE(fault::arm_from_env_value(",steqr.exhaust,,panel.nan, "));
  EXPECT_TRUE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_TRUE(fault::armed(fault::Site::PanelNan));
  EXPECT_TRUE(fault::arm_from_env_value(""));
}

TEST_F(FaultTest, ArmFromEnvValueReportsFirstMalformedEntryAndArmsTheRest) {
  std::string bad;
  EXPECT_FALSE(fault::arm_from_env_value(
      "steqr.exhaust, bogus.site:3, panel.nan, also.bad", &bad));
  EXPECT_EQ(bad, "bogus.site:3");  // first malformed entry, trimmed
  // Valid entries on either side of the malformed ones are still armed.
  EXPECT_TRUE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_TRUE(fault::armed(fault::Site::PanelNan));
}

TEST_F(FaultTest, NewSiteNamesRegistered) {
  fault::Site site{};
  ASSERT_TRUE(fault::site_from_name("gemm.tile_corrupt", &site));
  EXPECT_EQ(site, fault::Site::GemmTileCorrupt);
  ASSERT_TRUE(fault::site_from_name("verify.residual", &site));
  EXPECT_EQ(site, fault::Site::VerifyResidual);
}

TEST_F(FaultTest, OneShotBudgetAutoDisarms) {
  fault::arm(fault::Site::SteqrExhaust, 1);
  EXPECT_TRUE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_TRUE(fault::should_fire(fault::Site::SteqrExhaust));
  EXPECT_FALSE(fault::should_fire(fault::Site::SteqrExhaust));
  EXPECT_FALSE(fault::armed(fault::Site::SteqrExhaust));
  EXPECT_EQ(fault::fired(fault::Site::SteqrExhaust), 1);
}

TEST_F(FaultTest, DisabledSitesNeverFire) {
  for (int i = 0; i < fault::kSiteCount; ++i)
    EXPECT_FALSE(fault::should_fire(static_cast<fault::Site>(i)));
}

TEST_F(FaultTest, RecoverableCodes) {
  EXPECT_TRUE(is_recoverable(no_convergence_error("x")));
  EXPECT_TRUE(is_recoverable(precision_loss_error("x")));
  EXPECT_TRUE(is_recoverable(singular_panel_error("x")));
  EXPECT_TRUE(is_recoverable(fault_injected_error("x")));
  EXPECT_FALSE(is_recoverable(invalid_input_error("x")));
  EXPECT_FALSE(is_recoverable(ok_status()));
}

// --- Non-convergence status paths -----------------------------------------

TEST_F(FaultTest, SteqrExhaustionReportsStatus) {
  fault::arm(fault::Site::SteqrExhaust, 1);
  std::vector<float> d = {2.0f, 1.0f, 3.0f};
  std::vector<float> e = {0.5f, 0.25f};
  Status st = lapack::steqr<float>(d, e, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::FaultInjected);
  // Retry with the budget spent must succeed.
  d = {2.0f, 1.0f, 3.0f};
  e = {0.5f, 0.25f};
  EXPECT_TRUE(lapack::steqr<float>(d, e, nullptr).ok());
}

TEST_F(FaultTest, SteinFailureReportsStatus) {
  fault::arm(fault::Site::SteinStagnate, 1);
  std::vector<float> d = {1.0f, 2.0f, 4.0f};
  std::vector<float> e = {0.1f, 0.1f};
  auto eigs = *lapack::stebz<float>(d, e, 0, 2);
  Matrix<float> z(3, 3);
  Status st = lapack::stein<float>(d, e, eigs, z.view());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::FaultInjected);
  EXPECT_TRUE(lapack::stein<float>(d, e, eigs, z.view()).ok());
}

TEST_F(FaultTest, ReconstructSingularReportsStatus) {
  fault::arm(fault::Site::ReconstructSingular, 1);
  Matrix<float> q(8, 4);
  set_zero(q.view());
  for (index_t j = 0; j < 4; ++j) q(j, j) = 1.0f;  // trivially orthonormal
  Matrix<float> w(8, 4), y(8, 4);
  std::vector<float> signs;
  Workspace ws;
  Status st =
      tsqr::reconstruct_wy(ws, ConstMatrixView<float>(q.view()), w.view(), y.view(), signs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::FaultInjected);
  EXPECT_TRUE(
      tsqr::reconstruct_wy(ws, ConstMatrixView<float>(q.view()), w.view(), y.view(), signs)
          .ok());
}

// --- Input screening -------------------------------------------------------

/// Every solve entry point screens its input: the full solve, a selected
/// range, and a selected EvdService request all refuse `a` as InvalidInput.
void expect_rejected_everywhere(const Matrix<float>& a) {
  const ConstMatrixView<float> av(a.view());
  tc::Fp32Engine engine;
  Context ctx(engine);
  auto full = evd::solve(av, ctx, {});
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), ErrorCode::InvalidInput);

  evd::EvdOptions with_vectors;
  with_vectors.vectors = true;
  auto sel = evd::solve_selected(av, ctx, with_vectors, 0, 4);
  ASSERT_FALSE(sel.ok()) << "solve_selected accepted unscreened input";
  EXPECT_EQ(sel.status().code(), ErrorCode::InvalidInput);

  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(engine, sopt);
  evd::RequestOptions ropt;
  ropt.selected = true;
  ropt.il = 0;
  ropt.iu = 4;
  auto id = service.submit(av, ropt);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.wait(*id).status.code(), ErrorCode::InvalidInput)
      << "a selected service request accepted unscreened input";
}

TEST_F(FaultTest, SolveRejectsNonFiniteInput) {
  auto nan_pair = test::random_symmetric<float>(32, 7);
  nan_pair(3, 4) = std::numeric_limits<float>::quiet_NaN();
  nan_pair(4, 3) = std::numeric_limits<float>::quiet_NaN();
  expect_rejected_everywhere(nan_pair);

  auto inf_diag = test::random_symmetric<float>(32, 7);
  inf_diag(5, 5) = std::numeric_limits<float>::infinity();
  expect_rejected_everywhere(inf_diag);
}

TEST_F(FaultTest, SolveRejectsAsymmetricInput) {
  auto a = test::random_symmetric<float>(32, 7);
  a(3, 4) += 10.0f;  // gross asymmetry
  expect_rejected_everywhere(a);
}

// Invalid options and shapes are request data: every entry point refuses
// them with InvalidArgument before doing any work. A bandwidth of 0 used to
// divide by zero while sizing the workspace (SIGFPE), and a non-square
// matrix aborted evd::solve in its internal request check.
TEST_F(FaultTest, SolveRejectsBadOptionsAndShapes) {
  tc::Fp32Engine engine;
  Context ctx(engine);
  auto expect_invalid = [](const Status& st, const char* what) {
    EXPECT_EQ(st.code(), ErrorCode::InvalidArgument) << st.to_string();
    EXPECT_NE(st.message().find(what), std::string::npos) << st.to_string();
  };

  auto a = test::random_symmetric<float>(32, 7);
  for (evd::Reduction reduction : {evd::Reduction::TwoStageWy, evd::Reduction::TwoStageDbr,
                                   evd::Reduction::OneStage}) {
    for (index_t bandwidth : {0, -1}) {
      evd::EvdOptions opt;
      opt.reduction = reduction;
      opt.bandwidth = bandwidth;
      expect_invalid(evd::solve(ConstMatrixView<float>(a.view()), ctx, opt).status(),
                     "bandwidth");
      expect_invalid(
          evd::solve_selected(ConstMatrixView<float>(a.view()), ctx, opt, 0, 4).status(),
          "bandwidth");
    }
  }

  Matrix<float> rect(32, 20);
  expect_invalid(evd::solve(ConstMatrixView<float>(rect.view()), ctx, {}).status(), "square");
  expect_invalid(
      evd::solve_selected(ConstMatrixView<float>(rect.view()), ctx, {}, 0, 4).status(),
      "square");

  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(engine, sopt);
  evd::RequestOptions zero_band;
  zero_band.evd.bandwidth = 0;
  expect_invalid(service.submit(ConstMatrixView<float>(a.view()), zero_band).status(),
                 "bandwidth");
  expect_invalid(service.submit(ConstMatrixView<float>(rect.view()), {}).status(), "square");
  EXPECT_EQ(service.stats().submitted, 0);

  // The context is untouched by the refusals: a valid solve runs as usual.
  EXPECT_TRUE(evd::solve(ConstMatrixView<float>(a.view()), ctx, {}).ok());
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
}

// The public workspace estimate clamps the bandwidth into [1, n - 1] instead
// of dividing by zero for bandwidth < 1.
TEST_F(FaultTest, WorkspaceQueryClampsBandwidthBelowOne) {
  evd::EvdOptions opt;
  opt.bandwidth = 1;
  const std::size_t at_one = evd::workspace_query(64, opt);
  EXPECT_GT(at_one, 0u);
  for (index_t bandwidth : {0, -5}) {
    opt.bandwidth = bandwidth;
    EXPECT_EQ(evd::workspace_query(64, opt), at_one) << bandwidth;
  }
}

// --- Per-layer fallbacks ---------------------------------------------------

TEST_F(FaultTest, PanelFallsBackToBlockedQr) {
  fault::arm(fault::Site::ReconstructSingular, 1);
  auto panel_src = test::random_matrix_f(96, 16, 11);
  Matrix<float> panel(96, 16);
  copy_matrix<float>(ConstMatrixView<float>(panel_src.view()), panel.view());
  Matrix<float> w(96, 16), y(96, 16);
  tc::Fp32Engine eng;
  Context ctx(eng);
  recovery::Scope scope;
  Status st =
      sbr::panel_factor_wy(ctx, sbr::PanelKind::Tsqr, panel.view(), w.view(), y.view());
  ASSERT_TRUE(st.ok()) << st.to_string();
  auto log = scope.take();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].site, "sbr.panel");
  // The fallback factorization must still reproduce the panel:
  // (I - W Y^T) [R; 0] == original.
  Matrix<float> rebuilt(96, 16);
  copy_matrix<float>(ConstMatrixView<float>(panel.view()), rebuilt.view());
  Matrix<float> ytr(16, 16);
  blas::gemm<float>(blas::Trans::Yes, blas::Trans::No, 1.0f, ConstMatrixView<float>(y.view()),
                    ConstMatrixView<float>(panel.view()), 0.0f, ytr.view());
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, -1.0f, ConstMatrixView<float>(w.view()),
                    ConstMatrixView<float>(ytr.view()), 1.0f, rebuilt.view());
  EXPECT_LT(test::rel_diff(ConstMatrixView<float>(rebuilt.view()),
                           ConstMatrixView<float>(panel_src.view())),
            1e-4);
}

TEST_F(FaultTest, SbrWyRecoversWhenEveryPanelIsPoisoned) {
  // Unlimited panel.nan: every TSQR panel of every big block falls back to
  // blocked QR, each fallback is noted once, and the result is still an
  // exact band orthogonally similar to A.
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 0xFA17);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 32;
  opt.accumulate_q = true;

  recovery::Scope scope;
  fault::arm(fault::Site::PanelNan, -1);
  auto res = sbr::sbr_wy(ConstMatrixView<float>(a.view()), ctx, opt);
  const int fired = fault::fired(fault::Site::PanelNan);
  fault::disarm_all();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  auto log = scope.take();
  EXPECT_GT(fired, 4) << "expected panels of more than one big block to be poisoned";
  EXPECT_EQ(static_cast<int>(log.size()), fired);
  for (const RecoveryEvent& ev : log) EXPECT_EQ(ev.site, "sbr.panel");

  EXPECT_EQ(sbr::band_violation<float>(res->band.view(), b), 0.0);
  Matrix<float> qb(n, n), qbqt(n, n);
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f,
                    ConstMatrixView<float>(res->q.view()),
                    ConstMatrixView<float>(res->band.view()), 0.0f, qb.view());
  blas::gemm<float>(blas::Trans::No, blas::Trans::Yes, 1.0f, ConstMatrixView<float>(qb.view()),
                    ConstMatrixView<float>(res->q.view()), 0.0f, qbqt.view());
  EXPECT_LT(test::rel_diff(ConstMatrixView<float>(qbqt.view()), ConstMatrixView<float>(a.view())),
            1e-5);
}

TEST_F(FaultTest, EcTcEngineRetriesSaturatedBlockInFp32) {
  // Finite fp32 values beyond fp16's 65504 max saturate the head split; the
  // engine must transparently redo the GEMM in fp32 and match plain SGEMM.
  const index_t n = 24;
  auto a = test::random_matrix_f(n, n, 3);
  auto b = test::random_matrix_f(n, n, 4);
  for (index_t i = 0; i < n; ++i) a(i, i) = 1.0e6f;  // outside fp16 range
  Matrix<float> c(n, n), ref(n, n);
  set_zero(c.view());
  set_zero(ref.view());
  tc::EcTcEngine engine;
  Context ctx(engine);
  recovery::Scope scope;
  engine.gemm(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
              ConstMatrixView<float>(b.view()), 0.0f, c.view());
  EXPECT_GE(engine.fp32_fallbacks(), 1);
  EXPECT_FALSE(scope.take().empty());
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                    ConstMatrixView<float>(b.view()), 0.0f, ref.view());
  EXPECT_LT(test::rel_diff(ConstMatrixView<float>(c.view()), ConstMatrixView<float>(ref.view())),
            1e-6);
}

TEST_F(FaultTest, EcTcGemmCleanWhenInRange) {
  const index_t n = 16;
  auto a = test::random_matrix_f(n, n, 5);
  auto b = test::random_matrix_f(n, n, 6);
  Matrix<float> c(n, n);
  set_zero(c.view());
  EXPECT_TRUE(tc::ec_tcgemm(blas::Trans::No, blas::Trans::No, 1.0f,
                            ConstMatrixView<float>(a.view()), ConstMatrixView<float>(b.view()),
                            0.0f, c.view())
                  .ok());
}

// --- End-to-end graceful degradation (the acceptance bar) ------------------

struct SiteCase {
  fault::Site site;
  evd::TriSolver solver;  // a solver whose path actually visits the site
};

class FaultSiteEvd : public ::testing::TestWithParam<SiteCase> {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_P(FaultSiteEvd, WilkinsonSolveRecovers) {
  const SiteCase& sc = GetParam();
  const index_t n = 512;
  auto a = wilkinson_full(n);

  fault::arm(sc.site, 1);
  tc::EcTcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.solver = sc.solver;
  opt.vectors = true;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(fault::fired(sc.site), 1) << "site never reached by this configuration";
  EXPECT_FALSE(res->recovery.empty());
  EXPECT_TRUE(res->converged);
  const double resid = evd::eigenpair_residual(ConstMatrixView<float>(a.view()),
                                               res->eigenvalues,
                                               ConstMatrixView<float>(res->vectors.view()));
  EXPECT_LT(resid, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultSiteEvd,
    ::testing::Values(
        SiteCase{fault::Site::PanelNan, evd::TriSolver::DivideConquer},
        SiteCase{fault::Site::ReconstructSingular, evd::TriSolver::DivideConquer},
        SiteCase{fault::Site::EcTcSaturate, evd::TriSolver::DivideConquer},
        SiteCase{fault::Site::SteqrExhaust, evd::TriSolver::DivideConquer},
        SiteCase{fault::Site::SteinStagnate, evd::TriSolver::Bisection}),
    [](const ::testing::TestParamInfo<SiteCase>& info) {
      std::string name = fault::site_name(info.param.site);
      for (char& ch : name)
        if (ch == '.') ch = '_';
      return name;
    });

TEST_F(FaultTest, ClusteredSolveRecoversFromPanelNan) {
  const index_t n = 512;
  Rng rng(99);
  auto a = matgen::generate_f(matgen::MatrixType::Cluster1, n, 1e4, rng);

  fault::arm(fault::Site::PanelNan, 1);
  tc::EcTcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(fault::fired(fault::Site::PanelNan), 1);
  EXPECT_FALSE(res->recovery.empty());
  const double resid = evd::eigenpair_residual(ConstMatrixView<float>(a.view()),
                                               res->eigenvalues,
                                               ConstMatrixView<float>(res->vectors.view()));
  EXPECT_LT(resid, 1e-4);
}

TEST_F(FaultTest, SolverChainFallsBackFromDc) {
  // One-shot steqr exhaustion fails D&C: with vectors its steqr base case,
  // without vectors sterf, which fires the same site. The driver must retry
  // with QL and record the switch.
  const index_t n = 128;
  auto a = test::random_symmetric<float>(n, 21);
  for (bool vectors : {true, false}) {
    fault::arm(fault::Site::SteqrExhaust, 1);
    tc::Fp32Engine engine;
    Context ctx(engine);
    evd::EvdOptions opt;
    opt.solver = evd::TriSolver::DivideConquer;
    opt.vectors = vectors;
    auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_EQ(fault::fired(fault::Site::SteqrExhaust), 1) << "vectors " << vectors;
    bool solver_fallback_logged = false;
    for (const auto& ev : res->recovery)
      if (ev.site == "evd.solver") solver_fallback_logged = true;
    EXPECT_TRUE(solver_fallback_logged) << "vectors " << vectors;
  }
}

TEST_F(FaultTest, ExhaustedSolverChainLogsToCallerAndTelemetry) {
  // D&C and QL exhaust, bisection's inverse iteration stagnates: the solve
  // fails, and its two solver-fallback notes reach both the caller's
  // recovery scope and the context's telemetry.
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 22);
  fault::arm(fault::Site::SteqrExhaust, -1);
  fault::arm(fault::Site::SteinStagnate, -1);
  tc::Fp32Engine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  recovery::Scope caller;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  const RecoveryLog log = caller.take();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::FaultInjected) << res.status().to_string();
  for (const RecoveryLog* seen : {&log, &ctx.telemetry().recovery()}) {
    ASSERT_EQ(seen->size(), 2u);
    EXPECT_EQ((*seen)[0].site, "evd.solver");
    EXPECT_NE((*seen)[0].action.find("retrying with ql"), std::string::npos);
    EXPECT_EQ((*seen)[1].site, "evd.solver");
    EXPECT_NE((*seen)[1].action.find("retrying with bisection"), std::string::npos);
  }
}

TEST_F(FaultTest, BisectionSolverComputesVectors) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 23);
  tc::Fp32Engine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.solver = evd::TriSolver::Bisection;
  opt.vectors = true;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  const double resid = evd::eigenpair_residual(ConstMatrixView<float>(a.view()),
                                               res->eigenvalues,
                                               ConstMatrixView<float>(res->vectors.view()));
  EXPECT_LT(resid, 1e-4);
}

TEST_F(FaultTest, SolveSelectedRecoversFromSteinFailure) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 31);
  fault::arm(fault::Site::SteinStagnate, 1);
  tc::Fp32Engine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  auto res = evd::solve_selected(ConstMatrixView<float>(a.view()), ctx, opt, 0, 9);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(fault::fired(fault::Site::SteinStagnate), 1);
  bool noted = false;
  for (const auto& ev : res->recovery)
    if (ev.site == "evd.partial") noted = true;
  EXPECT_TRUE(noted);
  const double resid = evd::eigenpair_residual(ConstMatrixView<float>(a.view()),
                                               res->eigenvalues,
                                               ConstMatrixView<float>(res->vectors.view()));
  EXPECT_LT(resid, 1e-4);
}

TEST_F(FaultTest, ReferenceEigenvaluesReturnsStatusOr) {
  auto a = test::random_symmetric<double>(48, 41);
  auto ref = evd::reference_eigenvalues(ConstMatrixView<double>(a.view()));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->size(), 48u);
  for (std::size_t i = 1; i < ref->size(); ++i) EXPECT_LE((*ref)[i - 1], (*ref)[i]);
}

TEST_F(FaultTest, CleanRunHasEmptyRecoveryLog) {
  auto a = test::random_symmetric<float>(96, 55);
  tc::EcTcEngine engine;
  evd::EvdOptions wy;
  wy.vectors = true;
  // A narrow DBR band (b = 4 < nb = 32, nb a multiple of b) is a supported
  // request as given: no option note either.
  evd::EvdOptions dbr = wy;
  dbr.reduction = evd::Reduction::TwoStageDbr;
  dbr.bandwidth = 4;
  dbr.big_block = 32;
  for (const evd::EvdOptions& opt : {wy, dbr}) {
    Context ctx(engine);
    auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->recovery.empty())
        << (opt.reduction == evd::Reduction::TwoStageDbr ? "dbr" : "wy")
        << ": first note at " << res->recovery.front().site;
    EXPECT_TRUE(ctx.telemetry().recovery().empty());
  }
  EXPECT_EQ(engine.fp32_fallbacks(), 0);
}

}  // namespace
}  // namespace tcevd
