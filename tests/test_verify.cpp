// Verified solves: stochastic residual estimation, ABFT-checksummed GEMM,
// and residual-gated precision escalation (DESIGN.md §12).
//
// The acceptance bar this file enforces: with gemm.tile_corrupt armed, an
// ABFT-enabled solve detects the corrupted tile, recomputes it, and returns
// a result bitwise-equal to the fault-free solve; the same corruption with
// ABFT off produces a residual breach that the estimate+escalate policy
// converts into a passing re-solve on a better engine — both paths visible
// in the RecoveryLog and Telemetry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/recovery.hpp"
#include "src/common/verify.hpp"
#include "src/evd/batch.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/tensorcore/engine.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "tests/test_util.hpp"

namespace tcevd {
namespace {

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

/// Exact ||A - Q diag(lambda) Qᵀ||_F / ||A||_F and ||QᵀQ - I||_F, in double.
struct ExactResiduals {
  double residual;
  double orthogonality;
};

ExactResiduals exact_residuals(ConstMatrixView<float> a, const std::vector<float>& lambda,
                               ConstMatrixView<float> q) {
  const index_t n = a.rows();
  Matrix<double> qd(n, n);
  convert_matrix<float, double>(q, qd.view());
  Matrix<double> ql(n, n);  // Q * diag(lambda)
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      ql(i, j) = qd(i, j) * static_cast<double>(lambda[static_cast<std::size_t>(j)]);
  Matrix<double> rec(n, n);
  blas::gemm<double>(blas::Trans::No, blas::Trans::Yes, 1.0,
                     ConstMatrixView<double>(ql.view()), ConstMatrixView<double>(qd.view()),
                     0.0, rec.view());
  double rnum = 0.0;
  double anorm = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(a(i, j)) - rec(i, j);
      rnum += d * d;
      anorm += static_cast<double>(a(i, j)) * static_cast<double>(a(i, j));
    }
  Matrix<double> qtq(n, n);
  blas::gemm<double>(blas::Trans::Yes, blas::Trans::No, 1.0,
                     ConstMatrixView<double>(qd.view()), ConstMatrixView<double>(qd.view()),
                     0.0, qtq.view());
  double onum = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double d = qtq(i, j) - (i == j ? 1.0 : 0.0);
      onum += d * d;
    }
  return {std::sqrt(rnum) / std::sqrt(anorm), std::sqrt(onum)};
}

std::unique_ptr<tc::GemmEngine> make_engine(int kind) {
  if (kind == 0) return std::make_unique<tc::Fp32Engine>();
  if (kind == 1) return std::make_unique<tc::TcEngine>();
  return std::make_unique<tc::EcTcEngine>();
}

// --- estimator -------------------------------------------------------------

TEST_F(VerifyTest, PolicyNames) {
  EXPECT_STREQ(verify::policy_name(verify::Policy::Off), "off");
  EXPECT_STREQ(verify::policy_name(verify::Policy::Estimate), "estimate");
  EXPECT_STREQ(verify::policy_name(verify::Policy::EstimateEscalate), "estimate+escalate");
}

TEST_F(VerifyTest, ThresholdsScaleWithEngineAndOrder) {
  const auto fp32 = verify::thresholds_for(tc::EngineKind::Fp32, 128);
  const auto tc16 = verify::thresholds_for(tc::EngineKind::Tc, 128);
  const auto ectc = verify::thresholds_for(tc::EngineKind::EcTc, 128);
  // fp16 numerics get a far looser gate than anything fp32-accurate.
  EXPECT_GT(tc16.residual, 10.0 * ectc.residual);
  EXPECT_GT(ectc.residual, fp32.residual);
  // Thresholds grow with n and scale linearly with tol_scale.
  EXPECT_GT(verify::thresholds_for(tc::EngineKind::Fp32, 512).residual, fp32.residual);
  EXPECT_NEAR(verify::thresholds_for(tc::EngineKind::Fp32, 128, 2.0).residual,
              2.0 * fp32.residual, 1e-12);
}

TEST_F(VerifyTest, EstimatorAgreesWithExactResidualsAcrossEngines) {
  // The probe estimate targets the same Frobenius quantities the exact
  // O(n^3) computation measures; with 4 probes it must land within a small
  // constant factor — and, on clean solves, within threshold.
  for (int kind = 0; kind < 3; ++kind) {
    for (index_t n : {static_cast<index_t>(64), static_cast<index_t>(96)}) {
      auto a = test::random_symmetric<float>(n, 1000 + 10 * kind + n);
      auto engine = make_engine(kind);
      Context ctx(*engine);
      evd::EvdOptions opt;
      opt.vectors = true;
      auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
      ASSERT_TRUE(res.ok()) << res.status().to_string();

      const ExactResiduals exact = exact_residuals(
          ConstMatrixView<float>(a.view()), res->eigenvalues,
          ConstMatrixView<float>(res->vectors.view()));
      verify::Options vopt;
      const verify::Report rep = verify::estimate(
          ConstMatrixView<float>(a.view()), res->eigenvalues,
          ConstMatrixView<float>(res->vectors.view()), engine->kind(), vopt);

      ASSERT_TRUE(rep.checked);
      EXPECT_TRUE(rep.passed) << engine->name() << " n=" << n
                              << " res=" << rep.residual << " orth=" << rep.orthogonality;
      // Agreement within 8x both ways (4-probe Frobenius estimates of
      // full-rank error matrices concentrate much tighter than this).
      EXPECT_LT(rep.residual, 8.0 * exact.residual + 1e-12);
      EXPECT_GT(8.0 * rep.residual, exact.residual - 1e-12);
      EXPECT_LT(rep.orthogonality, 8.0 * exact.orthogonality + 1e-12);
      EXPECT_GT(8.0 * rep.orthogonality, exact.orthogonality - 1e-12);
    }
  }
}

TEST_F(VerifyTest, EstimatorFlagsDamagedEigensystem) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 77);
  tc::Fp32Engine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok());

  verify::Options vopt;
  // Damaged eigenvalue -> residual breach (Q still orthogonal).
  auto lambda = res->eigenvalues;
  lambda[0] += 100.0f;
  verify::Report rep = verify::estimate(ConstMatrixView<float>(a.view()), lambda,
                                        ConstMatrixView<float>(res->vectors.view()),
                                        tc::EngineKind::Fp32, vopt);
  EXPECT_FALSE(rep.passed);
  EXPECT_GT(rep.residual, rep.residual_tol);

  // Damaged eigenvector column -> orthogonality breach.
  Matrix<float> q2(n, n);
  copy_matrix<float>(ConstMatrixView<float>(res->vectors.view()), q2.view());
  for (index_t i = 0; i < n; ++i) q2(i, 0) *= 2.0f;
  rep = verify::estimate(ConstMatrixView<float>(a.view()), res->eigenvalues,
                         ConstMatrixView<float>(q2.view()), tc::EngineKind::Fp32, vopt);
  EXPECT_FALSE(rep.passed);
  EXPECT_GT(rep.orthogonality, rep.orthogonality_tol);
}

TEST_F(VerifyTest, EigenvalueOnlyInvariantsGateCorruptSpectra) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 33);
  tc::Fp32Engine engine;
  Context ctx(engine);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, {});
  ASSERT_TRUE(res.ok());

  verify::Options vopt;
  verify::Report rep = verify::estimate_values(ConstMatrixView<float>(a.view()),
                                               res->eigenvalues, tc::EngineKind::Fp32, vopt);
  EXPECT_TRUE(rep.passed) << "clean trace/frobenius error " << rep.residual;
  EXPECT_EQ(rep.orthogonality, 0.0);

  auto bad = res->eigenvalues;
  bad[n / 2] += 50.0f;  // breaks both Σλ = tr A and Σλ² = ||A||_F²
  rep = verify::estimate_values(ConstMatrixView<float>(a.view()), bad,
                                tc::EngineKind::Fp32, vopt);
  EXPECT_FALSE(rep.passed);
}

// --- ABFT: detect -> locate -> recompute -----------------------------------

TEST_F(VerifyTest, AbftCleanGemmIsBitwiseIdenticalAndCounted) {
  const index_t n = 96;
  auto a = test::random_matrix_f(n, n, 5);
  auto b = test::random_matrix_f(n, n, 6);
  Matrix<float> ref(n, n), c(n, n);
  set_zero(ref.view());
  set_zero(c.view());
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                    ConstMatrixView<float>(b.view()), 0.0f, ref.view());

  const auto checked0 = blas::abft::tiles_checked();
  const auto detected0 = blas::abft::tiles_detected();
  {
    blas::abft::AbftScope abft;
    ASSERT_TRUE(blas::abft::enabled());
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                      ConstMatrixView<float>(b.view()), 0.0f, c.view());
  }
  EXPECT_FALSE(blas::abft::enabled());
  EXPECT_GT(blas::abft::tiles_checked(), checked0);
  EXPECT_EQ(blas::abft::tiles_detected(), detected0);  // no false positives
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), sizeof(float) * n * n), 0);
}

TEST_F(VerifyTest, AbftDetectsAndBitwiseRestoresCorruptedTile) {
  const index_t n = 96;
  auto a = test::random_matrix_f(n, n, 15);
  auto b = test::random_matrix_f(n, n, 16);
  Matrix<float> ref(n, n), c(n, n);
  set_zero(ref.view());
  set_zero(c.view());
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                    ConstMatrixView<float>(b.view()), 0.0f, ref.view());

  const auto detected0 = blas::abft::tiles_detected();
  const auto recomputed0 = blas::abft::tiles_recomputed();
  recovery::Scope scope;
  {
    blas::abft::AbftScope abft;
    fault::arm(fault::Site::GemmTileCorrupt, 1);
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                      ConstMatrixView<float>(b.view()), 0.0f, c.view());
  }
  EXPECT_EQ(fault::fired(fault::Site::GemmTileCorrupt), 1);
  EXPECT_EQ(blas::abft::tiles_detected(), detected0 + 1);
  EXPECT_EQ(blas::abft::tiles_recomputed(), recomputed0 + 1);
  // Recompute replays the identical accumulation: bitwise-restored result.
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), sizeof(float) * n * n), 0);
  const RecoveryLog log = scope.take();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].site, "blas.abft");
  EXPECT_NE(log[0].action.find("checksum mismatch"), std::string::npos);
}

TEST_F(VerifyTest, AbftCoversTcGemmRoundedOperands) {
  // tc_gemm packs fp16-rounded panels; the checksums are computed from those
  // same packed (rounded) panels, so the invariant holds there too.
  const index_t n = 80;
  auto a = test::random_matrix_f(n, n, 25);
  auto b = test::random_matrix_f(n, n, 26);
  Matrix<float> ref(n, n), c(n, n);
  set_zero(ref.view());
  set_zero(c.view());
  tc::tc_gemm(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
              ConstMatrixView<float>(b.view()), 0.0f, ref.view());
  const auto detected0 = blas::abft::tiles_detected();
  {
    blas::abft::AbftScope abft;
    fault::arm(fault::Site::GemmTileCorrupt, 1);
    tc::tc_gemm(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                ConstMatrixView<float>(b.view()), 0.0f, c.view());
  }
  EXPECT_EQ(blas::abft::tiles_detected(), detected0 + 1);
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), sizeof(float) * n * n), 0);
}

TEST_F(VerifyTest, CorruptionWithoutAbftSilentlyLandsInResult) {
  // The negative control: nothing checks the tile, the bad value stays.
  const index_t n = 64;
  auto a = test::random_matrix_f(n, n, 35);
  auto b = test::random_matrix_f(n, n, 36);
  Matrix<float> ref(n, n), c(n, n);
  set_zero(ref.view());
  set_zero(c.view());
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                    ConstMatrixView<float>(b.view()), 0.0f, ref.view());
  fault::arm(fault::Site::GemmTileCorrupt, 1);
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                    ConstMatrixView<float>(b.view()), 0.0f, c.view());
  EXPECT_EQ(fault::fired(fault::Site::GemmTileCorrupt), 1);
  EXPECT_NE(std::memcmp(c.data(), ref.data(), sizeof(float) * n * n), 0);
}

// --- end-to-end: the acceptance scenario -----------------------------------

TEST_F(VerifyTest, AbftSolveUnderCorruptionIsBitwiseEqualToFaultFree) {
  const index_t n = 128;
  auto a = test::random_symmetric<float>(n, 55);
  tc::TcEngine engine;
  evd::EvdOptions opt;
  opt.vectors = true;

  Context ref_ctx(engine);
  auto ref = evd::solve(ConstMatrixView<float>(a.view()), ref_ctx, opt);
  ASSERT_TRUE(ref.ok());

  evd::EvdOptions abft_opt = opt;
  abft_opt.abft = true;
  fault::arm(fault::Site::GemmTileCorrupt, 1);
  Context ctx(engine);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, abft_opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(fault::fired(fault::Site::GemmTileCorrupt), 1);

  // Detect -> locate -> recompute happened, and the result is bitwise the
  // fault-free solve.
  bool abft_noted = false;
  for (const auto& ev : res->recovery)
    if (ev.site == "blas.abft") abft_noted = true;
  EXPECT_TRUE(abft_noted);
  EXPECT_EQ(res->eigenvalues, ref->eigenvalues);
  ASSERT_EQ(res->vectors.rows(), n);
  EXPECT_EQ(std::memcmp(res->vectors.data(), ref->vectors.data(), sizeof(float) * n * n), 0);
  // The aggregated telemetry carries the recovery event too.
  bool in_telemetry = false;
  for (const auto& ev : ctx.telemetry().recovery())
    if (ev.site == "blas.abft") in_telemetry = true;
  EXPECT_TRUE(in_telemetry);

  // A selected range runs the same reduction and bulge stages, so ABFT
  // checks its tiles too and leaves its bits alone.
  Context sel_ref_ctx(engine), sel_ctx(engine);
  auto sel_ref = evd::solve_selected(ConstMatrixView<float>(a.view()), sel_ref_ctx, opt, 0,
                                     9, true);
  ASSERT_TRUE(sel_ref.ok());
  const auto checked0 = blas::abft::tiles_checked();
  auto sel = evd::solve_selected(ConstMatrixView<float>(a.view()), sel_ctx, abft_opt, 0, 9,
                                 true);
  ASSERT_TRUE(sel.ok()) << sel.status().to_string();
  EXPECT_GT(blas::abft::tiles_checked(), checked0) << "selected solve skipped ABFT";
  EXPECT_EQ(sel->eigenvalues, sel_ref->eigenvalues);
  ASSERT_EQ(sel->vectors.cols(), 10);
  EXPECT_EQ(std::memcmp(sel->vectors.data(), sel_ref->vectors.data(), sizeof(float) * n * 10),
            0);
}

TEST_F(VerifyTest, EscalationConvertsCorruptionIntoPassingResolve) {
  // Same corruption, ABFT off: the residual gate catches it after the fact
  // and estimate+escalate re-solves on the next engine up.
  const index_t n = 128;
  auto a = test::random_symmetric<float>(n, 55);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  fault::arm(fault::Site::GemmTileCorrupt, 1);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(fault::fired(fault::Site::GemmTileCorrupt), 1);

  EXPECT_TRUE(res->verify.checked);
  EXPECT_TRUE(res->verify.passed);
  EXPECT_GE(res->verify.escalations, 1);
  EXPECT_GE(res->verify.attempts, 2);
  EXPECT_NE(res->verify.engine, engine.name());  // accepted on a better engine

  bool breach_noted = false;
  bool resolve_noted = false;
  for (const auto& ev : res->recovery) {
    if (ev.site != "evd.verify") continue;
    if (ev.action.find("breached") != std::string::npos ||
        ev.action.find("failed") != std::string::npos)
      breach_noted = true;
    if (ev.action.find("re-solving") != std::string::npos) resolve_noted = true;
  }
  EXPECT_TRUE(breach_noted);
  EXPECT_TRUE(resolve_noted);
  EXPECT_GT(ctx.telemetry().stage_seconds("evd.verify"), 0.0);
  // The escalation counter stage records one call per escalation.
  bool escalation_stage = false;
  for (const auto& s : ctx.telemetry().stages())
    if (s.name == "evd.verify.escalation" && s.calls >= 1) escalation_stage = true;
  EXPECT_TRUE(escalation_stage);
}

TEST_F(VerifyTest, EscalationWalksTheFullChainToFp32) {
  // verify.residual forces a breach on the first two attempts; the chain
  // must walk Tc -> EcTc -> Fp32 and accept on the third.
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 66);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  opt.verify_max_attempts = 3;
  fault::arm(fault::Site::VerifyResidual, 2);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(res->verify.attempts, 3);
  EXPECT_EQ(res->verify.escalations, 2);
  EXPECT_EQ(res->verify.engine, "fp32");
  EXPECT_TRUE(res->verify.passed);
}

TEST_F(VerifyTest, EscalationTerminatesWhenBudgetOrChainExhausts) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 67);

  // Unlimited forced breaches: the attempt budget must stop the loop.
  {
    tc::TcEngine engine;
    Context ctx(engine);
    evd::EvdOptions opt;
    opt.vectors = true;
    opt.verify = verify::Policy::EstimateEscalate;
    opt.verify_max_attempts = 2;
    fault::arm(fault::Site::VerifyResidual, -1);
    auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
    fault::disarm_all();
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), ErrorCode::PrecisionLoss);
    EXPECT_EQ(fault::fired(fault::Site::VerifyResidual), 2);  // one per attempt
  }
  // Already on the terminal engine: the chain ends immediately.
  {
    tc::Fp32Engine engine;
    Context ctx(engine);
    evd::EvdOptions opt;
    opt.vectors = true;
    opt.verify = verify::Policy::EstimateEscalate;
    fault::arm(fault::Site::VerifyResidual, 1);
    auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), ErrorCode::PrecisionLoss);
    EXPECT_NE(res.status().message().find("chain is exhausted"), std::string::npos);
  }
}

TEST_F(VerifyTest, EstimatePolicyAnnotatesWithoutResolving) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 68);
  tc::Fp32Engine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::Estimate;
  fault::arm(fault::Site::VerifyResidual, 1);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();  // annotated, not failed
  EXPECT_TRUE(res->verify.checked);
  EXPECT_FALSE(res->verify.passed);
  EXPECT_TRUE(res->verify.fault_forced);
  EXPECT_EQ(res->verify.attempts, 1);
  EXPECT_EQ(res->verify.escalations, 0);
  bool noted = false;
  for (const auto& ev : res->recovery)
    if (ev.site == "evd.verify") noted = true;
  EXPECT_TRUE(noted);
}

TEST_F(VerifyTest, VerificationOffLeavesResultUnchecked) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 69);
  tc::Fp32Engine engine;
  Context ctx(engine);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, {});
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->verify.checked);
  EXPECT_EQ(ctx.telemetry().stage_seconds("evd.verify"), 0.0);
}

TEST_F(VerifyTest, CleanVerifiedSolvePassesFirstAttempt) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 70);
  tc::EcTcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_TRUE(res->verify.passed);
  EXPECT_EQ(res->verify.attempts, 1);
  EXPECT_EQ(res->verify.escalations, 0);
  EXPECT_EQ(res->verify.engine, engine.name());
  EXPECT_GT(res->timings.verify_s, 0.0);
}

// --- batch isolation --------------------------------------------------------

TEST_F(VerifyTest, SolveManyIsolatesAVerificationFailure) {
  // One forced breach, one worker (deterministic problem order): exactly one
  // problem is annotated as failed verification, its neighbors pass clean.
  const index_t n = 48;
  std::vector<Matrix<float>> problems;
  for (int i = 0; i < 3; ++i) problems.push_back(test::random_symmetric<float>(n, 80 + i));

  tc::Fp32Engine engine;
  evd::BatchOptions opt;
  opt.evd.vectors = true;
  opt.evd.verify = verify::Policy::Estimate;
  opt.num_threads = 1;
  fault::arm(fault::Site::VerifyResidual, 1);
  auto batch = evd::solve_many(problems, engine, opt);
  ASSERT_EQ(batch.problems.size(), 3u);
  EXPECT_TRUE(batch.all_ok());  // Estimate annotates, never fails the solve
  EXPECT_EQ(batch.verify_failures, 1);
  EXPECT_FALSE(batch.problems[0].verify.passed);  // first problem ate the budget
  EXPECT_TRUE(batch.problems[1].verify.passed);
  EXPECT_TRUE(batch.problems[2].verify.passed);
}

TEST_F(VerifyTest, SolveManyCountsEscalationsAndExhaustedChains) {
  const index_t n = 48;
  std::vector<Matrix<float>> problems;
  for (int i = 0; i < 3; ++i) problems.push_back(test::random_symmetric<float>(n, 90 + i));

  // Fp32 is terminal: the forced breach cannot escalate, so problem 0 fails
  // with PrecisionLoss while its neighbors still verify and pass.
  tc::Fp32Engine engine;
  evd::BatchOptions opt;
  opt.evd.vectors = true;
  opt.evd.verify = verify::Policy::EstimateEscalate;
  opt.num_threads = 1;
  fault::arm(fault::Site::VerifyResidual, 1);
  auto batch = evd::solve_many(problems, engine, opt);
  ASSERT_EQ(batch.problems.size(), 3u);
  EXPECT_FALSE(batch.problems[0].status.ok());
  EXPECT_EQ(batch.problems[0].status.code(), ErrorCode::PrecisionLoss);
  EXPECT_TRUE(batch.problems[1].status.ok());
  EXPECT_TRUE(batch.problems[2].status.ok());
  EXPECT_EQ(batch.num_ok(), 2u);
  EXPECT_EQ(batch.verify_failures, 1);
  EXPECT_TRUE(batch.problems[1].verify.passed);
  EXPECT_TRUE(batch.problems[2].verify.passed);
}

TEST_F(VerifyTest, SelectedRangeNotesSkippedVerification) {
  // The estimators need the full spectrum, so a selected range cannot be
  // verified — but a requested policy must not vanish without a trace.
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 71);
  tc::Fp32Engine engine;
  auto notes_skip = [](const RecoveryLog& log) {
    for (const auto& ev : log)
      if (ev.site == "evd.verify") return true;
    return false;
  };
  for (verify::Policy policy : {verify::Policy::Estimate, verify::Policy::EstimateEscalate}) {
    Context ctx(engine);
    evd::EvdOptions opt;
    opt.verify = policy;
    auto res = evd::solve_selected(ConstMatrixView<float>(a.view()), ctx, opt, 4, 11, true);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_TRUE(notes_skip(res->recovery)) << verify::policy_name(policy);
    EXPECT_EQ(ctx.telemetry().stage_seconds("evd.verify"), 0.0);
  }
  Context ctx(engine);
  auto off = evd::solve_selected(ConstMatrixView<float>(a.view()), ctx, {}, 4, 11, true);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(notes_skip(off->recovery));
}

TEST_F(VerifyTest, TrivialOrdersSkipVerification) {
  Matrix<float> a(1, 1);
  a(0, 0) = 3.0f;
  tc::Fp32Engine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->verify.checked);
  EXPECT_FLOAT_EQ(res->eigenvalues[0], 3.0f);
}

}  // namespace
}  // namespace tcevd
