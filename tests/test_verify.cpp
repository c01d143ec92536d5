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
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/recovery.hpp"
#include "src/common/verify.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/pipeline.hpp"
#include "src/evd/service.hpp"
#include "src/matgen/matgen.hpp"
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
  recovery::Scope scope;
  {
    blas::abft::AbftScope abft;
    fault::arm(fault::Site::GemmTileCorrupt, 1);
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
                      ConstMatrixView<float>(b.view()), 0.0f, c.view());
  }
  EXPECT_EQ(fault::fired(fault::Site::GemmTileCorrupt), 1);
  EXPECT_EQ(blas::abft::tiles_detected(), detected0 + 1);
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

TEST_F(VerifyTest, AbftCoversOnlyTheRequestThatAskedForIt) {
  // An abft = true solve checks its own GEMMs, every stage's. It must not
  // check anyone else's: neither a GEMM another thread runs meanwhile (an
  // EvdService runner serving a different request) nor one on either thread
  // after the solve.
  const index_t n = 128;
  auto a = test::random_symmetric<float>(n, 57);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.abft = true;

  const index_t m = 64;
  auto x = test::random_matrix_f(m, m, 58);
  auto y = test::random_matrix_f(m, m, 59);
  auto plain_gemm = [&] {
    Matrix<float> c(m, m);
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f,
                      ConstMatrixView<float>(x.view()), ConstMatrixView<float>(y.view()),
                      0.0f, c.view());
  };

  const auto checked0 = blas::abft::tiles_checked();
  auto before_solver = checked0;
  const evd::StageGate gate = [&](evd::Stage stage) {
    if (stage == evd::Stage::Solver) {
      EXPECT_GT(blas::abft::tiles_checked(), checked0) << "the reduction's GEMMs went unchecked";
      const auto mid = blas::abft::tiles_checked();
      std::thread other(plain_gemm);
      other.join();
      EXPECT_EQ(blas::abft::tiles_checked(), mid) << "another thread's GEMM was checked";
      before_solver = mid;
    }
    return ok_status();
  };
  auto res = evd::run_solve(ConstMatrixView<float>(a.view()), ctx, opt, std::nullopt, gate);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  const auto after = blas::abft::tiles_checked();
  EXPECT_GT(after, before_solver) << "the solver stage went unchecked";  // D&C's z*V

  EXPECT_FALSE(blas::abft::enabled());
  plain_gemm();
  std::thread other(plain_gemm);
  other.join();
  EXPECT_EQ(blas::abft::tiles_checked(), after) << "a GEMM after the solve was checked";
}

TEST_F(VerifyTest, AbftScopeChecksOnlyItsOwnThreadsGemmsOnEveryWorker) {
  // While this thread holds a scope, a GEMM another thread calls goes
  // unchecked, and a pooled GEMM this thread calls is checked on whichever
  // pool worker runs each tile.
  const index_t n = 160;  // 2n^3 ~ 8.2 Mflop: above the pooling floor
  auto a = test::random_matrix_f(n, n, 60);
  auto b = test::random_matrix_f(n, n, 61);
  auto gemm = [&] {
    Matrix<float> c(n, n);
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f,
                      ConstMatrixView<float>(a.view()), ConstMatrixView<float>(b.view()),
                      0.0f, c.view());
  };
  blas::abft::AbftScope abft;
  const auto checked0 = blas::abft::tiles_checked();
  std::thread other(gemm);
  other.join();
  EXPECT_EQ(blas::abft::tiles_checked(), checked0) << "another thread's GEMM was checked";

  const auto pooled0 = blas::gemm_pool_dispatches();
  gemm();
  EXPECT_GT(blas::gemm_pool_dispatches(), pooled0) << "no GEMM fanned out: the check is vacuous";
  // n, and the kMC row block, are multiples of the micro-tile: every tile is full.
  const auto tiles = static_cast<std::uint64_t>((n / blas::packed::kMR) * (n / blas::packed::kNR));
  EXPECT_EQ(blas::abft::tiles_checked() - checked0, tiles);
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
  auto sel_ref = evd::solve_selected(ConstMatrixView<float>(a.view()), sel_ref_ctx, opt, 0, 9);
  ASSERT_TRUE(sel_ref.ok());
  const auto checked0 = blas::abft::tiles_checked();
  auto sel = evd::solve_selected(ConstMatrixView<float>(a.view()), sel_ctx, abft_opt, 0, 9);
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

// A Normal matrix scaled by 1e4 passes the input screen, but tc-fp16's
// trailing updates overflow fp16, so a panel of the reduction holds a
// non-finite entry. The screen rules out the input as its source, so the
// solve reports the overflow as PrecisionLoss, which escalation can recover.
Matrix<float> fp16_overflow_input() {
  const index_t n = 256;
  Rng rng(1);
  const auto ad = matgen::generate(matgen::MatrixType::Normal, n, 0.0, rng);
  Matrix<float> a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) a(i, j) = static_cast<float>(ad(i, j) * 1e4);
  return a;
}

evd::EvdOptions fp16_overflow_options() {
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageDbr;
  opt.bandwidth = 32;
  opt.big_block = 128;
  return opt;
}

TEST_F(VerifyTest, Fp16OverflowInReductionIsPrecisionLoss) {
  const auto a = fp16_overflow_input();
  tc::TcEngine engine(tc::TcPrecision::Fp16);
  Context ctx(engine);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, fp16_overflow_options());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::PrecisionLoss) << res.status().to_string();
  EXPECT_TRUE(is_recoverable(res.status()));
}

TEST_F(VerifyTest, Fp16OverflowInReductionEscalatesToErrorCorrectedEngine) {
  const auto a = fp16_overflow_input();
  tc::TcEngine engine(tc::TcPrecision::Fp16);
  Context ctx(engine);
  evd::EvdOptions opt = fp16_overflow_options();
  opt.verify = verify::Policy::EstimateEscalate;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_TRUE(res->verify.passed);
  EXPECT_EQ(res->verify.attempts, 2);
  EXPECT_EQ(res->verify.engine, "ectc-fp16");
  bool escalation_noted = false;
  for (const auto& ev : res->recovery)
    if (ev.site == "evd.verify" && ev.action.find("PrecisionLoss") != std::string::npos &&
        ev.action.find("re-solving") != std::string::npos)
      escalation_noted = true;
  EXPECT_TRUE(escalation_noted);
}

// ZY's last trailing block overflows fp16 at the same scale but is never a
// panel, so the non-finite entries reach the tridiagonal form. Bisection used
// to return finite garbage for it (eigenvalue errors of about twice max|λ|)
// with an Ok status.
TEST_F(VerifyTest, Fp16OverflowOutsideEveryPanelIsPrecisionLoss) {
  const auto a = fp16_overflow_input();
  tc::TcEngine engine(tc::TcPrecision::Fp16);
  evd::EvdOptions opt = fp16_overflow_options();
  opt.reduction = evd::Reduction::TwoStageZy;
  Context ctx(engine);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::PrecisionLoss) << res.status().to_string();

  opt.verify = verify::Policy::EstimateEscalate;
  Context vctx(engine);
  auto verified = evd::solve(ConstMatrixView<float>(a.view()), vctx, opt);
  ASSERT_TRUE(verified.ok()) << verified.status().to_string();
  EXPECT_TRUE(verified->verify.passed);
  EXPECT_EQ(verified->verify.engine, "ectc-fp16");
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

  // Unlimited forced breaches from Tc: the loop walks the whole chain
  // Tc -> EcTc -> Fp32 and stops when it runs out.
  {
    tc::TcEngine engine;
    Context ctx(engine);
    evd::EvdOptions opt;
    opt.vectors = true;
    opt.verify = verify::Policy::EstimateEscalate;
    fault::arm(fault::Site::VerifyResidual, -1);
    auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
    const int fired = fault::fired(fault::Site::VerifyResidual);
    fault::disarm_all();
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), ErrorCode::PrecisionLoss);
    EXPECT_EQ(fired, 3);  // one per attempt
    EXPECT_NE(res.status().message().find("chain is exhausted (already on 'fp32')"),
              std::string::npos)
        << res.status().message();
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

/// Index of the first event at `site` whose action contains `text`, or
/// log.size() when there is none.
std::size_t first_event(const RecoveryLog& log, const char* site, const char* text) {
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log[i].site == site && log[i].action.find(text) != std::string::npos) return i;
  return log.size();
}

/// How many events of `log` have `ev`'s site and action.
long occurrences(const RecoveryLog& log, const RecoveryEvent& ev) {
  long count = 0;
  for (const RecoveryEvent& e : log)
    if (e.site == ev.site && e.action == ev.action) ++count;
  return count;
}

TEST_F(VerifyTest, ExhaustedChainHandsItsWholeLogToCallerAndTelemetry) {
  // A failed solve returns no EvdResult: its whole log (three breaches, two
  // re-solve notes and the give-up) goes to the caller's recovery scope in
  // the order it happened, and to the context's telemetry exactly once.
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 67);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  fault::arm(fault::Site::VerifyResidual, -1);
  recovery::Scope caller;
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  const RecoveryLog log = caller.take();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::PrecisionLoss);

  const char* expected[] = {"breached", "re-solving", "breached",
                            "re-solving", "breached", "chain is exhausted"};
  ASSERT_EQ(log.size(), std::size(expected));
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].site, "evd.verify") << i;
    EXPECT_NE(log[i].action.find(expected[i]), std::string::npos) << i << ": " << log[i].action;
    EXPECT_EQ(occurrences(ctx.telemetry().recovery(), log[i]), 1) << log[i].action;
  }
  EXPECT_EQ(ctx.telemetry().recovery().size(), log.size());
}

TEST_F(VerifyTest, EscalatedSolveLogsAttemptsInTheOrderTheyRan) {
  // Attempt 1 (Tc) breaches; attempt 2 (EC-TC) replays a saturated GEMM in
  // fp32 and passes. The breach and the re-solve note come first.
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 72);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  fault::arm(fault::Site::VerifyResidual, 1);
  fault::arm(fault::Site::EcTcSaturate, 1);
  auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(res->verify.attempts, 2);
  EXPECT_EQ(fault::fired(fault::Site::EcTcSaturate), 1);

  const RecoveryLog& log = res->recovery;
  const std::size_t breach = first_event(log, "evd.verify", "breached");
  const std::size_t resolve = first_event(log, "evd.verify", "re-solving");
  const std::size_t replay = first_event(log, "ec_tcgemm", "");
  ASSERT_LT(replay, log.size());
  EXPECT_LT(breach, resolve);
  EXPECT_LT(resolve, replay);
  ASSERT_EQ(ctx.telemetry().recovery().size(), log.size());
  for (const RecoveryEvent& ev : log)
    EXPECT_EQ(occurrences(ctx.telemetry().recovery(), ev), 1) << ev.action;
}

TEST_F(VerifyTest, EscalatedSolveRunsEveryStageAgainFromReduction) {
  // The gate sees one whole pass per attempt: a breach on Tc runs the
  // pipeline again on EC-TC from the reduction, verification included.
  using evd::Stage;
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 66);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  fault::arm(fault::Site::VerifyResidual, 1);
  std::vector<Stage> seen;
  const evd::StageGate gate = [&seen](Stage stage) {
    seen.push_back(stage);
    return ok_status();
  };
  auto res = evd::run_solve(ConstMatrixView<float>(a.view()), ctx, opt, std::nullopt, gate);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(res->verify.attempts, 2);
  EXPECT_EQ(res->verify.escalations, 1);
  const std::vector<Stage> want = {Stage::Reduction, Stage::Bulge, Stage::Solver, Stage::Verify,
                                   Stage::Reduction, Stage::Bulge, Stage::Solver, Stage::Verify};
  EXPECT_EQ(seen, want);
}

TEST_F(VerifyTest, GateFailureEndsAVerifiedSolveWithoutEscalating) {
  // A gate's Status ends the solve before the stage it was asked about,
  // whichever stage that is: no later stage runs, the verified solve does
  // not escalate on it, and the solve's workspace is released.
  using evd::Stage;
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 73);
  tc::TcEngine engine;
  evd::EvdOptions opt;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;
  const std::vector<Stage> pass = {Stage::Reduction, Stage::Bulge, Stage::Solver, Stage::Verify};
  for (std::size_t stop = 0; stop < pass.size(); ++stop) {
    Context ctx(engine);
    std::vector<Stage> seen;
    const evd::StageGate gate = [&](Stage stage) {
      seen.push_back(stage);
      return stage == pass[stop] ? Status(ErrorCode::Internal, "gate closed") : ok_status();
    };
    auto res = evd::run_solve(ConstMatrixView<float>(a.view()), ctx, opt, std::nullopt, gate);
    ASSERT_FALSE(res.ok()) << stop;
    EXPECT_EQ(res.status().code(), ErrorCode::Internal) << stop;
    EXPECT_EQ(res.status().message(), "gate closed") << stop;
    const std::vector<Stage> want(pass.begin(),
                                  pass.begin() + static_cast<std::ptrdiff_t>(stop) + 1);
    EXPECT_EQ(seen, want) << stop;
    EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u) << stop;
    EXPECT_EQ(first_event(ctx.telemetry().recovery(), "evd.verify", ""),
              ctx.telemetry().recovery().size())
        << stop;
    EXPECT_EQ(&ctx.engine(), &engine) << stop;
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

// --- isolation across service requests --------------------------------------

/// Verification tallies over a request set: escalations taken, and requests
/// whose verification never passed — a breached verdict returned annotated
/// (Estimate) or an escalation chain that gave up (PrecisionLoss).
struct VerifyTally {
  long escalations = 0;
  long failures = 0;
};

VerifyTally tally(const std::vector<evd::RequestResult>& results) {
  VerifyTally t;
  for (const evd::RequestResult& r : results) {
    t.escalations += r.verify.escalations;
    if ((r.verify.checked && !r.verify.passed) ||
        r.status.code() == ErrorCode::PrecisionLoss)
      ++t.failures;
  }
  return t;
}

TEST_F(VerifyTest, ServiceIsolatesAVerificationFailure) {
  // One forced breach, one runner (deterministic request order): exactly one
  // request is annotated as failed verification, its neighbours pass clean.
  const index_t n = 48;
  std::vector<Matrix<float>> problems;
  for (int i = 0; i < 3; ++i) problems.push_back(test::random_symmetric<float>(n, 80 + i));

  tc::Fp32Engine engine;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(engine, sopt);
  evd::RequestOptions opt;
  opt.evd.vectors = true;
  opt.evd.verify = verify::Policy::Estimate;
  fault::arm(fault::Site::VerifyResidual, 1);
  auto res = test::solve_all(service, problems, opt);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(test::num_ok(res), 3u);  // Estimate annotates, never fails the solve
  EXPECT_EQ(tally(res).failures, 1);
  EXPECT_EQ(tally(res).escalations, 0);
  EXPECT_FALSE(res[0].verify.passed);  // first request ate the budget
  EXPECT_TRUE(res[1].verify.passed);
  EXPECT_TRUE(res[2].verify.passed);
}

TEST_F(VerifyTest, ServiceCountsEscalationsAndExhaustedChains) {
  const index_t n = 48;
  std::vector<Matrix<float>> problems;
  for (int i = 0; i < 3; ++i) problems.push_back(test::random_symmetric<float>(n, 90 + i));

  // Fp32 is terminal: the forced breach cannot escalate, so request 0 fails
  // with PrecisionLoss while its neighbours still verify and pass.
  tc::Fp32Engine engine;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(engine, sopt);
  evd::RequestOptions opt;
  opt.evd.vectors = true;
  opt.evd.verify = verify::Policy::EstimateEscalate;
  fault::arm(fault::Site::VerifyResidual, 1);
  auto res = test::solve_all(service, problems, opt);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].status.code(), ErrorCode::PrecisionLoss);
  EXPECT_TRUE(res[1].status.ok());
  EXPECT_TRUE(res[2].status.ok());
  EXPECT_EQ(test::num_ok(res), 2u);
  EXPECT_EQ(tally(res).failures, 1);
  EXPECT_TRUE(res[1].verify.passed);
  EXPECT_TRUE(res[2].verify.passed);

  // On Tc the same breach escalates once to EC-TC and passes: one
  // escalation, no failure.
  tc::TcEngine tc_engine(tc::TcPrecision::Fp16);
  evd::EvdService tc_service(tc_engine, sopt);
  fault::arm(fault::Site::VerifyResidual, 1);
  auto escalated = test::solve_all(tc_service, problems, opt);
  EXPECT_EQ(test::num_ok(escalated), 3u);
  EXPECT_EQ(tally(escalated).escalations, 1);
  EXPECT_EQ(tally(escalated).failures, 0);
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
    opt.vectors = true;
    opt.verify = policy;
    auto res = evd::solve_selected(ConstMatrixView<float>(a.view()), ctx, opt, 4, 11);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_TRUE(notes_skip(res->recovery)) << verify::policy_name(policy);
    EXPECT_EQ(ctx.telemetry().stage_seconds("evd.verify"), 0.0);
  }
  Context ctx(engine);
  evd::EvdOptions off_opt;
  off_opt.vectors = true;
  auto off = evd::solve_selected(ConstMatrixView<float>(a.view()), ctx, off_opt, 4, 11);
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

TEST_F(VerifyTest, ZeroMatrixPassesVerification) {
  // ||A||_F = 0: the exact zero spectrum must pass the values-only estimate
  // (its relative errors are 0/0), not escalate until the chain runs out.
  const index_t n = 24;
  Matrix<float> a(n, n);
  tc::Fp32Engine engine;
  for (const bool vectors : {false, true}) {
    Context ctx(engine);
    evd::EvdOptions opt;
    opt.bandwidth = 4;
    opt.vectors = vectors;
    opt.verify = verify::Policy::EstimateEscalate;
    auto res = evd::solve(ConstMatrixView<float>(a.view()), ctx, opt);
    ASSERT_TRUE(res.ok()) << "vectors " << vectors << ": " << res.status().to_string();
    EXPECT_TRUE(res->verify.passed) << "vectors " << vectors;
    EXPECT_EQ(res->verify.attempts, 1) << "vectors " << vectors;
    for (float l : res->eigenvalues) EXPECT_EQ(l, 0.0f);
  }
}

}  // namespace
}  // namespace tcevd
