// Successive band reduction: both variants, all engines, panel kinds.
// Checks bandedness (exact), backward error A = Q B Q^T, orthogonality of Q,
// spectrum preservation, WY-vs-ZY agreement, bitwise equality of pooled and
// serial GEMM schedules, and per-call stage telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;
using sbr::PanelKind;
using sbr::SbrOptions;

/// ||A - Q B Q^T||_F / ||A||_F computed in double.
double sbr_backward_error(ConstMatrixView<float> a, ConstMatrixView<float> q,
                          ConstMatrixView<float> b) {
  const index_t n = a.rows();
  Matrix<double> ad(n, n), qd(n, n), bd(n, n);
  convert_matrix<float, double>(a, ad.view());
  convert_matrix<float, double>(q, qd.view());
  convert_matrix<float, double>(b, bd.view());
  Matrix<double> t(n, n), qbqt(n, n);
  blas::gemm(Trans::No, Trans::No, 1.0, qd.view(), bd.view(), 0.0, t.view());
  blas::gemm(Trans::No, Trans::Yes, 1.0, t.view(), qd.view(), 0.0, qbqt.view());
  return frobenius_diff<double>(qbqt.view(), ad.view()) / frobenius_norm<double>(ad.view());
}

/// Reference eigenvalues of a float symmetric matrix, computed in double.
std::vector<double> reference_eigs(ConstMatrixView<float> a) {
  const index_t n = a.rows();
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a, ad.view());
  std::vector<double> d, e, tau;
  lapack::sytrd(ad.view(), d, e, tau);
  TCEVD_CHECK(lapack::sterf(d, e).ok(), "sterf reference failed");
  return d;
}

/// Eigenvalues of the band matrix (through full double tridiagonalization).
std::vector<double> band_eigs(ConstMatrixView<float> band) {
  return reference_eigs(band);
}

/// Number of elements whose bit patterns differ (shapes must match).
long count_bit_mismatches(ConstMatrixView<float> x, ConstMatrixView<float> y) {
  EXPECT_EQ(x.rows(), y.rows());
  EXPECT_EQ(x.cols(), y.cols());
  long diff = 0;
  for (index_t j = 0; j < std::min(x.cols(), y.cols()); ++j)
    for (index_t i = 0; i < std::min(x.rows(), y.rows()); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(float)) != 0) ++diff;
  return diff;
}

struct SbrCase {
  bool wy;  // WY vs ZY
  index_t n, b, nb;
  PanelKind panel;
};

class SbrCorrectnessTest : public ::testing::TestWithParam<SbrCase> {};

TEST_P(SbrCorrectnessTest, Fp32ReducesAndIsBackwardStable) {
  const auto p = GetParam();
  auto a = test::random_symmetric<float>(p.n, 1234 + p.n + p.b);
  SbrOptions opt;
  opt.bandwidth = p.b;
  opt.big_block = p.nb;
  opt.panel = p.panel;
  opt.accumulate_q = true;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = p.wy ? *sbr::sbr_wy(a.view(), ctx, opt) : *sbr::sbr_zy(a.view(), ctx, opt);

  // Exactly banded (panel zeros are written, not computed).
  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), p.b), 0.0);

  // Q orthogonal, A = Q B Q^T.
  EXPECT_LT(orthogonality_error<float>(res.q.view()), 1e-6);
  EXPECT_LT(sbr_backward_error(a.view(), res.q.view(), res.band.view()), 1e-5);

  // Spectrum preserved.
  auto ref = reference_eigs(a.view());
  auto got = band_eigs(res.band.view());
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), p.n) * p.n, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndShapes, SbrCorrectnessTest,
    ::testing::Values(SbrCase{false, 96, 8, 8, PanelKind::Tsqr},
                      SbrCase{false, 96, 8, 8, PanelKind::BlockedQr},
                      SbrCase{false, 130, 16, 16, PanelKind::Tsqr},   // non-multiple n
                      SbrCase{false, 64, 4, 4, PanelKind::Tsqr},
                      SbrCase{true, 96, 8, 32, PanelKind::Tsqr},
                      SbrCase{true, 96, 8, 32, PanelKind::BlockedQr},
                      SbrCase{true, 130, 16, 32, PanelKind::Tsqr},
                      SbrCase{true, 64, 4, 16, PanelKind::Tsqr},
                      SbrCase{true, 100, 8, 8, PanelKind::Tsqr},      // nb == b edge
                      SbrCase{true, 120, 8, 64, PanelKind::Tsqr},     // few big blocks
                      SbrCase{true, 90, 16, 48, PanelKind::Tsqr},
                      SbrCase{true, 33, 16, 16, PanelKind::Tsqr}));   // tiny trailing

TEST(Sbr, ZyWithSyr2kMatchesTwoGemmPath) {
  const index_t n = 80, b = 8;
  auto a = test::random_symmetric<float>(n, 7);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions o1;
  o1.bandwidth = b;
  SbrOptions o2 = o1;
  o2.zy_use_syr2k = true;
  auto r1 = *sbr::sbr_zy(a.view(), ctx, o1);
  auto r2 = *sbr::sbr_zy(a.view(), ctx, o2);
  // Same algorithm, different kernels: results agree to fp32 roundoff.
  EXPECT_LT(test::rel_diff<float>(r1.band.view(), r2.band.view()), 1e-5);
}

TEST(Sbr, WyAndZyProduceSameBandUpToSigns) {
  // The band matrices may differ by a similarity (different reflector
  // composition), but their spectra must agree tightly.
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 9);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions zy;
  zy.bandwidth = b;
  SbrOptions wy = zy;
  wy.big_block = 32;
  auto rz = *sbr::sbr_zy(a.view(), ctx, zy);
  auto rw = *sbr::sbr_wy(a.view(), ctx, wy);
  auto ez = band_eigs(rz.band.view());
  auto ew = band_eigs(rw.band.view());
  EXPECT_LT(eigenvalue_error(ez.data(), ew.data(), n) * n, 1e-5);
}

TEST(Sbr, TensorCoreEngineKeepsTcEpsilonAccuracy) {
  const index_t n = 128, b = 16;
  auto a = test::random_symmetric<float>(n, 11);
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 32;
  opt.accumulate_q = true;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), b), 0.0);
  // Paper Table 3: errors bounded by the TC machine eps ~ 1e-4 (after the
  // 1/N normalization they report ~1e-4; unnormalized stays ~b*eps16).
  EXPECT_LT(sbr_backward_error(a.view(), res.q.view(), res.band.view()), 5e-2);
  EXPECT_LT(orthogonality_error<float>(res.q.view()), 1e-3);
  // And the spectrum is close to the fp64 reference.
  auto ref = reference_eigs(a.view());
  auto got = band_eigs(res.band.view());
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n), 1e-3);
}

TEST(Sbr, EcTcEngineRecoversFp32Accuracy) {
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 13);
  SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 32;
  opt.accumulate_q = true;

  tc::TcEngine tc_eng(tc::TcPrecision::Fp16);
  tc::EcTcEngine ec_eng(tc::TcPrecision::Fp16);
  Context c_tc(tc_eng), c_ec(ec_eng);
  auto r_tc = *sbr::sbr_wy(a.view(), c_tc, opt);
  auto r_ec = *sbr::sbr_wy(a.view(), c_ec, opt);

  const double err_tc = sbr_backward_error(a.view(), r_tc.q.view(), r_tc.band.view());
  const double err_ec = sbr_backward_error(a.view(), r_ec.q.view(), r_ec.band.view());
  EXPECT_LT(err_ec, err_tc / 10.0);  // EC brings accuracy back toward fp32
  EXPECT_LT(err_ec, 1e-4);
}

TEST(Sbr, WyGeneratesSquarerGemmsThanZy) {
  // The paper's central claim, asserted structurally: the flop-weighted
  // inner dimension of WY GEMMs must exceed ZY's (whose k is pinned at b).
  const index_t n = 192, b = 8, nb = 64;
  auto a = test::random_symmetric<float>(n, 17);
  tc::Fp32Engine ez, ew;
  Context cz(ez), cw(ew);
  cz.telemetry().set_recording(true);
  cw.telemetry().set_recording(true);
  SbrOptions zy;
  zy.bandwidth = b;
  SbrOptions wy = zy;
  wy.big_block = nb;
  (void)sbr::sbr_zy(a.view(), cz, zy);
  (void)sbr::sbr_wy(a.view(), cw, wy);

  auto weighted_k = [](const std::vector<tc::GemmShape>& shapes) {
    double fl = 0.0, acc = 0.0;
    for (const auto& s : shapes) {
      acc += s.flops() * static_cast<double>(s.min_dim());
      fl += s.flops();
    }
    return acc / fl;
  };
  const double kz = weighted_k(cz.telemetry().recorded());
  const double kw = weighted_k(cw.telemetry().recorded());
  EXPECT_LE(kz, static_cast<double>(b));       // ZY never exceeds the bandwidth
  EXPECT_GT(kw, 2.0 * static_cast<double>(b)); // WY pushes toward nb

  // And WY does strictly more arithmetic (paper Table 2).
  EXPECT_GT(cw.telemetry().recorded_flops(), cz.telemetry().recorded_flops());
}

TEST(Sbr, CachedOaVariantMatchesLiteral) {
  // SbrOptions::wy_cache_oa_product is a flop-saving reorganisation of the
  // same math; results must agree to fp32 roundoff.
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 31);
  tc::Fp32Engine e1, e2;
  Context c1(e1), c2(e2);
  c1.telemetry().set_recording(true);
  c2.telemetry().set_recording(true);
  SbrOptions lit;
  lit.bandwidth = b;
  lit.big_block = 32;
  lit.wy_cache_oa_product = false;
  SbrOptions cached = lit;
  cached.wy_cache_oa_product = true;
  auto r1 = *sbr::sbr_wy(a.view(), c1, lit);
  auto r2 = *sbr::sbr_wy(a.view(), c2, cached);
  EXPECT_LT(test::rel_diff<float>(r1.band.view(), r2.band.view()), 1e-4);
  // The two runs took different paths: the literal Algorithm 1 recomputes
  // the OA product that the cached variant extends per panel.
  EXPECT_GT(c1.telemetry().recorded_flops(), c2.telemetry().recorded_flops());
}

// The packed GEMM fans large products out on gemm_pool(); tiles are disjoint
// C blocks with the serial k-order, so pooling must not move a single bit of
// the band or of Q. n = 384 with nb = 128 puts the trailing updates well
// above the pool's size floor.
class SbrPooledGemmTest : public ::testing::TestWithParam<tc::EngineKind> {};

TEST_P(SbrPooledGemmTest, WyBandMatchesSerialGemmScopeBitwise) {
  const index_t n = 384;
  auto a = test::random_symmetric<float>(n, 41);
  tc::Fp32Engine fp32;
  tc::TcEngine tc16(tc::TcPrecision::Fp16);
  tc::GemmEngine& eng = GetParam() == tc::EngineKind::Tc ? static_cast<tc::GemmEngine&>(tc16)
                                                         : static_cast<tc::GemmEngine&>(fp32);
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = 32;
  opt.big_block = 128;
  opt.accumulate_q = true;

  const auto before = blas::gemm_pool_dispatches();
  auto pooled = *sbr::sbr_wy(a.view(), ctx, opt);
  EXPECT_GT(blas::gemm_pool_dispatches(), before) << "no GEMM fanned out: the check is vacuous";
  sbr::SbrResult serial;
  {
    blas::SerialGemmScope scope;
    serial = *sbr::sbr_wy(a.view(), ctx, opt);
  }
  EXPECT_EQ(count_bit_mismatches(pooled.band.view(), serial.band.view()), 0);
  EXPECT_EQ(count_bit_mismatches(pooled.q.view(), serial.q.view()), 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, SbrPooledGemmTest,
                         ::testing::Values(tc::EngineKind::Fp32, tc::EngineKind::Tc),
                         [](const ::testing::TestParamInfo<tc::EngineKind>& info) {
                           return std::string(info.param == tc::EngineKind::Tc ? "TcFp16"
                                                                               : "Fp32");
                         });

// Every GEMM an SBR driver issues goes through Context::gemm, and the engine
// only decides how each product is computed: the recorded call stream must
// not depend on the engine kind.
enum class SbrDriver { Wy, Zy, Dbr };

class SbrEngineRoutingTest : public ::testing::TestWithParam<SbrDriver> {};

TEST_P(SbrEngineRoutingTest, GemmStreamDoesNotDependOnTheEngine) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 57);
  SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.accumulate_q = true;
  auto record = [&](tc::GemmEngine& eng) {
    Context ctx(eng);
    ctx.telemetry().set_recording(true);
    auto res = GetParam() == SbrDriver::Wy   ? sbr::sbr_wy(a.view(), ctx, opt)
               : GetParam() == SbrDriver::Zy ? sbr::sbr_zy(a.view(), ctx, opt)
                                             : sbr::sbr_dbr(a.view(), ctx, opt);
    EXPECT_TRUE(res.ok()) << eng.name() << ": " << res.status().to_string();
    return ctx.telemetry().recorded();
  };
  tc::Fp32Engine fp32;
  const std::vector<tc::GemmShape> want = record(fp32);
  ASSERT_FALSE(want.empty());
  tc::TcEngine tc16(tc::TcPrecision::Fp16), tf32(tc::TcPrecision::Tf32);
  tc::EcTcEngine ectc(tc::TcPrecision::Fp16);
  for (tc::GemmEngine* eng : {static_cast<tc::GemmEngine*>(&tc16),
                              static_cast<tc::GemmEngine*>(&tf32),
                              static_cast<tc::GemmEngine*>(&ectc)}) {
    const std::vector<tc::GemmShape> got = record(*eng);
    ASSERT_EQ(got.size(), want.size()) << eng->name();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].m, want[i].m) << eng->name() << " call " << i;
      EXPECT_EQ(got[i].n, want[i].n) << eng->name() << " call " << i;
      EXPECT_EQ(got[i].k, want[i].k) << eng->name() << " call " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Drivers, SbrEngineRoutingTest,
                         ::testing::Values(SbrDriver::Wy, SbrDriver::Zy, SbrDriver::Dbr),
                         [](const ::testing::TestParamInfo<SbrDriver>& info) {
                           return std::string(info.param == SbrDriver::Wy   ? "Wy"
                                              : info.param == SbrDriver::Zy ? "Zy"
                                                                            : "Dbr");
                         });

TEST(Sbr, SingleBigBlockYieldsOneWyBlock) {
  // n = 20, b = 8, nb = 16: the first big block's two panels reach every
  // column outside the band (the second one short, m = 4 < b), so the
  // recursion ends after one block.
  const index_t n = 20, b = 8;
  auto a = test::random_symmetric<float>(n, 0x51A6);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 16;
  opt.accumulate_q = true;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_EQ(res.blocks.size(), 1u);
  EXPECT_EQ(res.blocks[0].row_offset, b);
  EXPECT_EQ(res.blocks[0].w.cols(), 16);
  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), b), 0.0);
  EXPECT_LT(sbr_backward_error(a.view(), res.q.view(), res.band.view()), 1e-5);
}

TEST(Sbr, StageTelemetryAccumulatesPerCallOnContext) {
  // n = 130, b = 16, nb = 32: four big blocks, each leaving a trailing
  // matrix, so sbr_dbr records one trailing stage per WY block.
  const index_t n = 130;
  auto a = test::random_symmetric<float>(n, 0x57A6E);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 32;
  auto calls = [&](const char* stage) {
    for (const Telemetry::StageStat& st : ctx.telemetry().stages())
      if (st.name == stage) return st.calls;
    return 0L;
  };

  ASSERT_TRUE(sbr::sbr_wy(a.view(), ctx, opt).ok());
  EXPECT_EQ(calls("sbr.wy"), 1);
  EXPECT_EQ(calls("sbr.dbr"), 0);
  EXPECT_EQ(calls("sbr.dbr.trailing"), 0);  // sbr_wy times only the whole call

  auto res = *sbr::sbr_dbr(a.view(), ctx, opt);
  ASSERT_EQ(res.blocks.size(), 4u);
  EXPECT_EQ(calls("sbr.dbr"), 1);
  EXPECT_EQ(calls("sbr.dbr.trailing"), 4);

  // A second call adds to the same keys instead of opening new ones.
  const std::size_t keys = ctx.telemetry().stages().size();
  ASSERT_TRUE(sbr::sbr_wy(a.view(), ctx, opt).ok());
  ASSERT_TRUE(sbr::sbr_dbr(a.view(), ctx, opt).ok());
  EXPECT_EQ(ctx.telemetry().stages().size(), keys);
  EXPECT_EQ(calls("sbr.wy"), 2);
  EXPECT_EQ(calls("sbr.dbr"), 2);
  EXPECT_EQ(calls("sbr.dbr.trailing"), 8);
}

TEST(Sbr, FormWMatchesProgressiveAccumulation) {
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 19);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions wy;
  wy.bandwidth = b;
  wy.big_block = 32;
  wy.accumulate_q = true;  // uses form_q internally
  auto rw = *sbr::sbr_wy(a.view(), ctx, wy);

  // Progressive reference: apply blocks one by one to the identity.
  Matrix<float> q(n, n);
  set_identity(q.view());
  for (const auto& blk : rw.blocks) {
    const index_t rows = blk.w.rows();
    const index_t cols = blk.w.cols();
    auto qcols = q.sub(0, blk.row_offset, n, rows);
    Matrix<float> t(n, cols);
    blas::gemm(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(qcols), blk.w.view(), 0.0f,
               t.view());
    blas::gemm(Trans::No, Trans::Yes, -1.0f, t.view(), blk.y.view(), 1.0f, qcols);
  }
  EXPECT_LT(test::rel_diff<float>(rw.q.view(), q.view()), 1e-5);
}

TEST(Sbr, PanelFactorBothKindsAgree) {
  const index_t m = 200, k = 12;
  auto a = test::random_matrix_f(m, k, 21);
  tc::Fp32Engine eng;
  Context ctx(eng);
  for (auto kind : {PanelKind::Tsqr, PanelKind::BlockedQr}) {
    Matrix<float> panel = a;
    Matrix<float> w(m, k), y(m, k);
    ASSERT_TRUE(sbr::panel_factor_wy(ctx, kind, panel.view(), w.view(), y.view()).ok());
    // panel now holds [R; 0]; (I - W Y^T) [R; 0] must equal A.
    Matrix<float> rebuilt(m, k);
    copy_matrix<float>(ConstMatrixView<float>(panel.view()), rebuilt.view());
    Matrix<float> ytr(k, k);
    blas::gemm(Trans::Yes, Trans::No, 1.0f, y.view(), panel.view(), 0.0f, ytr.view());
    blas::gemm(Trans::No, Trans::No, -1.0f, w.view(), ytr.view(), 1.0f, rebuilt.view());
    EXPECT_LT(test::rel_diff<float>(rebuilt.view(), a.view()), 1e-4);
    for (index_t j = 0; j < k; ++j)
      for (index_t i = j + 1; i < m; ++i) EXPECT_EQ(panel(i, j), 0.0f);
  }
}

TEST(Sbr, ShortPanelFallback) {
  // m < k panels must not crash (exercised by odd trailing sizes).
  const index_t m = 5, k = 8;
  auto a = test::random_matrix_f(m, k, 23);
  Matrix<float> panel = a;
  Matrix<float> w(m, k), y(m, k);
  tc::Fp32Engine eng;
  Context ctx(eng);
  ASSERT_TRUE(
      sbr::panel_factor_wy(ctx, PanelKind::Tsqr, panel.view(), w.view(), y.view()).ok());
  Matrix<float> rebuilt(m, k);
  copy_matrix<float>(ConstMatrixView<float>(panel.view()), rebuilt.view());
  Matrix<float> ytr(m, k);
  blas::gemm(Trans::Yes, Trans::No, 1.0f, y.sub(0, 0, m, m), panel.view(), 0.0f,
             ytr.sub(0, 0, m, k));
  blas::gemm(Trans::No, Trans::No, -1.0f, w.sub(0, 0, m, m), ytr.sub(0, 0, m, k), 1.0f,
             rebuilt.view());
  EXPECT_LT(test::rel_diff<float>(rebuilt.view(), a.view()), 1e-4);
}

TEST(Sbr, BandUtilities) {
  Matrix<float> a(6, 6);
  a(5, 0) = 3.0f;  // far outside any small band
  a(1, 0) = 1.0f;
  EXPECT_EQ(sbr::band_violation<float>(a.view(), 1), 3.0);
  EXPECT_EQ(sbr::band_violation<float>(a.view(), 5), 0.0);
  sbr::truncate_to_band<float>(a.view(), 1);
  EXPECT_EQ(a(5, 0), 0.0f);
  EXPECT_EQ(a(1, 0), 1.0f);

  Matrix<float> s(3, 3);
  s(0, 1) = 2.0f;
  EXPECT_EQ(sbr::symmetry_violation<float>(s.view()), 2.0);
  s(1, 0) = 2.0f;
  EXPECT_EQ(sbr::symmetry_violation<float>(s.view()), 0.0);
}

TEST(Sbr, AlreadyBandedInputPreservedUpToSigns) {
  // Input with bandwidth exactly b: panels are already upper trapezoidal, so
  // the reduction only re-signs rows/columns (Householder beta = -sign(x1)
  // convention). Structure, diagonal, and spectrum must be unchanged.
  const index_t n = 48, b = 8;
  Rng rng(29);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<float>(a.view(), b);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 16;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), b), 0.0);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(res.band(i, i), a(i, i), 1e-4);
  auto ref = reference_eigs(a.view());
  auto got = band_eigs(res.band.view());
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n) * n, 1e-5);
}

}  // namespace
}  // namespace tcevd
