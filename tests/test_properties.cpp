// Property-based sweeps: randomized invariants that must hold across sizes,
// seeds, bandwidths, engines, and matrix classes. Each TEST_P case draws
// several random instances; failures print the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "src/common/context.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/service.hpp"
#include "src/matgen/matgen.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

// ---------------------------------------------------------------------------
// Property: eigenvalue sum equals the trace, product-free invariants.
// ---------------------------------------------------------------------------

class TraceInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceInvariantTest, EigenvalueSumEqualsTrace) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const index_t n = 32 + static_cast<index_t>(rng.bounded(96));
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());

  double trace = 0.0;
  for (index_t i = 0; i < n; ++i) trace += a(i, i);

  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged) << "seed " << seed;

  double sum = 0.0;
  for (float v : res.eigenvalues) sum += v;
  EXPECT_NEAR(sum, trace, 1e-3 * std::max(1.0, std::abs(trace)) + 1e-3 * n)
      << "seed " << seed << " n " << n;
}

TEST_P(TraceInvariantTest, FrobeniusNormEqualsEigenvalueNorm) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xabcdef);
  const index_t n = 32 + static_cast<index_t>(rng.bounded(64));
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());

  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);

  double s = 0.0;
  for (float v : res.eigenvalues) s += double(v) * double(v);
  const double fn = frobenius_norm<float>(a.view());
  EXPECT_NEAR(std::sqrt(s), fn, 1e-3 * fn) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariantTest,
                         ::testing::Values<std::uint64_t>(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Property: SBR invariants hold for every (b, nb) configuration.
// ---------------------------------------------------------------------------

class SbrConfigSweep
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, std::uint64_t>> {};

TEST_P(SbrConfigSweep, BandStructureAndSpectrumInvariant) {
  const auto [b, nb_mult, seed] = GetParam();
  Rng rng(seed);
  const index_t n = 64 + static_cast<index_t>(rng.bounded(64));
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());

  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = b * nb_mult;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);

  // Structure: exactly banded.
  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), b), 0.0) << "seed " << seed;

  // Spectrum invariant: Frobenius norm is preserved by orthogonal similarity.
  EXPECT_NEAR(frobenius_norm<float>(res.band.view()), frobenius_norm<float>(a.view()),
              1e-3 * frobenius_norm<float>(a.view()))
      << "b=" << b << " nbx=" << nb_mult << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SbrConfigSweep,
    ::testing::Combine(::testing::Values<index_t>(4, 8, 16),
                       ::testing::Values<index_t>(1, 2, 4),
                       ::testing::Values<std::uint64_t>(1, 2)));

// ---------------------------------------------------------------------------
// Property: determinism — same inputs, same bits.
// ---------------------------------------------------------------------------

TEST(Determinism, SbrWyIsBitwiseReproducible) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 42);
  tc::TcEngine e1(tc::TcPrecision::Fp16), e2(tc::TcPrecision::Fp16);
  Context c1(e1), c2(e2);
  sbr::SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  auto r1 = *sbr::sbr_wy(a.view(), c1, opt);
  auto r2 = *sbr::sbr_wy(a.view(), c2, opt);
  EXPECT_EQ(frobenius_diff<float>(r1.band.view(), r2.band.view()), 0.0);
}

TEST(Determinism, EvdIsBitwiseReproducible) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 43);
  tc::Fp32Engine e1, e2;
  Context c1(e1), c2(e2);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  auto r1 = *evd::solve(a.view(), c1, opt);
  auto r2 = *evd::solve(a.view(), c2, opt);
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(r1.eigenvalues[static_cast<std::size_t>(i)],
              r2.eigenvalues[static_cast<std::size_t>(i)]);
}

// ---------------------------------------------------------------------------
// Property: similarity shifts — eigenvalues of A + c I are lambda + c.
// ---------------------------------------------------------------------------

TEST(ShiftInvariance, DiagonalShiftMovesSpectrum) {
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 44);
  Matrix<float> shifted = a;
  const float c = 3.25f;
  for (index_t i = 0; i < n; ++i) shifted(i, i) += c;

  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  auto r1 = *evd::solve(a.view(), ctx, opt);
  auto r2 = *evd::solve(shifted.view(), ctx, opt);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(r2.eigenvalues[static_cast<std::size_t>(i)],
                r1.eigenvalues[static_cast<std::size_t>(i)] + c, 1e-3);
}

TEST(ShiftInvariance, NegationFlipsAndReversesSpectrum) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 45);
  Matrix<float> neg(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) neg(i, j) = -a(i, j);

  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  auto r1 = *evd::solve(a.view(), ctx, opt);
  auto r2 = *evd::solve(neg.view(), ctx, opt);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(r2.eigenvalues[static_cast<std::size_t>(i)],
                -r1.eigenvalues[static_cast<std::size_t>(n - 1 - i)], 1e-3);
}

// ---------------------------------------------------------------------------
// Property: engine accuracy ordering fp32 <= ectc < tc on the same problem.
// ---------------------------------------------------------------------------

class EngineOrderingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrderingTest, BackwardErrorOrdering) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const index_t n = 96;
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto ref = *evd::reference_eigenvalues(ad.view());

  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  auto err_for = [&](tc::GemmEngine& eng) {
    Context ctx(eng);
    auto res = *evd::solve(a.view(), ctx, opt);
    std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
    return eigenvalue_error(ref.data(), got.data(), n);
  };
  tc::Fp32Engine fp;
  tc::EcTcEngine ec;
  tc::TcEngine tchalf;
  const double e_fp = err_for(fp);
  const double e_ec = err_for(ec);
  const double e_tc = err_for(tchalf);
  EXPECT_LT(e_fp, e_tc) << "seed " << seed;
  EXPECT_LT(e_ec, e_tc) << "seed " << seed;
  EXPECT_LT(e_ec, 20.0 * e_fp) << "seed " << seed;  // EC ~ fp32 class
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderingTest,
                         ::testing::Values<std::uint64_t>(7, 17, 27));

// ---------------------------------------------------------------------------
// Property: all matgen classes survive the TC pipeline within TC eps.
// ---------------------------------------------------------------------------

class MatrixClassSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatrixClassSweep, TcPipelineBounded) {
  const auto row = matgen::paper_accuracy_rows()[static_cast<std::size_t>(GetParam())];
  const index_t n = 128;
  Rng rng(900 + GetParam());
  auto ad = matgen::generate(row.type, n, row.cond, rng);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());
  auto ref = *evd::reference_eigenvalues(ad.view());

  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 32;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
  // Paper Table 4 bound: E_s under the TC machine eps.
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n), 1e-4)
      << matgen::matrix_type_name(row.type, row.cond);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, MatrixClassSweep, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Property: decomposition invariants the batched and single-solve paths
// share — eigenvalue ordering, ||Q^T Q - I||, ||A - Q L Q^T|| / ||A|| —
// across matgen spectrum classes including sign-flipped (indefinite) ones.
// ---------------------------------------------------------------------------

// A = Q diag(s) Q^T with the prescribed spectrum of `type` and every other
// eigenvalue's sign flipped when `flip` — an indefinite variant of the SPD
// matgen classes, with the flipped spectrum returned (ascending) in *out.
Matrix<float> signed_spectrum_matrix(matgen::MatrixType type, index_t n, double cond,
                                     bool flip, Rng& rng, std::vector<double>* out) {
  auto s = matgen::prescribed_spectrum(type, n, cond);
  if (flip)
    for (std::size_t i = 0; i < s.size(); i += 2) s[i] = -s[i];
  auto q = matgen::random_orthogonal(n, rng);
  Matrix<double> sq(n, n), a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) sq(i, j) = s[static_cast<std::size_t>(j)] * q(i, j);
  blas::gemm(Trans::No, Trans::Yes, 1.0, sq.view(), q.view(), 0.0, a.view());
  make_symmetric(a.view());
  std::sort(s.begin(), s.end());
  *out = std::move(s);
  Matrix<float> af(n, n);
  convert_matrix<double, float>(a.view(), af.view());
  return af;
}

struct DecompCase {
  matgen::MatrixType type;
  double cond;
  bool flip;  ///< sign-flip half the spectrum (indefinite variant)
};

class DecompositionInvariants
    : public ::testing::TestWithParam<std::tuple<DecompCase, std::uint64_t>> {};

TEST_P(DecompositionInvariants, OrderingOrthogonalityAndReconstruction) {
  const auto [c, seed] = GetParam();
  Rng rng(seed);
  const index_t n = 48 + static_cast<index_t>(rng.bounded(48));
  std::vector<double> expected;
  Matrix<float> a = signed_spectrum_matrix(c.type, n, c.cond, c.flip, rng, &expected);

  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged) << "seed " << seed;

  // Ascending order, and the prescribed spectrum recovered.
  for (std::size_t i = 0; i + 1 < res.eigenvalues.size(); ++i)
    EXPECT_LE(res.eigenvalues[i], res.eigenvalues[i + 1]) << "seed " << seed;
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 1e-3)
        << "seed " << seed << " flip " << c.flip;

  // ||Q^T Q - I|| and ||A - Q L Q^T||_F / ||A||_F.
  EXPECT_LT(orthogonality_error<float>(res.vectors.view()), 1e-3) << "seed " << seed;
  Matrix<float> lq(n, n), rec(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      lq(i, j) = res.vectors(i, j) * res.eigenvalues[static_cast<std::size_t>(j)];
  blas::gemm<float>(Trans::No, Trans::Yes, 1.0f, lq.view(), res.vectors.view(), 0.0f,
                    rec.view());
  EXPECT_LT(test::rel_diff<float>(rec.view(), a.view()), 1e-3) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SpectrumClasses, DecompositionInvariants,
    ::testing::Combine(
        ::testing::Values(DecompCase{matgen::MatrixType::Cluster0, 1e3, false},
                          DecompCase{matgen::MatrixType::Cluster1, 1e3, true},
                          DecompCase{matgen::MatrixType::Geo, 1e4, false},
                          DecompCase{matgen::MatrixType::Geo, 1e2, true},
                          DecompCase{matgen::MatrixType::Arith, 1e3, true}),
        ::testing::Values<std::uint64_t>(101, 202)));

// The same invariants hold — bitwise — through EvdService: a set of
// requests must be the single-solve path run N times, nothing more.
TEST(DecompositionInvariantsBatch, BatchedPathSharesSingleSolveInvariants) {
  const index_t n = 56;
  Rng rng(4242);
  std::vector<Matrix<float>> batch;
  std::vector<std::vector<double>> expected(4);
  batch.reserve(4);
  for (int i = 0; i < 4; ++i)
    batch.push_back(signed_spectrum_matrix(matgen::MatrixType::Geo, n, 1e3, i % 2 == 1, rng,
                                           &expected[static_cast<std::size_t>(i)]));

  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 4;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  auto bres = test::solve_all(service, batch, ropt);
  ASSERT_EQ(test::num_ok(bres), batch.size());

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& p = bres[i];
    for (std::size_t j = 0; j + 1 < p.eigenvalues.size(); ++j)
      EXPECT_LE(p.eigenvalues[j], p.eigenvalues[j + 1]);
    EXPECT_LT(orthogonality_error<float>(p.vectors.view()), 1e-3) << "problem " << i;
    EXPECT_LT(evd::eigenpair_residual(batch[i].view(), p.eigenvalues, p.vectors.view()), 1e-2)
        << "problem " << i;

    Context ctx(eng);
    auto sres = *evd::solve(batch[i].view(), ctx, ropt.evd);
    for (std::size_t j = 0; j < sres.eigenvalues.size(); ++j)
      EXPECT_EQ(p.eigenvalues[j], sres.eigenvalues[j]) << "problem " << i;
    EXPECT_EQ(frobenius_diff<float>(p.vectors.view(), sres.vectors.view()), 0.0)
        << "problem " << i;
  }
}

// ---------------------------------------------------------------------------
// Property: SBR band-width postcondition for awkward n — odd and prime
// orders not divisible by nb (partial trailing blocks on every level).
// ---------------------------------------------------------------------------

class SbrAwkwardOrders
    : public ::testing::TestWithParam<std::tuple<index_t, std::uint64_t>> {};

TEST_P(SbrAwkwardOrders, BandPostconditionForOddPrimeOrders) {
  const auto [n, seed] = GetParam();
  ASSERT_EQ(n % 2, 1) << "sweep is about odd/prime orders";
  Rng rng(seed);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());

  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;  // never divides an odd n: every sweep ends ragged
  ASSERT_NE(n % opt.big_block, 0);
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);

  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), opt.bandwidth), 0.0)
      << "n=" << n << " seed " << seed;
  const double fa = frobenius_norm<float>(a.view());
  EXPECT_NEAR(frobenius_norm<float>(res.band.view()), fa, 1e-3 * fa) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(OddPrimes, SbrAwkwardOrders,
                         ::testing::Combine(::testing::Values<index_t>(67, 83, 97, 101, 127),
                                            ::testing::Values<std::uint64_t>(5, 6)));

// ---------------------------------------------------------------------------
// Degenerate inputs.
// ---------------------------------------------------------------------------

TEST(Degenerate, ZeroMatrix) {
  const index_t n = 40;
  Matrix<float> a(n, n);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  for (float v : res.eigenvalues) EXPECT_EQ(v, 0.0f);
}

TEST(Degenerate, IdentityMatrix) {
  const index_t n = 33;
  Matrix<float> a(n, n);
  set_identity(a.view());
  tc::TcEngine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 4;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  for (float v : res.eigenvalues) EXPECT_NEAR(v, 1.0f, 1e-5f);
}

TEST(Degenerate, RankOneMatrix) {
  const index_t n = 50;
  Rng rng(46);
  std::vector<float> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  Matrix<float> a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      a(i, j) = x[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(j)];
  double xn2 = 0.0;
  for (float v : x) xn2 += double(v) * double(v);

  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.eigenvalues.back(), xn2, 1e-3 * xn2);
  for (index_t i = 0; i + 1 < n; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)], 0.0f, 1e-3f * float(xn2));
}

TEST(Degenerate, TinyMatrices) {
  for (index_t n : {2, 3, 4, 5}) {
    auto a = test::random_symmetric<float>(n, 47 + n);
    tc::Fp32Engine eng;
    Context ctx(eng);
    evd::EvdOptions opt;
    opt.bandwidth = 1;
    auto res = *evd::solve(a.view(), ctx, opt);
    ASSERT_TRUE(res.converged) << n;
    Matrix<double> ad(n, n);
    convert_matrix<float, double>(a.view(), ad.view());
    auto ref = *evd::reference_eigenvalues(ad.view());
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)],
                  ref[static_cast<std::size_t>(i)], 1e-4)
          << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Property: the second stage preserves the spectrum end-to-end, and its lane
// count never moves a bit. Random matrices with SIGNED spectra at prime
// orders (worst case for the SBR blocking and, at 1031, for the wavefront's
// sweep-block remainders), for both full-width (TwoStageWy, b = 8) and
// narrow-band (TwoStageDbr, b = 2) second stages.
// ---------------------------------------------------------------------------

// matgen Normal draws a prescribed spectrum from N(0,1): signed by
// construction (negative and positive eigenvalues in every draw).
Matrix<double> signed_spectrum_matrix(index_t n) {
  Rng rng(3100 + static_cast<std::uint64_t>(n));
  return matgen::generate(matgen::MatrixType::Normal, n, 0.0, rng);
}

evd::EvdOptions wavefront_options(evd::Reduction reduction) {
  evd::EvdOptions opt;
  opt.reduction = reduction;
  opt.vectors = true;
  // DBR's narrow band leaves the bulge chase all the work.
  opt.bandwidth = reduction == evd::Reduction::TwoStageDbr ? 2 : 8;
  opt.big_block = 32;
  return opt;
}

class BulgeWavefrontInvariant
    : public ::testing::TestWithParam<std::tuple<index_t, evd::Reduction>> {};

TEST_P(BulgeWavefrontInvariant, SpectrumPreserved) {
  const auto [n, reduction] = GetParam();
  auto ad = signed_spectrum_matrix(n);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());
  auto ref = *evd::reference_eigenvalues(ad.view());

  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, wavefront_options(reduction));
  ASSERT_TRUE(res.converged);

  // Signed spectrum preserved against the double one-stage reference.
  std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n), 1e-4) << "n=" << n;
  EXPECT_LT(got.front(), 0.0) << "spectrum not signed — test lost its point";
  EXPECT_GT(got.back(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PrimeOrders, BulgeWavefrontInvariant,
    ::testing::Combine(::testing::Values<index_t>(61, 101, 127),
                       ::testing::Values(evd::Reduction::TwoStageWy,
                                         evd::Reduction::TwoStageDbr)));

// From bulge::kAutoLanesMinN up, a vectors solve chases on gemm_pool()'s
// lanes (when the pool has workers). The whole solve — eigenvalues AND
// eigenvectors — must be bitwise the same solve inside a SerialGemmScope,
// whose chase runs the plain sweep loop, because the wavefront is pinned to
// the serial rotation sequence. 1031 is the first prime past the crossover.
class BulgeWavefrontSolve : public ::testing::TestWithParam<evd::Reduction> {};

TEST_P(BulgeWavefrontSolve, AutoLanesBitwiseEqualToSerialGemmScope) {
  const index_t n = 1031;
  static_assert(n >= bulge::kAutoLanesMinN);
  auto ad = signed_spectrum_matrix(n);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());
  const evd::EvdOptions opt = wavefront_options(GetParam());

  tc::Fp32Engine eng;
  Context cw(eng);
  auto wave = *evd::solve(a.view(), cw, opt);
  ASSERT_TRUE(wave.converged);

  Context cs(eng);
  evd::EvdResult serial;
  {
    blas::SerialGemmScope serial_scope;
    serial = *evd::solve(a.view(), cs, opt);
  }
  ASSERT_TRUE(serial.converged);
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(wave.eigenvalues[static_cast<std::size_t>(i)],
              serial.eigenvalues[static_cast<std::size_t>(i)])
        << "lambda[" << i << "]";
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(wave.vectors(i, j), serial.vectors(i, j)) << "V(" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(AboveLaneCrossover, BulgeWavefrontSolve,
                         ::testing::Values(evd::Reduction::TwoStageWy,
                                           evd::Reduction::TwoStageDbr));

TEST(Degenerate, HugeBandwidthClampedToMatrix) {
  const index_t n = 24;
  auto a = test::random_symmetric<float>(n, 48);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 1000;  // clamped internally to n-1
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto ref = *evd::reference_eigenvalues(ad.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)],
                1e-4);
}

}  // namespace
}  // namespace tcevd
