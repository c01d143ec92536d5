// Compact band storage and the band-native bulge chase.
#include <gtest/gtest.h>

#include "src/blas/blas.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/band_storage.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

template <typename T>
sbr::BandMatrix<T> random_band(index_t n, index_t bw, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<T>(a.view(), bw);
  return sbr::BandMatrix<T>::from_full(a.view(), bw);
}

/// Serial compact chase of `band`, optionally accumulating into `q`.
template <typename T>
bulge::BulgeResult<T> chase(sbr::BandMatrix<T>& band, MatrixView<T>* q = nullptr) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  return bulge::bulge_chase_band<T>(ctx, band, q);
}

TEST(BandStorage, RoundTripFullCompactFull) {
  const index_t n = 30, bw = 5;
  Rng rng(1);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<double>(a.view(), bw);
  auto band = sbr::BandMatrix<double>::from_full(a.view(), bw);
  auto back = band.to_full();
  EXPECT_EQ(test::rel_diff<double>(back.view(), a.view()), 0.0);
}

TEST(BandStorage, GetIsSymmetric) {
  auto band = random_band<double>(20, 4, 2);
  EXPECT_EQ(band.get(7, 4), band.get(4, 7));
}

TEST(BandStorage, FootprintIsLinearInN) {
  sbr::BandMatrix<float> small(1000, 16);
  sbr::BandMatrix<float> big(4000, 16);
  // O(n b): 4x the rows -> 4x the bytes (a full matrix would be 16x).
  EXPECT_EQ(big.storage_bytes(), 4 * small.storage_bytes());
  EXPECT_LT(big.storage_bytes(), 4000ull * 4000ull * 4ull / 50ull);
}

class BandChaseTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

// The chase against independent double oracles: the eigenvalues of (d, e)
// are those of the full-storage band B, and with Q started at I the chase's
// (Q, T) reproduces B = Q T Q^T with an orthogonal Q.
TEST_P(BandChaseTest, MatchesDoubleOracles) {
  const auto [n, bw] = GetParam();
  Rng rng(100 + n);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<double>(a.view(), bw);

  auto band = sbr::BandMatrix<double>::from_full(a.view(), bw);
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  const auto res = chase(band, &qv);

  auto d = res.d, e = res.e;
  ASSERT_TRUE(lapack::sterf(d, e).ok());
  const auto ref = *evd::reference_eigenvalues(a.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-12 * n);

  Matrix<double> t(n, n), qt(n, n), qtq(n, n), qq(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = res.d[static_cast<std::size_t>(i)];
    if (i + 1 < n) t(i + 1, i) = t(i, i + 1) = res.e[static_cast<std::size_t>(i)];
  }
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, q.view(), t.view(), 0.0, qt.view());
  blas::gemm(blas::Trans::No, blas::Trans::Yes, 1.0, qt.view(), q.view(), 0.0, qtq.view());
  EXPECT_LT(frobenius_diff<double>(qtq.view(), a.view()) / frobenius_norm<double>(a.view()),
            1e-13 * n);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), q.view(), 0.0, qq.view());
  Matrix<double> eye(n, n);
  set_identity(eye.view());
  EXPECT_LT(frobenius_diff<double>(qq.view(), eye.view()), 1e-13 * n);
}

TEST_P(BandChaseTest, SpectrumPreserved) {
  const auto [n, bw] = GetParam();
  Rng rng(200 + n);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<double>(a.view(), bw);

  auto band = sbr::BandMatrix<double>::from_full(a.view(), bw);
  auto [d, e] = chase(band);
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  auto ref = *evd::reference_eigenvalues(a.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandChaseTest,
                         ::testing::Values(std::make_tuple<index_t, index_t>(24, 2),
                                           std::make_tuple<index_t, index_t>(64, 8),
                                           std::make_tuple<index_t, index_t>(100, 16),
                                           std::make_tuple<index_t, index_t>(65, 7),
                                           std::make_tuple<index_t, index_t>(50, 1)));

TEST(BandChase, AfterSbrPipeline) {
  // SBR output -> compact band -> chase -> eigenvalues == direct pipeline.
  const index_t n = 96, bw = 8;
  auto a = test::random_symmetric<float>(n, 9);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = bw;
  opt.big_block = 32;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);

  auto band = sbr::BandMatrix<float>::from_full(ConstMatrixView<float>(res.band.view()), bw);
  auto [d, e] = chase(band);
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto ref = *evd::reference_eigenvalues(ad.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-4 * n);
}

}  // namespace
}  // namespace tcevd
