// Householder reconstruction from explicit Q (paper Algorithm 3):
// I - W Y^T == Q S, Y unit lower trapezoidal, and the full TSQR->WY panel
// pipeline used inside SBR.
#include <gtest/gtest.h>

#include <vector>

#include "src/blas/blas.hpp"
#include "src/common/workspace.hpp"
#include "src/lapack/qr.hpp"
#include "src/tsqr/reconstruct_wy.hpp"
#include "src/tsqr/tsqr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

template <typename T>
void check_reconstruction(index_t m, index_t n, std::uint64_t seed, double tol) {
  Rng rng(seed);
  Matrix<T> a(m, n);
  fill_normal(rng, a.view());
  Matrix<T> q(m, n), r(n, n);
  Workspace ws;
  ASSERT_TRUE(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view()).ok());

  Matrix<T> w(m, n), y(m, n);
  std::vector<T> signs;
  ASSERT_TRUE(tsqr::reconstruct_wy(ws, q.view(), w.view(), y.view(), signs).ok());

  // Y unit lower trapezoidal.
  for (index_t j = 0; j < n; ++j) {
    EXPECT_EQ(y(j, j), T{1});
    for (index_t i = 0; i < j; ++i) EXPECT_EQ(y(i, j), T{});
  }

  // I - W Y^T == Q * S (compare on the full m x m is expensive; check the
  // first n columns, which determine the reflectors, and the action on a
  // random vector for the rest).
  Matrix<T> qs(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) qs(i, j) = q(i, j) * signs[static_cast<std::size_t>(j)];

  Matrix<T> iwyt(m, n);
  set_identity(iwyt.view());
  blas::gemm(Trans::No, Trans::Yes, T{-1}, w.view(), ConstMatrixView<T>(y.sub(0, 0, n, n)),
             T{1}, iwyt.view());
  EXPECT_LT(test::rel_diff<T>(iwyt.view(), qs.view()), tol);

  // Panel identity: A == (I - W Y^T) * (S R): apply to S R.
  Matrix<T> sr(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) sr(i, j) = signs[static_cast<std::size_t>(i)] * r(i, j);
  Matrix<T> rebuilt(m, n);
  blas::gemm(Trans::No, Trans::No, T{1}, iwyt.view(), sr.view(), T{}, rebuilt.view());
  EXPECT_LT(test::rel_diff<T>(rebuilt.view(), a.view()), tol);
}

class ReconstructTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(ReconstructTest, DoublePrecision) {
  const auto [m, n] = GetParam();
  check_reconstruction<double>(m, n, 3 + m, 1e-11);
}

TEST_P(ReconstructTest, SinglePrecision) {
  const auto [m, n] = GetParam();
  check_reconstruction<float>(m, n, 5 + m, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReconstructTest,
                         ::testing::Values(std::make_tuple(16, 16),
                                           std::make_tuple(64, 8),
                                           std::make_tuple(300, 12),
                                           std::make_tuple(1000, 4),
                                           std::make_tuple(50, 1)));

TEST(ReconstructWy, SignsAreUnitMagnitude) {
  const index_t m = 100, n = 10;
  auto a = test::random_matrix(m, n, 9);
  Matrix<double> q(m, n), r(n, n);
  Workspace ws;
  ASSERT_TRUE(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view()).ok());
  Matrix<double> w(m, n), y(m, n);
  std::vector<double> signs;
  ASSERT_TRUE(tsqr::reconstruct_wy(ws, q.view(), w.view(), y.view(), signs).ok());
  ASSERT_EQ(signs.size(), static_cast<std::size_t>(n));
  for (double s : signs) EXPECT_DOUBLE_EQ(std::abs(s), 1.0);
}

TEST(ReconstructWy, MatchesBuildWyFromHouseholderQr) {
  // Reconstructing from the orgqr-produced explicit Q of a Householder QR
  // must reproduce (W, Y) equivalent to build_wy up to the sign matrix:
  // compare the projectors I - W Y^T applied to a random matrix.
  const index_t m = 80, n = 6;
  auto a = test::random_matrix(m, n, 11);
  auto factored = a;
  std::vector<double> tau;
  lapack::geqr2(factored.view(), tau);
  Matrix<double> w1(m, n), y1(m, n);
  lapack::build_wy<double>(factored.view(), tau, w1.view(), y1.view());
  Matrix<double> q(m, n);
  {
    Matrix<double> fc = factored;
    lapack::orgqr(fc.view(), tau, q.view());
  }
  Matrix<double> w2(m, n), y2(m, n);
  std::vector<double> signs;
  Workspace ws;
  ASSERT_TRUE(tsqr::reconstruct_wy(ws, q.view(), w2.view(), y2.view(), signs).ok());

  // Both (I - W Y^T) are orthogonal matrices whose first n columns equal
  // Q (up to signs). Compare action on a random block.
  auto x = test::random_matrix(m, 5, 12);
  Matrix<double> r1 = x, r2 = x;
  // r = x - W (Y^T x)
  Matrix<double> t1(n, 5), t2(n, 5);
  blas::gemm(Trans::Yes, Trans::No, 1.0, y1.view(), x.view(), 0.0, t1.view());
  blas::gemm(Trans::No, Trans::No, -1.0, w1.view(), t1.view(), 1.0, r1.view());
  blas::gemm(Trans::Yes, Trans::No, 1.0, y2.view(), x.view(), 0.0, t2.view());
  blas::gemm(Trans::No, Trans::No, -1.0, w2.view(), t2.view(), 1.0, r2.view());

  // Both are orthogonal transforms of x: norms must match.
  EXPECT_NEAR(frobenius_norm<double>(r1.view()), frobenius_norm<double>(r2.view()), 1e-10);
}

TEST(ReconstructWy, OrthogonalityOfIWYt) {
  // I - W Y^T must be exactly orthogonal (it is a product of reflectors).
  const index_t m = 60, n = 8;
  auto a = test::random_matrix(m, n, 13);
  Matrix<double> q(m, n), r(n, n);
  Workspace ws;
  ASSERT_TRUE(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view()).ok());
  Matrix<double> w(m, n), y(m, n);
  std::vector<double> signs;
  ASSERT_TRUE(tsqr::reconstruct_wy(ws, q.view(), w.view(), y.view(), signs).ok());

  Matrix<double> full(m, m);
  set_identity(full.view());
  blas::gemm(Trans::No, Trans::Yes, -1.0, w.view(), y.view(), 1.0, full.view());
  EXPECT_LT(orthogonality_residual<double>(full.view()), 1e-10 * m);
}

}  // namespace
}  // namespace tcevd
