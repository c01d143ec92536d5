// Tall-skinny QR: factorization correctness across tree depths and types.
#include <gtest/gtest.h>

#include "src/blas/blas.hpp"
#include "src/common/workspace.hpp"
#include "src/lapack/qr.hpp"
#include "src/tsqr/tsqr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

template <typename T>
void check_tsqr(index_t m, index_t n, std::uint64_t seed, double tol,
                const tsqr::TsqrOptions& opts = {}) {
  Rng rng(seed);
  Matrix<T> a(m, n);
  fill_normal(rng, a.view());
  Matrix<T> q(m, n), r(n, n);
  Workspace ws;
  ASSERT_TRUE(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view(), opts).ok());

  // Q R == A.
  Matrix<T> qr(m, n);
  blas::gemm(Trans::No, Trans::No, T{1}, q.view(), r.view(), T{}, qr.view());
  EXPECT_LT(test::rel_diff<T>(qr.view(), a.view()), tol);

  // Orthonormal columns.
  EXPECT_LT(orthogonality_residual<T>(q.view()), tol * m);

  // R upper triangular.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) EXPECT_EQ(r(i, j), T{});
}

class TsqrShapeTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(TsqrShapeTest, DoubleFactorization) {
  const auto [m, n] = GetParam();
  check_tsqr<double>(m, n, 10 + m, 1e-12);
}

TEST_P(TsqrShapeTest, FloatFactorization) {
  const auto [m, n] = GetParam();
  check_tsqr<float>(m, n, 20 + m, 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TsqrShapeTest,
                         ::testing::Values(std::make_tuple(32, 32),     // square leaf
                                           std::make_tuple(100, 10),    // single leaf
                                           std::make_tuple(600, 16),    // two levels
                                           std::make_tuple(2000, 8),    // deep tree
                                           std::make_tuple(1537, 24),   // odd split
                                           std::make_tuple(512, 1)));   // single column

TEST(Tsqr, SmallLeafForcesDeepTree) {
  tsqr::TsqrOptions opts;
  opts.leaf_rows = 8;
  check_tsqr<double>(1024, 4, 99, 1e-12, opts);
}

TEST(Tsqr, LeafClampedToPanelWidth) {
  tsqr::TsqrOptions opts;
  opts.leaf_rows = 1;  // absurd; must be clamped to >= n internally
  check_tsqr<double>(256, 16, 101, 1e-12, opts);
}

TEST(Tsqr, IllConditionedPanelStillOrthogonal) {
  // Nearly dependent columns: Householder-based TSQR must keep Q orthogonal
  // (this is where Gram-Schmidt-per-block would lose orthogonality).
  const index_t m = 800, n = 6;
  Rng rng(5);
  Matrix<double> a(m, n);
  fill_normal(rng, a.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 1; j < n; ++j) a(i, j) = a(i, 0) + 1e-9 * a(i, j);
  }
  Matrix<double> q(m, n), r(n, n);
  Workspace ws;
  ASSERT_TRUE(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view()).ok());
  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-11 * m);
  Matrix<double> qr(m, n);
  blas::gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), 0.0, qr.view());
  EXPECT_LT(test::rel_diff<double>(qr.view(), a.view()), 1e-12);
}

TEST(Tsqr, MatchesHouseholderQrUpToSigns) {
  // |R| from TSQR equals |R| from plain Householder QR (column signs differ).
  const index_t m = 300, n = 12;
  auto a = test::random_matrix(m, n, 7);
  Matrix<double> q(m, n), r(n, n);
  Workspace ws;
  ASSERT_TRUE(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view()).ok());

  auto work = a;
  std::vector<double> tau;
  lapack::geqr2(work.view(), tau);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(r(i, j)), std::abs(work(i, j)), 1e-10);
}

}  // namespace
}  // namespace tcevd
