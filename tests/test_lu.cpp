// Non-pivoted LU.
#include <gtest/gtest.h>

#include "src/blas/blas.hpp"
#include "src/lapack/lu.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

Matrix<double> diagonally_dominant(index_t n, std::uint64_t seed) {
  auto a = test::random_matrix(n, n, seed);
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n) + 1.0;
  return a;
}

TEST(LuNopiv, ReconstructsSquare) {
  const index_t n = 24;
  auto a = diagonally_dominant(n, 1);
  auto f = a;
  EXPECT_EQ(lapack::lu_nopiv(f.view()), -1);

  Matrix<double> l(n, n), u(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      l(i, j) = (i > j) ? f(i, j) : (i == j ? 1.0 : 0.0);
      u(i, j) = (i <= j) ? f(i, j) : 0.0;
    }
  Matrix<double> lu(n, n);
  blas::gemm(Trans::No, Trans::No, 1.0, l.view(), u.view(), 0.0, lu.view());
  EXPECT_LT(test::rel_diff<double>(lu.view(), a.view()), 1e-12);
}

TEST(LuNopiv, ReconstructsRectangularTall) {
  const index_t m = 30, n = 12;
  Rng rng(2);
  Matrix<double> a(m, n);
  fill_normal(rng, a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += 20.0;
  auto f = a;
  EXPECT_EQ(lapack::lu_nopiv(f.view()), -1);

  Matrix<double> l(m, n), u(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) l(i, j) = (i > j) ? f(i, j) : (i == j ? 1.0 : 0.0);
    for (index_t i = 0; i <= j; ++i) u(i, j) = f(i, j);
  }
  Matrix<double> lu(m, n);
  blas::gemm(Trans::No, Trans::No, 1.0, l.view(), u.view(), 0.0, lu.view());
  EXPECT_LT(test::rel_diff<double>(lu.view(), a.view()), 1e-12);
}

TEST(LuNopiv, ReportsZeroPivot) {
  Matrix<double> a(3, 3);
  a(0, 0) = 0.0;  // immediate breakdown
  a(1, 1) = 1.0;
  a(2, 2) = 1.0;
  EXPECT_EQ(lapack::lu_nopiv(a.view()), 0);
}

TEST(LuNopiv, ReportsLatePivotBreakdown) {
  // [1 1; 1 1] -> after one step the (1,1) entry becomes 0.
  Matrix<double> a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  EXPECT_EQ(lapack::lu_nopiv(a.view()), 1);
}

TEST(LuNopiv, SolveViaTrsmMatches) {
  const index_t n = 16;
  auto a = diagonally_dominant(n, 3);
  Rng rng(4);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.normal();
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  blas::gemv(Trans::No, 1.0, a.view(), x_true.data(), 1, 0.0, b.data(), 1);

  auto f = a;
  ASSERT_EQ(lapack::lu_nopiv(f.view()), -1);
  // Solve L y = b then U x = y.
  MatrixView<double> bv(b.data(), n, 1, n);
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, Trans::No, blas::Diag::Unit, 1.0, f.view(),
             bv);
  blas::trsm(blas::Side::Left, blas::Uplo::Upper, Trans::No, blas::Diag::NonUnit, 1.0,
             f.view(), bv);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-10);
}

}  // namespace
}  // namespace tcevd
