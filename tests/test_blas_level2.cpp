// Level-2 BLAS against naive references.
#include <gtest/gtest.h>

#include <vector>

#include "src/blas/blas.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Diag;
using blas::Trans;
using blas::Uplo;

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(BlasL2, GemvNoTrans) {
  const index_t m = 17, n = 11;
  auto a = test::random_matrix(m, n, 1);
  auto x = random_vec(n, 2);
  auto y = random_vec(m, 3);
  auto y_ref = y;
  for (index_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < n; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    y_ref[static_cast<std::size_t>(i)] = 1.5 * s + 0.5 * y_ref[static_cast<std::size_t>(i)];
  }
  blas::gemv(Trans::No, 1.5, a.view(), x.data(), 1, 0.5, y.data(), 1);
  for (index_t i = 0; i < m; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], y_ref[static_cast<std::size_t>(i)], 1e-12);
}

TEST(BlasL2, GemvTrans) {
  const index_t m = 13, n = 19;
  auto a = test::random_matrix(m, n, 4);
  auto x = random_vec(m, 5);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  blas::gemv(Trans::Yes, 1.0, a.view(), x.data(), 1, 0.0, y.data(), 1);
  for (index_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < m; ++i) s += a(i, j) * x[static_cast<std::size_t>(i)];
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], s, 1e-12);
  }
}

TEST(BlasL2, SymvLowerMatchesFullGemv) {
  const index_t n = 23;
  auto a = test::random_symmetric<double>(n, 9);
  auto x = random_vec(n, 10);
  std::vector<double> y1(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y2(static_cast<std::size_t>(n), 1.0);
  blas::symv(Uplo::Lower, 0.7, a.view(), x.data(), 1, 0.3, y1.data(), 1);
  blas::gemv(Trans::No, 0.7, a.view(), x.data(), 1, 0.3, y2.data(), 1);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)], 1e-12);
}

TEST(BlasL2, SymvUpperMatchesFullGemv) {
  const index_t n = 16;
  auto a = test::random_symmetric<double>(n, 11);
  auto x = random_vec(n, 12);
  std::vector<double> y1(static_cast<std::size_t>(n), 0.0);
  std::vector<double> y2(static_cast<std::size_t>(n), 0.0);
  blas::symv(Uplo::Upper, 1.0, a.view(), x.data(), 1, 0.0, y1.data(), 1);
  blas::gemv(Trans::No, 1.0, a.view(), x.data(), 1, 0.0, y2.data(), 1);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)], 1e-12);
}

TEST(BlasL2, Syr2UpdatesLowerTriangle) {
  const index_t n = 12;
  auto a = test::random_symmetric<double>(n, 13);
  auto a0 = a;
  auto x = random_vec(n, 14);
  auto y = random_vec(n, 15);
  blas::syr2(Uplo::Lower, 1.1, x.data(), 1, y.data(), 1, a.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      const double expect =
          a0(i, j) + 1.1 * (x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(j)] +
                            y[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(j)]);
      EXPECT_NEAR(a(i, j), expect, 1e-12);
    }
  // Upper triangle untouched.
  for (index_t j = 1; j < n; ++j)
    for (index_t i = 0; i < j; ++i) EXPECT_EQ(a(i, j), a0(i, j));
}

struct TriCase {
  blas::Uplo uplo;
  blas::Trans trans;
  blas::Diag diag;
};

class TrmvTrsmTest : public ::testing::TestWithParam<TriCase> {};

TEST_P(TrmvTrsmTest, TrsmInvertsTrmv) {
  // trsm with one right-hand side is the library's triangular solve; every
  // left-side variant must undo trmv (TrmmTrsmTest covers half of them).
  const auto p = GetParam();
  const index_t n = 15;
  Rng rng(21);
  Matrix<double> a(n, n);
  // Well-conditioned triangular factor.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) a(i, j) = 0.1 * rng.normal();
    a(j, j) = 2.0 + rng.uniform();
  }
  auto x = random_vec(n, 22);
  auto x0 = x;
  blas::trmv(p.uplo, p.trans, p.diag, a.view(), x.data(), 1);
  blas::trsm(blas::Side::Left, p.uplo, p.trans, p.diag, 1.0, a.view(),
             MatrixView<double>(x.data(), n, 1, n));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x0[static_cast<std::size_t>(i)], 1e-10);
}

TEST_P(TrmvTrsmTest, TrmvMatchesDenseMultiply) {
  const auto p = GetParam();
  const index_t n = 10;
  Rng rng(31);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  // Build the dense op(tri(A)).
  Matrix<double> t(n, n);
  const bool lower_stored = p.uplo == Uplo::Lower;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool in_tri = lower_stored ? (i >= j) : (i <= j);
      double v = in_tri ? a(i, j) : 0.0;
      if (i == j && p.diag == Diag::Unit) v = 1.0;
      t(i, j) = v;
    }
  auto x = random_vec(n, 32);
  std::vector<double> ref(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      const double aij = (p.trans == Trans::No) ? t(i, j) : t(j, i);
      ref[static_cast<std::size_t>(i)] += aij * x[static_cast<std::size_t>(j)];
    }
  blas::trmv(p.uplo, p.trans, p.diag, a.view(), x.data(), 1);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrmvTrsmTest,
    ::testing::Values(TriCase{Uplo::Lower, Trans::No, Diag::NonUnit},
                      TriCase{Uplo::Lower, Trans::No, Diag::Unit},
                      TriCase{Uplo::Lower, Trans::Yes, Diag::NonUnit},
                      TriCase{Uplo::Lower, Trans::Yes, Diag::Unit},
                      TriCase{Uplo::Upper, Trans::No, Diag::NonUnit},
                      TriCase{Uplo::Upper, Trans::No, Diag::Unit},
                      TriCase{Uplo::Upper, Trans::Yes, Diag::NonUnit},
                      TriCase{Uplo::Upper, Trans::Yes, Diag::Unit}));

}  // namespace
}  // namespace tcevd
