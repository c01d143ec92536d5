// One-stage Householder tridiagonalization.
#include <gtest/gtest.h>

#include <vector>

#include "src/blas/blas.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/lapack/tridiag.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

/// Assemble the dense tridiagonal from (d, e).
Matrix<double> dense_tridiag(const std::vector<double>& d, const std::vector<double>& e) {
  const index_t n = static_cast<index_t>(d.size());
  Matrix<double> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<std::size_t>(i)];
      t(i, i + 1) = e[static_cast<std::size_t>(i)];
    }
  }
  return t;
}

class SytrdTest : public ::testing::TestWithParam<index_t> {};

TEST_P(SytrdTest, QtAQIsTridiagonal) {
  const index_t n = GetParam();
  auto a = test::random_symmetric<double>(n, 100 + n);
  auto work = a;
  std::vector<double> d, e, tau;
  lapack::sytrd(work.view(), d, e, tau);

  Matrix<double> q(n, n);
  lapack::orgtr<double>(work.view(), tau, q.view());
  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-12 * n);

  // Q^T A Q == T.
  Matrix<double> tmp(n, n), qtaq(n, n);
  blas::gemm(Trans::Yes, Trans::No, 1.0, q.view(), a.view(), 0.0, tmp.view());
  blas::gemm(Trans::No, Trans::No, 1.0, tmp.view(), q.view(), 0.0, qtaq.view());
  auto t = dense_tridiag(d, e);
  EXPECT_LT(test::rel_diff<double>(qtaq.view(), t.view()), 1e-12);
}

TEST_P(SytrdTest, EigenvaluesMatchDirectSolve) {
  const index_t n = GetParam();
  auto a = test::random_symmetric<double>(n, 200 + n);
  auto work = a;
  std::vector<double> d, e, tau;
  lapack::sytrd(work.view(), d, e, tau);
  auto d1 = d;
  auto e1 = e;
  ASSERT_TRUE(lapack::sterf(d1, e1).ok());

  // Reference: bisection directly on the tridiagonal (independent method).
  auto d2 = *lapack::stebz<double>(d, e, 0, n - 1, 1e-12);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d1[static_cast<std::size_t>(i)], d2[static_cast<std::size_t>(i)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SytrdTest, ::testing::Values<index_t>(1, 2, 3, 5, 16, 40, 95));

TEST(Sytrd, DiagonalMatrixUntouched) {
  const index_t n = 10;
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = static_cast<double>(i + 1);
  std::vector<double> d, e, tau;
  lapack::sytrd(a.view(), d, e, tau);
  for (index_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)], i + 1.0);
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_DOUBLE_EQ(e[static_cast<std::size_t>(i)], 0.0);
}

TEST(Sytrd, AlreadyTridiagonalPreserved) {
  const index_t n = 8;
  Matrix<double> a(n, n);
  Rng rng(9);
  for (index_t i = 0; i < n; ++i) a(i, i) = rng.normal();
  for (index_t i = 0; i + 1 < n; ++i) {
    const double v = rng.normal();
    a(i + 1, i) = v;
    a(i, i + 1) = v;
  }
  auto work = a;
  std::vector<double> d, e, tau;
  lapack::sytrd(work.view(), d, e, tau);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(d[static_cast<std::size_t>(i)], a(i, i), 1e-14);
  // Subdiagonal magnitudes preserved (sign may flip with the reflector).
  for (index_t i = 0; i + 1 < n; ++i)
    EXPECT_NEAR(std::abs(e[static_cast<std::size_t>(i)]), std::abs(a(i + 1, i)), 1e-13);
}

class SytrdBlockedTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(SytrdBlockedTest, MatchesUnblocked) {
  const auto [n, nb] = GetParam();
  auto a = test::random_symmetric<double>(n, 300 + n);
  auto w1 = a;
  auto w2 = a;
  std::vector<double> d1, e1, t1, d2, e2, t2;
  lapack::sytrd(w1.view(), d1, e1, t1);
  lapack::sytrd_blocked(w2.view(), d2, e2, t2, nb);
  // Same reflectors in exact arithmetic: outputs agree to roundoff.
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d1[static_cast<std::size_t>(i)], d2[static_cast<std::size_t>(i)], 1e-11)
        << "n=" << n << " nb=" << nb;
  for (index_t i = 0; i + 1 < n; ++i) {
    EXPECT_NEAR(e1[static_cast<std::size_t>(i)], e2[static_cast<std::size_t>(i)], 1e-11);
    EXPECT_NEAR(t1[static_cast<std::size_t>(i)], t2[static_cast<std::size_t>(i)], 1e-10);
  }
  // Stored reflectors identical too (orgtr must work on either layout).
  EXPECT_LT(test::rel_diff<double>(w1.view(), w2.view()), 1e-10);
}

TEST_P(SytrdBlockedTest, QtAQIsTridiagonal) {
  const auto [n, nb] = GetParam();
  auto a = test::random_symmetric<double>(n, 400 + n);
  auto work = a;
  std::vector<double> d, e, tau;
  lapack::sytrd_blocked(work.view(), d, e, tau, nb);
  Matrix<double> q(n, n);
  lapack::orgtr<double>(work.view(), tau, q.view());
  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-12 * n);
  Matrix<double> tmp(n, n), qtaq(n, n);
  blas::gemm(Trans::Yes, Trans::No, 1.0, q.view(), a.view(), 0.0, tmp.view());
  blas::gemm(Trans::No, Trans::No, 1.0, tmp.view(), q.view(), 0.0, qtaq.view());
  auto t = dense_tridiag(d, e);
  EXPECT_LT(test::rel_diff<double>(qtaq.view(), t.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SytrdBlockedTest,
                         ::testing::Values(std::make_tuple<index_t, index_t>(40, 8),
                                           std::make_tuple<index_t, index_t>(65, 16),
                                           std::make_tuple<index_t, index_t>(100, 32),
                                           std::make_tuple<index_t, index_t>(30, 64),   // nb > n
                                           std::make_tuple<index_t, index_t>(97, 8))); // ragged

TEST(Sytrd, FloatVariantStable) {
  const index_t n = 60;
  auto a = test::random_symmetric<float>(n, 77);
  auto work = a;
  std::vector<float> d, e, tau;
  lapack::sytrd(work.view(), d, e, tau);
  Matrix<float> q(n, n);
  lapack::orgtr<float>(work.view(), tau, q.view());
  EXPECT_LT(orthogonality_residual<float>(q.view()), 1e-4);
}

}  // namespace
}  // namespace tcevd
