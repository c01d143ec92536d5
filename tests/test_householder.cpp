// Elementary reflector generation/application (larfg / larf).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/lapack/householder.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

TEST(Larfg, AnnihilatesBelowFirst) {
  const index_t n = 12;
  Rng rng(1);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.normal();
  double norm = 0.0;
  for (double v : x) norm += v * v;
  norm = std::sqrt(norm);

  double alpha = x[0];
  std::vector<double> tail(x.begin() + 1, x.end());
  const double tau = lapack::larfg(n, alpha, tail.data(), 1);

  // H [x0; tail] = [beta; 0], so |beta| = ||x||.
  EXPECT_NEAR(std::abs(alpha), norm, 1e-12);
  EXPECT_GT(tau, 0.0);
  EXPECT_LE(tau, 2.0 + 1e-12);

  // Verify by applying H = I - tau v v^T to the original vector.
  std::vector<double> v(static_cast<std::size_t>(n));
  v[0] = 1.0;
  for (index_t i = 1; i < n; ++i) v[static_cast<std::size_t>(i)] = tail[static_cast<std::size_t>(i - 1)];
  double vtx = x[0];
  for (index_t i = 1; i < n; ++i) vtx += v[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
  std::vector<double> hx = x;
  for (index_t i = 0; i < n; ++i) hx[static_cast<std::size_t>(i)] -= tau * v[static_cast<std::size_t>(i)] * vtx;
  EXPECT_NEAR(hx[0], alpha, 1e-12);
  for (index_t i = 1; i < n; ++i) EXPECT_NEAR(hx[static_cast<std::size_t>(i)], 0.0, 1e-12);
}

TEST(Larfg, ZeroTailGivesIdentity) {
  double alpha = 3.0;
  std::vector<double> x(5, 0.0);
  const double tau = lapack::larfg<double>(6, alpha, x.data(), 1);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(alpha, 3.0);
}

TEST(Larfg, LengthOneIsIdentity) {
  double alpha = -2.0;
  const double tau = lapack::larfg<double>(1, alpha, nullptr, 1);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(alpha, -2.0);
}

TEST(Larfg, BetaSignOppositeAlpha) {
  // The convention beta = -sign(alpha)*||x|| avoids cancellation.
  double alpha = 2.0;
  std::vector<double> x{1.0, 1.0};
  lapack::larfg<double>(3, alpha, x.data(), 1);
  EXPECT_LT(alpha, 0.0);

  alpha = -2.0;
  x = {1.0, 1.0};
  lapack::larfg<double>(3, alpha, x.data(), 1);
  EXPECT_GT(alpha, 0.0);
}

TEST(Larfg, TinyValuesRescaledSafely) {
  double alpha = 1e-300;
  std::vector<double> x{1e-300, 1e-300};
  const double tau = lapack::larfg<double>(3, alpha, x.data(), 1);
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_TRUE(std::isfinite(alpha));
  EXPECT_NEAR(std::abs(alpha), std::sqrt(3.0) * 1e-300, 1e-312);
}

TEST(Larf, LeftApplicationMatchesDense) {
  const index_t m = 10, n = 6;
  auto c = test::random_matrix(m, n, 2);
  auto c0 = c;
  Rng rng(3);
  std::vector<double> v(static_cast<std::size_t>(m));
  v[0] = 1.0;
  for (index_t i = 1; i < m; ++i) v[static_cast<std::size_t>(i)] = rng.normal();
  const double tau = 0.37;
  std::vector<double> work(static_cast<std::size_t>(n));
  lapack::larf_left(v.data(), 1, tau, c.view(), work.data());
  // Dense reference: C - tau v (v^T C).
  for (index_t j = 0; j < n; ++j) {
    double dot = 0.0;
    for (index_t i = 0; i < m; ++i) dot += v[static_cast<std::size_t>(i)] * c0(i, j);
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(c(i, j), c0(i, j) - tau * v[static_cast<std::size_t>(i)] * dot, 1e-12);
  }
}

TEST(Larf, TauZeroIsNoop) {
  auto c = test::random_matrix(5, 5, 6);
  auto c0 = c;
  std::vector<double> v(5, 1.0);
  std::vector<double> work(5);
  lapack::larf_left(v.data(), 1, 0.0, c.view(), work.data());
  EXPECT_EQ(test::rel_diff<double>(c.view(), c0.view()), 0.0);
}

TEST(Larf, ReflectorIsInvolutory) {
  // H is symmetric orthogonal: applying twice restores the input.
  const index_t m = 14, n = 5;
  auto c = test::random_matrix(m, n, 7);
  auto c0 = c;
  Rng rng(8);
  std::vector<double> raw(static_cast<std::size_t>(m));
  for (auto& x : raw) x = rng.normal();
  double alpha = raw[0];
  std::vector<double> tail(raw.begin() + 1, raw.end());
  const double tau = lapack::larfg<double>(m, alpha, tail.data(), 1);
  std::vector<double> v(static_cast<std::size_t>(m));
  v[0] = 1.0;
  for (index_t i = 1; i < m; ++i) v[static_cast<std::size_t>(i)] = tail[static_cast<std::size_t>(i - 1)];
  std::vector<double> work(static_cast<std::size_t>(n));
  lapack::larf_left(v.data(), 1, tau, c.view(), work.data());
  lapack::larf_left(v.data(), 1, tau, c.view(), work.data());
  EXPECT_LT(test::rel_diff<double>(c.view(), c0.view()), 1e-13);
}

}  // namespace
}  // namespace tcevd
