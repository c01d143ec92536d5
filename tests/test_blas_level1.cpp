// Level-1 BLAS kernels against simple references, including strided access
// and overflow-safe nrm2.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/common/rng.hpp"

namespace tcevd {
namespace {

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(BlasL1, DotMatchesReference) {
  const index_t n = 257;
  auto x = random_vec(n, 1);
  auto y = random_vec(n, 2);
  double ref = 0.0;
  for (index_t i = 0; i < n; ++i) ref += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
  EXPECT_NEAR(blas::dot(n, x.data(), 1, y.data(), 1), ref, 1e-12 * std::abs(ref) + 1e-12);
}

TEST(BlasL1, DotStrided) {
  std::vector<double> x{1, 99, 2, 99, 3, 99};
  std::vector<double> y{4, 5, 6};
  EXPECT_DOUBLE_EQ(blas::dot<double>(3, x.data(), 2, y.data(), 1), 4.0 + 10.0 + 18.0);
}

TEST(BlasL1, Nrm2MatchesHypot) {
  auto x = random_vec(100, 3);
  double s = 0.0;
  for (double v : x) s += v * v;
  EXPECT_NEAR(blas::nrm2<double>(100, x.data(), 1), std::sqrt(s), 1e-12);
}

TEST(BlasL1, Nrm2AvoidsOverflow) {
  std::vector<double> x{1e200, 1e200};
  EXPECT_NEAR(blas::nrm2<double>(2, x.data(), 1), std::sqrt(2.0) * 1e200, 1e188);
}

TEST(BlasL1, Nrm2AvoidsUnderflow) {
  std::vector<double> x{1e-200, 1e-200};
  EXPECT_NEAR(blas::nrm2<double>(2, x.data(), 1), std::sqrt(2.0) * 1e-200, 1e-212);
}

TEST(BlasL1, Nrm2FloatOverflowSafe) {
  // Naive sum-of-squares overflows (2e38^2 = inf) but the true norm ~2.8e38
  // is representable; the scaled algorithm must return it.
  std::vector<float> x{2e38f, 2e38f};
  const float r = blas::nrm2<float>(2, x.data(), 1);
  EXPECT_FALSE(std::isinf(r));
  EXPECT_NEAR(r, std::sqrt(2.0f) * 2e38f, 1e32f);
}

TEST(BlasL1, AxpyBasic) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{10, 20, 30};
  blas::axpy(3, 2.0, x.data(), 1, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(BlasL1, AxpyAlphaZeroIsNoop) {
  std::vector<double> x{1, 2};
  std::vector<double> y{5, 6};
  blas::axpy(2, 0.0, x.data(), 1, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(BlasL1, ScalScalesInPlace) {
  std::vector<double> x{1, 2, 3};
  blas::scal(3, -2.0, x.data(), 1);
  EXPECT_DOUBLE_EQ(x[1], -4.0);
}

TEST(BlasL1, IamaxFindsAbsMax) {
  std::vector<double> x{1.0, -9.0, 3.0, 8.9};
  EXPECT_EQ(blas::iamax<double>(4, x.data(), 1), 1);
  EXPECT_EQ(blas::iamax<double>(0, x.data(), 1), -1);
}

TEST(BlasL1, IamaxReturnsFirstOnTie) {
  std::vector<double> x{2.0, -2.0, 2.0};
  EXPECT_EQ(blas::iamax<double>(3, x.data(), 1), 0);
}

}  // namespace
}  // namespace tcevd
