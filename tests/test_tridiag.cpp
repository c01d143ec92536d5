// steqr / sterf / stebz on matrices with known or cross-checkable spectra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/lapack/tridiag.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

/// The (-1, 2, -1) Laplacian has eigenvalues 2 - 2 cos(k pi / (n+1)).
std::vector<double> laplacian_eigs(index_t n) {
  std::vector<double> eigs(static_cast<std::size_t>(n));
  for (index_t k = 1; k <= n; ++k)
    eigs[static_cast<std::size_t>(k - 1)] =
        2.0 - 2.0 * std::cos(static_cast<double>(k) * std::numbers::pi / (n + 1));
  return eigs;
}

class LaplacianTest : public ::testing::TestWithParam<index_t> {};

TEST_P(LaplacianTest, SteqrFindsKnownSpectrum) {
  const index_t n = GetParam();
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
  ASSERT_TRUE(lapack::steqr<double>(d, e, nullptr).ok());
  auto ref = laplacian_eigs(n);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-12);
}

// sterf is a different (root-free) iteration from steqr, so the two agree to
// roundoff, not bitwise; both are held to the known spectrum.
TEST_P(LaplacianTest, SterfMatchesSteqr) {
  const index_t n = GetParam();
  std::vector<double> d1(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e1(static_cast<std::size_t>(n - 1), -1.0);
  auto d2 = d1;
  auto e2 = e1;
  ASSERT_TRUE(lapack::steqr<double>(d1, e1, nullptr).ok());
  ASSERT_TRUE(lapack::sterf(d2, e2).ok());
  auto ref = laplacian_eigs(n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d2[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-12);
    EXPECT_NEAR(d2[static_cast<std::size_t>(i)], d1[static_cast<std::size_t>(i)], 1e-12);
  }
  for (double v : e2) EXPECT_EQ(v, 0.0);
}

TEST_P(LaplacianTest, StebzMatchesKnownSpectrum) {
  const index_t n = GetParam();
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
  auto eigs = *lapack::stebz<double>(d, e, 0, n - 1, 1e-13);
  auto ref = laplacian_eigs(n);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(eigs[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LaplacianTest, ::testing::Values<index_t>(2, 3, 10, 33, 100));

/// Largest |computed - s * ref| over s * max|ref|.
template <typename T>
double scaled_error(const std::vector<T>& got, const std::vector<double>& ref, double s) {
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(got[i]) - s * ref[i]));
    norm = std::max(norm, std::abs(s * ref[i]));
  }
  return err / norm;
}

// The root-free iteration squares the off-diagonals, which overflows or
// underflows near the ends of the exponent range unless each block is
// scaled first.
class ScaledLaplacianTest : public ::testing::TestWithParam<double> {};

TEST_P(ScaledLaplacianTest, ValuesOnlySolversKeepRelativeAccuracy) {
  const double s = GetParam();
  const index_t n = 100;
  const auto ref = laplacian_eigs(n);
  const std::vector<double> d0(static_cast<std::size_t>(n), 2.0 * s);
  const std::vector<double> e0(static_cast<std::size_t>(n - 1), -s);

  auto d = d0;
  auto e = e0;
  ASSERT_TRUE(lapack::sterf<double>(d, e).ok());
  EXPECT_LE(scaled_error(d, ref, s), 1e-12);

  d = d0;
  e = e0;
  ASSERT_TRUE(lapack::stedc<double>(d, e, nullptr).ok());
  EXPECT_LE(scaled_error(d, ref, s), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaledLaplacianTest,
                         ::testing::Values(1e150, 1e-150, 1e160, 1e-160, 1e300, 1e-300));

TEST(Sterf, FloatInputWhoseSquaresLeaveFloatRange) {
  // e^2 is 1e60 or 1e-60: outside float range, well inside double's.
  const index_t n = 60;
  const auto ref = laplacian_eigs(n);
  for (float s : {1e30f, 1e-30f}) {
    std::vector<float> d(static_cast<std::size_t>(n), 2.0f * s);
    std::vector<float> e(static_cast<std::size_t>(n - 1), -s);
    auto dc = d;
    auto ec = e;
    ASSERT_TRUE(lapack::sterf<float>(d, e).ok());
    EXPECT_LE(scaled_error(d, ref, s), 1e-6) << "scale " << s;
    ASSERT_TRUE(lapack::stedc<float>(dc, ec, nullptr).ok());
    EXPECT_LE(scaled_error(dc, ref, s), 1e-6) << "scale " << s;
  }
}

TEST(Sterf, MatchesSteqrOnRandomAndGradedTridiagonals) {
  // kind 0: random; 1 / 2: graded down / up, so sterf picks QR / QL;
  // 3: zero diagonal; 4: Wilkinson W+ (pairs of nearly equal eigenvalues).
  for (index_t n : {2, 3, 17, 64, 200}) {
    for (int kind = 0; kind < 5; ++kind) {
      Rng rng(static_cast<std::uint64_t>(500 + 5 * n + kind));
      std::vector<double> d(static_cast<std::size_t>(n));
      std::vector<double> e(static_cast<std::size_t>(n - 1));
      for (index_t i = 0; i < n; ++i) {
        const double grade = kind == 1 ? std::pow(10.0, -8.0 * i / n)
                             : kind == 2 ? std::pow(10.0, 8.0 * i / n)
                                         : 1.0;
        double di = grade * rng.normal();
        double ei = grade * rng.normal();
        if (kind == 3) di = 0.0;
        if (kind == 4) {
          di = std::abs(static_cast<double>(i) - 0.5 * static_cast<double>(n - 1));
          ei = 1.0;
        }
        d[static_cast<std::size_t>(i)] = di;
        if (i + 1 < n) e[static_cast<std::size_t>(i)] = ei;
      }
      double scale = 1.0;
      for (double v : d) scale = std::max(scale, std::abs(v));
      for (double v : e) scale = std::max(scale, std::abs(v));
      auto ds = d;
      auto es = e;
      ASSERT_TRUE(lapack::steqr<double>(ds, es, nullptr).ok());
      ASSERT_TRUE(lapack::sterf<double>(d, e).ok());
      for (index_t i = 0; i < n; ++i) {
        if (i > 0) {
          EXPECT_LE(d[static_cast<std::size_t>(i - 1)], d[static_cast<std::size_t>(i)]);
        }
        EXPECT_NEAR(d[static_cast<std::size_t>(i)], ds[static_cast<std::size_t>(i)], 1e-12 * scale)
            << "n " << n << " kind " << kind << " i " << i;
      }
    }
  }
}

TEST(Sterf, SplitBlocksAndTrivialSizes) {
  std::vector<double> d{3.0};
  std::vector<double> e;
  ASSERT_TRUE(lapack::sterf<double>(d, e).ok());
  EXPECT_EQ(d[0], 3.0);

  // Two decoupled blocks, [[2, 1], [1, 2]] and diag(-1), plus a zero block.
  d = {2.0, 2.0, -1.0, 0.0, 0.0};
  e = {1.0, 0.0, 0.0, 0.0};
  ASSERT_TRUE(lapack::sterf<double>(d, e).ok());
  const std::vector<double> want{-1.0, 0.0, 0.0, 1.0, 3.0};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(d[i], want[i], 1e-15);
}

TEST(Sterf, NonFiniteInputIsNoConvergence) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::vector<double> d(8, 1.0);
    std::vector<double> e(7, 0.5);
    e[3] = bad;
    const Status st = lapack::sterf<double>(d, e);
    EXPECT_EQ(st.code(), ErrorCode::NoConvergence) << st.to_string();
  }
}

TEST(Steqr, EigenvectorsDiagonalizeT) {
  const index_t n = 50;
  Rng rng(1);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();

  Matrix<double> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<std::size_t>(i)];
      t(i, i + 1) = e[static_cast<std::size_t>(i)];
    }
  }

  Matrix<double> z(n, n);
  set_identity(z.view());
  auto zv = z.view();
  ASSERT_TRUE(lapack::steqr<double>(d, e, &zv).ok());
  EXPECT_LT(orthogonality_residual<double>(z.view()), 1e-12 * n);

  // T z_j == lambda_j z_j.
  Matrix<double> tz(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t.view(), z.view(), 0.0, tz.view());
  double max_err = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      max_err = std::max(max_err, std::abs(tz(i, j) - d[static_cast<std::size_t>(j)] * z(i, j)));
  EXPECT_LT(max_err, 1e-12);
}

TEST(Steqr, AscendingOrder) {
  const index_t n = 64;
  Rng rng(2);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  ASSERT_TRUE(lapack::steqr<double>(d, e, nullptr).ok());
  for (index_t i = 1; i < n; ++i)
    EXPECT_LE(d[static_cast<std::size_t>(i - 1)], d[static_cast<std::size_t>(i)]);
}

TEST(Steqr, SizeOneAndTwo) {
  std::vector<double> d{3.0};
  std::vector<double> e;
  ASSERT_TRUE(lapack::steqr<double>(d, e, nullptr).ok());
  EXPECT_EQ(d[0], 3.0);

  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  d = {2.0, 2.0};
  e = {1.0};
  ASSERT_TRUE(lapack::steqr<double>(d, e, nullptr).ok());
  EXPECT_NEAR(d[0], 1.0, 1e-14);
  EXPECT_NEAR(d[1], 3.0, 1e-14);
}

TEST(Steqr, ZeroOffdiagonalIsImmediatelyDeflated) {
  std::vector<double> d{5.0, -1.0, 2.0};
  std::vector<double> e{0.0, 0.0};
  ASSERT_TRUE(lapack::steqr<double>(d, e, nullptr).ok());
  EXPECT_DOUBLE_EQ(d[0], -1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(SturmCount, CountsCorrectly) {
  // Laplacian n=4: eigenvalues 2-2cos(k pi/5), roughly .38, 1.38, 2.62, 3.62.
  std::vector<double> d(4, 2.0);
  std::vector<double> e(3, -1.0);
  EXPECT_EQ(lapack::sturm_count<double>(d, e, 0.0), 0);
  EXPECT_EQ(lapack::sturm_count<double>(d, e, 1.0), 1);
  EXPECT_EQ(lapack::sturm_count<double>(d, e, 2.0), 2);
  EXPECT_EQ(lapack::sturm_count<double>(d, e, 3.0), 3);
  EXPECT_EQ(lapack::sturm_count<double>(d, e, 4.0), 4);
}

TEST(Stebz, SelectedRange) {
  const index_t n = 40;
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
  auto ref = laplacian_eigs(n);
  auto eigs = *lapack::stebz<double>(d, e, 5, 9, 1e-13);
  ASSERT_EQ(eigs.size(), 5u);
  for (index_t i = 0; i < 5; ++i)
    EXPECT_NEAR(eigs[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(5 + i)], 1e-10);
}

TEST(Stebz, RepeatedEigenvalues) {
  // diag(1,1,1,5): three identical eigenvalues.
  std::vector<double> d{1.0, 1.0, 1.0, 5.0};
  std::vector<double> e{0.0, 0.0, 0.0};
  auto eigs = *lapack::stebz<double>(d, e, 0, 3, 1e-13);
  EXPECT_NEAR(eigs[0], 1.0, 1e-9);
  EXPECT_NEAR(eigs[1], 1.0, 1e-9);
  EXPECT_NEAR(eigs[2], 1.0, 1e-9);
  EXPECT_NEAR(eigs[3], 5.0, 1e-9);
}

TEST(Stebz, NonFiniteInputIsNoConvergence) {
  // A NaN in d and an Inf in e, each in a selected and a full range: Sturm
  // counts mean nothing then, so bisection must report it, as sterf does.
  for (const bool in_d : {true, false}) {
    std::vector<float> d(8, 1.0f);
    std::vector<float> e(7, 0.5f);
    if (in_d)
      d[5] = std::numeric_limits<float>::quiet_NaN();
    else
      e[2] = std::numeric_limits<float>::infinity();
    for (const auto& [il, iu] : {std::pair<index_t, index_t>{0, 7}, {3, 3}}) {
      const StatusOr<std::vector<float>> eigs = lapack::stebz<float>(d, e, il, iu);
      ASSERT_FALSE(eigs.ok()) << (in_d ? "NaN in d" : "Inf in e");
      EXPECT_EQ(eigs.status().code(), ErrorCode::NoConvergence) << eigs.status().to_string();
    }
  }
}

TEST(Steqr, FloatPrecision) {
  const index_t n = 80;
  std::vector<float> d(static_cast<std::size_t>(n), 2.0f);
  std::vector<float> e(static_cast<std::size_t>(n - 1), -1.0f);
  ASSERT_TRUE(lapack::steqr<float>(d, e, nullptr).ok());
  auto ref = laplacian_eigs(n);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-4);
}

}  // namespace
}  // namespace tcevd
