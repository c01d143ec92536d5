// Divide & conquer tridiagonal eigensolver vs steqr/bisection, including
// deflation-heavy spectra and eigenvector orthogonality on clusters.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/lapack/secular.hpp"
#include "src/lapack/tridiag.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

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

void check_eigensystem(const std::vector<double>& d0, const std::vector<double>& e0,
                       double tol) {
  const index_t n = static_cast<index_t>(d0.size());
  auto d = d0;
  auto e = e0;
  Matrix<double> z(n, n);
  set_identity(z.view());
  auto zv = z.view();
  ASSERT_TRUE(lapack::stedc<double>(d, e, &zv).ok());

  // Ascending.
  for (index_t i = 1; i < n; ++i)
    EXPECT_LE(d[static_cast<std::size_t>(i - 1)], d[static_cast<std::size_t>(i)] + 1e-14);

  // Orthogonal eigenvectors.
  EXPECT_LT(orthogonality_residual<double>(z.view()), tol * n);

  // Residual T z = z diag(d).
  auto t = dense_tridiag(d0, e0);
  Matrix<double> tz(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t.view(), z.view(), 0.0, tz.view());
  double scale = std::max(1.0, max_abs<double>(t.view()));
  double max_err = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      max_err = std::max(max_err, std::abs(tz(i, j) - d[static_cast<std::size_t>(j)] * z(i, j)));
  EXPECT_LT(max_err / scale, tol);

  // Eigenvalues cross-checked against implicit QL.
  auto ds = d0;
  auto es = e0;
  ASSERT_TRUE(lapack::steqr<double>(ds, es, nullptr).ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ds[static_cast<std::size_t>(i)], tol * scale);

  // The values-only path (no merges) agrees with the vectors path.
  auto dv = d0;
  auto ev = e0;
  ASSERT_TRUE(lapack::stedc<double>(dv, ev, nullptr).ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(dv[static_cast<std::size_t>(i)], d[static_cast<std::size_t>(i)], tol * scale);
  for (double v : ev) EXPECT_EQ(v, 0.0);
}

class StedcRandomTest : public ::testing::TestWithParam<index_t> {};

TEST_P(StedcRandomTest, RandomTridiagonal) {
  const index_t n = GetParam();
  Rng rng(1000 + n);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  check_eigensystem(d, e, 1e-11);
}

// Sizes straddle the D&C base case (32) and force 1-3 merge levels.
INSTANTIATE_TEST_SUITE_P(Sizes, StedcRandomTest,
                         ::testing::Values<index_t>(1, 2, 16, 33, 40, 64, 65, 100, 150, 256));

TEST(Stedc, LaplacianKnownSpectrum) {
  const index_t n = 120;
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
  auto dc = d;
  auto ec = e;
  ASSERT_TRUE(lapack::stedc<double>(dc, ec, nullptr).ok());
  for (index_t k = 1; k <= n; ++k) {
    const double ref = 2.0 - 2.0 * std::cos(k * M_PI / (n + 1));
    EXPECT_NEAR(dc[static_cast<std::size_t>(k - 1)], ref, 1e-12);
  }
}

TEST(Stedc, MassiveDeflationIdenticalDiagonal) {
  // d = const, e = tiny: nearly everything deflates at every merge.
  const index_t n = 90;
  std::vector<double> d(static_cast<std::size_t>(n), 4.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), 1e-14);
  check_eigensystem(d, e, 1e-11);
}

TEST(Stedc, ClusteredSpectrumKeepsOrthogonality) {
  // Tridiagonal whose eigenvalues form two tight clusters: a hard case for
  // naive eigenvector formulas; Gu-Eisenstat must keep Z orthogonal.
  const index_t n = 80;
  Rng rng(7);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (index_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = (i < n / 2 ? 1.0 : 2.0) + 1e-10 * rng.normal();
  for (auto& v : e) v = 1e-8 * rng.normal();
  check_eigensystem(d, e, 1e-10);
}

TEST(Stedc, ZeroCouplingDecouples) {
  // e[m-1] == 0 at the tear point: halves must be solved independently.
  const index_t n = 66;
  Rng rng(9);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  e[static_cast<std::size_t>(n / 2 - 1)] = 0.0;
  check_eigensystem(d, e, 1e-11);
}

TEST(Stedc, NegativeCouplingHandled) {
  const index_t n = 48;
  std::vector<double> d(static_cast<std::size_t>(n), 1.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -0.75);  // all negative
  check_eigensystem(d, e, 1e-11);
}

TEST(Stedc, WideDynamicRange) {
  const index_t n = 70;
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  Rng rng(13);
  for (index_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = rng.normal() * std::pow(10.0, rng.uniform(-6.0, 6.0));
  for (auto& v : e) v = rng.normal();
  check_eigensystem(d, e, 1e-9);
}

TEST(Stedc, FloatInterfaceConverts) {
  const index_t n = 50;
  std::vector<float> d(static_cast<std::size_t>(n), 2.0f);
  std::vector<float> e(static_cast<std::size_t>(n - 1), -1.0f);
  Matrix<float> z(n, n);
  set_identity(z.view());
  auto zv = z.view();
  auto dv = d;
  auto ev = e;
  ASSERT_TRUE(lapack::stedc<float>(d, e, &zv).ok());
  ASSERT_TRUE(lapack::stedc<float>(dv, ev, nullptr).ok());
  EXPECT_LT(orthogonality_residual<float>(z.view()), 1e-4);
  for (index_t k = 1; k <= n; ++k) {
    const double ref = 2.0 - 2.0 * std::cos(k * M_PI / (n + 1));
    EXPECT_NEAR(d[static_cast<std::size_t>(k - 1)], ref, 1e-5);
    EXPECT_NEAR(dv[static_cast<std::size_t>(k - 1)], ref, 1e-5);
  }
}

TEST(Secular, RootsInteriorToIntervals) {
  std::vector<double> d{0.0, 1.0, 2.0, 5.0};
  std::vector<double> wsq{0.1, 0.2, 0.3, 0.4};
  for (index_t j = 0; j < 4; ++j) {
    const auto r = lapack::secular_solve(d, wsq, 1.0, j);
    const double lam =
        d[static_cast<std::size_t>(r.anchor)] + static_cast<double>(r.offset);
    EXPECT_GT(lam, d[static_cast<std::size_t>(j)]);
    if (j < 3) {
      EXPECT_LT(lam, d[static_cast<std::size_t>(j + 1)]);
    }
    // Verify it is actually a root.
    long double f = 1.0L;
    for (index_t i = 0; i < 4; ++i)
      f += wsq[static_cast<std::size_t>(i)] /
           ((static_cast<long double>(d[static_cast<std::size_t>(i)]) -
             static_cast<long double>(d[static_cast<std::size_t>(r.anchor)])) -
            r.offset);
    EXPECT_LT(std::abs(static_cast<double>(f)), 1e-10);
  }
}

TEST(Secular, InterlacingAndTraceIdentity) {
  // Sum of roots == sum of poles + sum of weights (trace of D + w w^T).
  const index_t k = 12;
  Rng rng(21);
  std::vector<double> d(static_cast<std::size_t>(k));
  std::vector<double> wsq(static_cast<std::size_t>(k));
  double x = 0.0;
  for (index_t i = 0; i < k; ++i) {
    x += 0.5 + rng.uniform();
    d[static_cast<std::size_t>(i)] = x;
    wsq[static_cast<std::size_t>(i)] = 0.01 + rng.uniform();
  }
  double trace_expected = 0.0;
  for (index_t i = 0; i < k; ++i)
    trace_expected += d[static_cast<std::size_t>(i)] + wsq[static_cast<std::size_t>(i)];
  double trace = 0.0;
  for (index_t j = 0; j < k; ++j) {
    const auto r = lapack::secular_solve(d, wsq, 1.0, j);
    trace += d[static_cast<std::size_t>(r.anchor)] + static_cast<double>(r.offset);
  }
  EXPECT_NEAR(trace, trace_expected, 1e-9);
}

TEST(Secular, TinyWeightRootHugsPole) {
  std::vector<double> d{0.0, 1.0};
  std::vector<double> wsq{1e-18, 1e-18};
  const auto r = lapack::secular_solve(d, wsq, 1.0, 0);
  const double lam = d[static_cast<std::size_t>(r.anchor)] + static_cast<double>(r.offset);
  EXPECT_NEAR(lam, 1e-18, 1e-19);  // lambda ~ d0 + w0^2
}

}  // namespace
}  // namespace tcevd
