// Inverse iteration (stein) for tridiagonal eigenvectors.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/norms.hpp"
#include "src/lapack/stein.hpp"
#include "src/lapack/tridiag.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

void check_eigenvectors(const std::vector<double>& d, const std::vector<double>& e,
                        const std::vector<double>& eigs, ConstMatrixView<double> z,
                        double tol) {
  const index_t n = static_cast<index_t>(d.size());
  const index_t nev = static_cast<index_t>(eigs.size());
  double scale = 0.0;
  for (double v : d) scale = std::max(scale, std::abs(v));
  for (double v : e) scale = std::max(scale, std::abs(v));
  for (index_t j = 0; j < nev; ++j) {
    // ||T z - lambda z||
    double worst = 0.0;
    for (index_t i = 0; i < n; ++i) {
      double tz = d[static_cast<std::size_t>(i)] * z(i, j);
      if (i > 0) tz += e[static_cast<std::size_t>(i - 1)] * z(i - 1, j);
      if (i + 1 < n) tz += e[static_cast<std::size_t>(i)] * z(i + 1, j);
      worst = std::max(worst, std::abs(tz - eigs[static_cast<std::size_t>(j)] * z(i, j)));
    }
    EXPECT_LT(worst / std::max(scale, 1.0), tol) << "vector " << j;
  }
  EXPECT_LT(orthogonality_residual<double>(z), tol * n);
}

TEST(Stein, AllEigenvectorsOfRandomTridiagonal) {
  const index_t n = 80;
  Rng rng(1);
  std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  auto eigs = *lapack::stebz<double>(d, e, 0, n - 1, 1e-14);
  Matrix<double> z(n, n);
  ASSERT_TRUE(lapack::stein<double>(d, e, eigs, z.view()).ok());
  check_eigenvectors(d, e, eigs, z.view(), 1e-10);
}

TEST(Stein, SelectedSubset) {
  const index_t n = 120;
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
  auto eigs = *lapack::stebz<double>(d, e, 10, 19, 1e-14);
  Matrix<double> z(n, 10);
  ASSERT_TRUE(lapack::stein<double>(d, e, eigs, z.view()).ok());
  check_eigenvectors(d, e, eigs, z.view(), 1e-10);
  // Laplacian eigenvector k is sin((k+1) pi i / (n+1)): check index 10's
  // sign-change count (= index).
  index_t changes = 0;
  for (index_t i = 1; i < n; ++i)
    if ((z(i, 0) > 0) != (z(i - 1, 0) > 0)) ++changes;
  EXPECT_EQ(changes, 10);
}

TEST(Stein, ClusteredEigenvaluesStayOrthogonal) {
  // Near-degenerate pair: inverse iteration needs the reorthogonalization.
  const index_t n = 60;
  Rng rng(3);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (index_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = (i % 2 == 0 ? 1.0 : 3.0) + 1e-12 * rng.normal();
  for (auto& v : e) v = 1e-10 * rng.normal();
  auto eigs = *lapack::stebz<double>(d, e, 0, n - 1, 1e-15);
  Matrix<double> z(n, n);
  ASSERT_TRUE(lapack::stein<double>(d, e, eigs, z.view()).ok());
  EXPECT_LT(orthogonality_residual<double>(z.view()), 1e-8 * n);
}

TEST(Stein, MatchesSteqrUpToSign) {
  const index_t n = 40;
  Rng rng(5);
  std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();

  auto eigs = *lapack::stebz<double>(d, e, 0, n - 1, 1e-14);
  Matrix<double> z1(n, n);
  ASSERT_TRUE(lapack::stein<double>(d, e, eigs, z1.view()).ok());

  auto d2 = d;
  auto e2 = e;
  Matrix<double> z2(n, n);
  set_identity(z2.view());
  auto z2v = z2.view();
  ASSERT_TRUE(lapack::steqr<double>(d2, e2, &z2v).ok());

  for (index_t j = 0; j < n; ++j) {
    double dot = 0.0;
    for (index_t i = 0; i < n; ++i) dot += z1(i, j) * z2(i, j);
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-8) << "column " << j;
  }
}

TEST(Stein, FloatPrecision) {
  const index_t n = 50;
  std::vector<float> d(static_cast<std::size_t>(n), 2.0f);
  std::vector<float> e(static_cast<std::size_t>(n - 1), -1.0f);
  auto eigs = *lapack::stebz<float>(d, e, 0, 4);
  Matrix<float> z(n, 5);
  ASSERT_TRUE(lapack::stein<float>(d, e, eigs, z.view()).ok());
  EXPECT_LT(orthogonality_residual<float>(z.view()), 1e-4);
}

}  // namespace
}  // namespace tcevd
