// Matrix generation: spectra, symmetry, condition numbers, names.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/matgen/matgen.hpp"
#include "src/sbr/band.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using matgen::MatrixType;

TEST(Matgen, NamesMatchPaperTables) {
  EXPECT_EQ(matgen::matrix_type_name(MatrixType::Normal, 1), "Normal");
  EXPECT_EQ(matgen::matrix_type_name(MatrixType::Uniform, 1), "Uniform");
  EXPECT_EQ(matgen::matrix_type_name(MatrixType::Cluster0, 1e5), "SVD_Cluster0 1e5");
  EXPECT_EQ(matgen::matrix_type_name(MatrixType::Arith, 1e3), "SVD_Arith 1e3");
  EXPECT_EQ(matgen::matrix_type_name(MatrixType::Geo, 1e1), "SVD_Geo 1e1");
}

TEST(Matgen, PaperRowsCoverTable) {
  auto rows = matgen::paper_accuracy_rows();
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().type, MatrixType::Normal);
  EXPECT_EQ(rows.back().type, MatrixType::Geo);
  EXPECT_EQ(rows.back().cond, 1e5);
}

TEST(Matgen, AllTypesSymmetric) {
  Rng rng(1);
  for (auto type : {MatrixType::Normal, MatrixType::Uniform, MatrixType::Cluster0,
                    MatrixType::Cluster1, MatrixType::Arith, MatrixType::Geo}) {
    auto a = matgen::generate(type, 40, 1e3, rng);
    EXPECT_EQ(sbr::symmetry_violation<double>(a.view()), 0.0);
  }
}

// The smallest orders generate too: an n = 0 spectrum-controlled row once
// wrote through back()/front() of an empty spectrum. At n = 1 the entry is
// the prescribed eigenvalue (Q = +-1).
TEST(Matgen, EveryPaperRowGeneratesAtOrdersZeroAndOne) {
  for (const auto& row : matgen::paper_accuracy_rows()) {
    SCOPED_TRACE(matgen::matrix_type_name(row.type, row.cond));
    Rng rng(5);
    EXPECT_TRUE(matgen::prescribed_spectrum(row.type, 0, row.cond).empty());
    const auto empty = matgen::generate(row.type, 0, row.cond, rng);
    EXPECT_EQ(empty.rows(), 0);
    EXPECT_EQ(empty.cols(), 0);

    const auto one = matgen::generate(row.type, 1, row.cond, rng);
    ASSERT_EQ(one.rows(), 1);
    ASSERT_EQ(one.cols(), 1);
    EXPECT_TRUE(std::isfinite(one(0, 0)));
    const auto spectrum = matgen::prescribed_spectrum(row.type, 1, row.cond);
    if (!spectrum.empty()) {
      EXPECT_NEAR(one(0, 0), spectrum[0], 1e-15);
    }
  }
}

TEST(Matgen, RandomOrthogonalIsOrthogonal) {
  Rng rng(2);
  auto q = matgen::random_orthogonal(50, rng);
  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-12 * 50);
}

class SpectrumTest : public ::testing::TestWithParam<MatrixType> {};

TEST_P(SpectrumTest, GeneratedMatrixHasPrescribedSpectrum) {
  const auto type = GetParam();
  const index_t n = 60;
  const double cond = 1e4;
  Rng rng(3);
  auto a = matgen::generate(type, n, cond, rng);
  auto want = matgen::prescribed_spectrum(type, n, cond);
  auto got = *evd::reference_eigenvalues(a.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(got[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Types, SpectrumTest,
                         ::testing::Values(MatrixType::Cluster0, MatrixType::Cluster1,
                                           MatrixType::Arith, MatrixType::Geo));

TEST(Matgen, ConditionNumberRealized) {
  const index_t n = 30;
  Rng rng(4);
  for (double cond : {1e1, 1e3, 1e5}) {
    auto a = matgen::generate(MatrixType::Geo, n, cond, rng);
    auto eigs = *evd::reference_eigenvalues(a.view());
    EXPECT_NEAR(eigs.back() / eigs.front(), cond, cond * 1e-6);
  }
}

TEST(Matgen, SpectrumShapes) {
  auto c0 = matgen::prescribed_spectrum(MatrixType::Cluster0, 5, 100);
  EXPECT_DOUBLE_EQ(c0[4], 1.0);
  EXPECT_DOUBLE_EQ(c0[0], 0.01);
  EXPECT_DOUBLE_EQ(c0[1], 0.01);  // clustered at the bottom

  auto c1 = matgen::prescribed_spectrum(MatrixType::Cluster1, 5, 100);
  EXPECT_DOUBLE_EQ(c1[0], 0.01);
  EXPECT_DOUBLE_EQ(c1[1], 1.0);  // clustered at the top

  auto ar = matgen::prescribed_spectrum(MatrixType::Arith, 5, 100);
  const double gap = ar[1] - ar[0];
  for (int i = 1; i < 4; ++i) EXPECT_NEAR(ar[i + 1] - ar[i], gap, 1e-12);

  auto ge = matgen::prescribed_spectrum(MatrixType::Geo, 5, 100);
  const double ratio = ge[1] / ge[0];
  for (int i = 1; i < 4; ++i) EXPECT_NEAR(ge[i + 1] / ge[i], ratio, 1e-9);
}

TEST(Matgen, DeterministicGivenRngState) {
  Rng r1(42), r2(42);
  auto a = matgen::generate(MatrixType::Arith, 20, 1e2, r1);
  auto b = matgen::generate(MatrixType::Arith, 20, 1e2, r2);
  EXPECT_EQ(test::rel_diff<double>(a.view(), b.view()), 0.0);
}

TEST(Matgen, FloatVariantMatchesDouble) {
  Rng r1(7), r2(7);
  auto ad = matgen::generate(MatrixType::Normal, 15, 1.0, r1);
  auto af = matgen::generate_f(MatrixType::Normal, 15, 1.0, r2);
  for (index_t j = 0; j < 15; ++j)
    for (index_t i = 0; i < 15; ++i)
      EXPECT_EQ(af(i, j), static_cast<float>(ad(i, j)));
}

}  // namespace
}  // namespace tcevd
