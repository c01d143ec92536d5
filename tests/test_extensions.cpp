// Options wired in after the core reproduction: the compact second stage
// and block-reflector application.
#include <gtest/gtest.h>

#include <string>

#include "src/common/context.hpp"
#include "src/blas/blas.hpp"
#include "src/evd/evd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

// A values-only solve chases the SBR band in compact storage: its
// eigenvalues are bit for bit those of sbr_wy -> BandMatrix::from_full ->
// bulge_chase_band -> stedc, and agree to roundoff with the vectors solve of
// the same matrix, whose stedc also forms vectors.
TEST(CompactSecondStage, SameEigenvaluesAsVectorsSolve) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 1);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  auto vectors = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(vectors.converged);

  sbr::SbrOptions sopt;
  sopt.bandwidth = 8;
  sopt.big_block = 32;
  auto sres = *sbr::sbr_wy(a.view(), ctx, sopt);
  auto band = sbr::BandMatrix<float>::from_full(ConstMatrixView<float>(sres.band.view()), 8);
  auto [d, e] = bulge::bulge_chase_band<float>(ctx, band);
  ASSERT_TRUE(lapack::stedc<float>(d, e, nullptr).ok());

  opt.vectors = false;
  auto values = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(values.converged);
  for (index_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(values.eigenvalues[k], d[k]) << i;
    EXPECT_NEAR(vectors.eigenvalues[k], values.eigenvalues[k], 2e-5f) << i;
  }
}

TEST(CompactSecondStage, VectorsSolveChasesCompactStorage) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 2);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;  // the compact chase also streams its rotations into Q
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), 1e-5);
  long chases = 0;
  for (const auto& s : ctx.telemetry().stages()) {
    EXPECT_EQ(s.name.find("bulge.chase."), std::string::npos) << s.name;
    if (s.name == "bulge.chase") chases += s.calls;
  }
  EXPECT_EQ(chases, 1);
}

TEST(ApplyWyBlocks, MatchesExplicitQMultiplication) {
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 5);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 32;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_FALSE(res.blocks.empty());

  auto x = test::random_matrix_f(n, 7, 6);
  // Reference: explicit Q times X.
  auto q = sbr::form_q(res.blocks, n, ctx);
  Matrix<float> qx(n, 7);
  blas::gemm(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(q.view()),
             ConstMatrixView<float>(x.view()), 0.0f, qx.view());
  // In-place block application.
  Matrix<float> x2 = x;
  sbr::apply_wy_blocks_left(res.blocks, ctx, x2.view());
  EXPECT_LT(test::rel_diff<float>(x2.view(), qx.view()), 1e-5);
}

TEST(ApplyWyBlocks, PreservesNorms) {
  // Q is orthogonal: column norms of X are invariant.
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 7);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  auto x = test::random_matrix_f(n, 3, 8);
  std::vector<double> norms;
  for (index_t j = 0; j < 3; ++j) norms.push_back(blas::nrm2(n, &x(0, j), 1));
  sbr::apply_wy_blocks_left(res.blocks, ctx, x.view());
  for (index_t j = 0; j < 3; ++j)
    EXPECT_NEAR(blas::nrm2(n, &x(0, j), 1), norms[static_cast<std::size_t>(j)], 1e-4);
}

}  // namespace
}  // namespace tcevd
