// Partial eigensolve: selected eigenvalues + vectors by bisection + inverse
// iteration through the full two-stage pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/pipeline.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/matgen/matgen.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

TEST(Partial, SelectedValuesMatchFullSolve) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 1);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  auto full = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(full.converged);
  auto part = *evd::solve_selected(a.view(), ctx, opt, 10, 19);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.eigenvalues.size(), 10u);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_NEAR(part.eigenvalues[static_cast<std::size_t>(i)],
                full.eigenvalues[static_cast<std::size_t>(10 + i)], 2e-4);
}

TEST(Partial, VectorsAreEigenvectorsOfA) {
  const index_t n = 80;
  Rng rng(2);
  auto a = matgen::generate_f(matgen::MatrixType::Geo, n, 1e2, rng);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;

  auto part = *evd::solve_selected(a.view(), ctx, opt, n - 5, n - 1);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.vectors.cols(), 5);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
  EXPECT_LT(orthogonality_residual<float>(part.vectors.view()), 1e-3);
}

TEST(Partial, VectorsFollowTheOptions) {
  // EvdOptions::vectors decides, as it does for evd::solve and a selected
  // EvdService request: n x (iu - il + 1) vectors with it, none without.
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 12);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.vectors = true;
  auto with = evd::solve_selected(a.view(), ctx, opt, 3, 9);
  ASSERT_TRUE(with.ok()) << with.status().to_string();
  ASSERT_EQ(with->vectors.rows(), n);
  ASSERT_EQ(with->vectors.cols(), 7);
  EXPECT_LT(evd::eigenpair_residual(a.view(), with->eigenvalues, with->vectors.view()), 1e-4);

  opt.vectors = false;
  auto without = evd::solve_selected(a.view(), ctx, opt, 3, 9);
  ASSERT_TRUE(without.ok()) << without.status().to_string();
  EXPECT_EQ(without->vectors.cols(), 0);
  EXPECT_EQ(without->eigenvalues, with->eigenvalues);
}

TEST(Partial, ExtremeEndsAndSinglePair) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 3);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;

  auto full = *evd::solve(a.view(), ctx, opt);
  opt.vectors = true;
  auto lo = *evd::solve_selected(a.view(), ctx, opt, 0, 0);
  auto hi = *evd::solve_selected(a.view(), ctx, opt, n - 1, n - 1);
  EXPECT_NEAR(lo.eigenvalues[0], full.eigenvalues.front(), 2e-4);
  EXPECT_NEAR(hi.eigenvalues[0], full.eigenvalues.back(), 2e-4);
  EXPECT_LT(evd::eigenpair_residual(a.view(), lo.eigenvalues, lo.vectors.view()), 1e-4);
}

TEST(Partial, TensorCoreEngineWorks) {
  const index_t n = 96;
  Rng rng(4);
  auto a = matgen::generate_f(matgen::MatrixType::Arith, n, 1e2, rng);
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;

  auto part = *evd::solve_selected(a.view(), ctx, opt, n - 3, n - 1);
  ASSERT_TRUE(part.converged);
  // TC numerics: residual bounded by TC eps.
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-2);
}

TEST(Partial, OneStageReductionPath) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 5);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::OneStage;
  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, 0, 4);
  ASSERT_TRUE(part.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
}

TEST(Partial, ZyReductionPath) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 6);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageZy;
  opt.bandwidth = 8;
  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, 20, 24);
  ASSERT_TRUE(part.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
}

TEST(Partial, DbrReductionPath) {
  // Narrow DBR band (b = 4 < nb = 16) through the shared bulge stage.
  const index_t n = 72;
  auto a = test::random_symmetric<float>(n, 8);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageDbr;
  opt.bandwidth = 4;
  opt.big_block = 16;
  auto full = *evd::solve(a.view(), ctx, opt);
  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, 30, 39);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.eigenvalues.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(part.eigenvalues[i], full.eigenvalues[30 + i], 2e-4) << i;
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
}

TEST(Partial, RangeSolveEndsAfterSolverStage) {
  // A range shares the reduction and bulge stages with a full solve, and its
  // solver stage ends the solve: a verify policy never opens the verify
  // stage. solve_selected is this call, so its result is the same bits.
  using evd::Stage;
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 9);
  tc::Fp32Engine eng;
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  opt.verify = verify::Policy::EstimateEscalate;

  for (evd::Reduction red : {evd::Reduction::TwoStageWy, evd::Reduction::OneStage}) {
    opt.reduction = red;
    Context ctx(eng);
    std::vector<Stage> seen;
    const evd::StageGate gate = [&seen](Stage stage) {
      seen.push_back(stage);
      return ok_status();
    };
    auto res = evd::run_solve(a.view(), ctx, opt, evd::IndexRange{5, 12}, gate);
    const std::vector<Stage> want =
        red == evd::Reduction::OneStage
            ? std::vector<Stage>{Stage::Reduction, Stage::Solver}
            : std::vector<Stage>{Stage::Reduction, Stage::Bulge, Stage::Solver};
    EXPECT_EQ(seen, want);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_FALSE(res->verify.checked);
    EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);

    Context ref_ctx(eng);
    auto ref = *evd::solve_selected(a.view(), ref_ctx, opt, 5, 12);
    ASSERT_EQ(res->eigenvalues.size(), 8u);
    ASSERT_EQ(res->vectors.cols(), 8);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(res->eigenvalues[i], ref.eigenvalues[i]);
    for (index_t j = 0; j < 8; ++j)
      for (index_t i = 0; i < n; ++i) ASSERT_EQ(res->vectors(i, j), ref.vectors(i, j));
  }
}

TEST(Partial, ValuesOnlySelectedSolveChasesCompactBand) {
  // The selected solve chases the band in compact storage like a full solve
  // does: its eigenvalues are bit for bit stebz on the compact chase of the
  // same SBR band, and so are those of a vectors solve, whose chase also
  // streams the rotations into Q.
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 10);
  tc::Fp32Engine eng;
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;

  Context ref_ctx(eng);
  sbr::SbrOptions sopt;
  sopt.bandwidth = 8;
  sopt.big_block = 16;
  auto sres = *sbr::sbr_wy(a.view(), ref_ctx, sopt);
  auto band = sbr::BandMatrix<float>::from_full(ConstMatrixView<float>(sres.band.view()), 8);
  const auto [d, e] = bulge::bulge_chase_band<float>(ref_ctx, band);
  const std::vector<float> want = *lapack::stebz<float>(d, e, 0, n - 1);

  Context ctx(eng);
  auto compact = *evd::solve_selected(a.view(), ctx, opt, 0, n - 1);
  ASSERT_EQ(compact.eigenvalues.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(compact.eigenvalues[i], want[i]) << i;
  EXPECT_GT(ctx.telemetry().stage_seconds("bulge.chase"), 0.0);

  Context vctx(eng);
  evd::EvdOptions vopt = opt;
  vopt.vectors = true;
  auto with_vectors = *evd::solve_selected(a.view(), vctx, vopt, 0, 3);
  EXPECT_GT(vctx.telemetry().stage_seconds("bulge.chase"), 0.0);
  EXPECT_EQ(with_vectors.eigenvalues, *lapack::stebz<float>(d, e, 0, 3));
}

TEST(Partial, SteadyStateSelectedSolveReusesArena) {
  // A selected solve sizes its arena with evd::workspace_query like a full
  // solve; a second one on the same Context must not grow it.
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 11);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  auto r1 = *evd::solve_selected(a.view(), ctx, opt, n - 10, n - 1);
  Workspace& ws = ctx.workspace();
  EXPECT_EQ(ws.spill_count(), 0) << "evd::workspace_query undersized a selected solve";
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  const std::size_t blocks = ws.block_count();
  const std::size_t hwm = ws.high_water_mark();

  auto r2 = *evd::solve_selected(a.view(), ctx, opt, n - 10, n - 1);
  EXPECT_EQ(ws.block_count(), blocks);
  EXPECT_EQ(ws.spill_count(), 0);
  EXPECT_EQ(ws.high_water_mark(), hwm);
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  for (std::size_t i = 0; i < r1.eigenvalues.size(); ++i)
    EXPECT_EQ(r1.eigenvalues[i], r2.eigenvalues[i]);
}

}  // namespace
}  // namespace tcevd
