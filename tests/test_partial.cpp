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
#include "src/evd/solve_job.hpp"
#include "src/matgen/matgen.hpp"
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

  auto part = *evd::solve_selected(a.view(), ctx, opt, n - 5, n - 1, /*vectors=*/true);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.vectors.cols(), 5);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
  EXPECT_LT(orthogonality_residual<float>(part.vectors.view()), 1e-3);
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
  auto lo = *evd::solve_selected(a.view(), ctx, opt, 0, 0, true);
  auto hi = *evd::solve_selected(a.view(), ctx, opt, n - 1, n - 1, true);
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

  auto part = *evd::solve_selected(a.view(), ctx, opt, n - 3, n - 1, true);
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
  auto part = *evd::solve_selected(a.view(), ctx, opt, 0, 4, true);
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
  auto part = *evd::solve_selected(a.view(), ctx, opt, 20, 24, true);
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
  auto part = *evd::solve_selected(a.view(), ctx, opt, 30, 39, true);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.eigenvalues.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(part.eigenvalues[i], full.eigenvalues[30 + i], 2e-4) << i;
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
}

/// Step `job` to completion, returning the stage it was in before each step.
std::vector<evd::SolveJob::Stage> step_all(evd::SolveJob& job) {
  std::vector<evd::SolveJob::Stage> seen;
  while (!job.done()) {
    seen.push_back(job.stage());
    job.step();
  }
  return seen;
}

TEST(Partial, SolveJobWithRangeEndsAfterSolverStage) {
  // A range shares the reduction and bulge stages with a full solve, and its
  // solver stage ends the job: a verify policy never opens the finish stage.
  // solve_selected is this step loop, so its result is the same bits.
  using Stage = evd::SolveJob::Stage;
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
    evd::SolveJob job(a.view(), ctx, opt, evd::IndexRange{5, 12});
    const auto seen = step_all(job);
    const std::vector<Stage> want =
        red == evd::Reduction::OneStage
            ? std::vector<Stage>{Stage::Reduction, Stage::Solver}
            : std::vector<Stage>{Stage::Reduction, Stage::Bulge, Stage::Solver};
    EXPECT_EQ(seen, want);
    auto res = job.take();
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_FALSE(res->verify.checked);
    EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);

    Context ref_ctx(eng);
    auto ref = *evd::solve_selected(a.view(), ref_ctx, opt, 5, 12, true);
    ASSERT_EQ(res->eigenvalues.size(), 8u);
    ASSERT_EQ(res->vectors.cols(), 8);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(res->eigenvalues[i], ref.eigenvalues[i]);
    for (index_t j = 0; j < 8; ++j)
      for (index_t i = 0; i < n; ++i) ASSERT_EQ(res->vectors(i, j), ref.vectors(i, j));
  }
}

TEST(Partial, ValuesOnlySelectedSolveHonoursCompactSecondStage) {
  // Without vectors the selected solve chases the band in compact storage
  // like a full solve does; with vectors the flag is ignored and noted.
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 10);
  tc::Fp32Engine eng;
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  auto noted = [](const RecoveryLog& log) {
    for (const RecoveryEvent& ev : log)
      if (ev.site == "evd.second_stage") return true;
    return false;
  };

  Context c1(eng), c2(eng), c3(eng);
  auto plain = *evd::solve_selected(a.view(), c1, opt, 0, n - 1);
  opt.compact_second_stage = true;
  auto compact = *evd::solve_selected(a.view(), c2, opt, 0, n - 1);
  auto with_vectors = *evd::solve_selected(a.view(), c3, opt, 0, 3, true);
  EXPECT_FALSE(noted(compact.recovery));
  EXPECT_TRUE(noted(with_vectors.recovery));
  ASSERT_EQ(compact.eigenvalues.size(), plain.eigenvalues.size());
  float scale = 0.0f;
  for (float v : plain.eigenvalues) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < plain.eigenvalues.size(); ++i)
    EXPECT_NEAR(compact.eigenvalues[i], plain.eigenvalues[i], 1e-4f * scale) << i;
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
  auto r1 = *evd::solve_selected(a.view(), ctx, opt, n - 10, n - 1, true);
  Workspace& ws = ctx.workspace();
  EXPECT_EQ(ws.spill_count(), 0) << "evd::workspace_query undersized a selected solve";
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  const std::size_t blocks = ws.block_count();
  const std::size_t hwm = ws.high_water_mark();

  auto r2 = *evd::solve_selected(a.view(), ctx, opt, n - 10, n - 1, true);
  EXPECT_EQ(ws.block_count(), blocks);
  EXPECT_EQ(ws.spill_count(), 0);
  EXPECT_EQ(ws.high_water_mark(), hwm);
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  for (std::size_t i = 0; i < r1.eigenvalues.size(); ++i)
    EXPECT_EQ(r1.eigenvalues[i], r2.eigenvalues[i]);
}

}  // namespace
}  // namespace tcevd
