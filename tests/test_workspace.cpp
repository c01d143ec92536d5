// Workspace arena and Context plumbing: alignment, scope rewind, spill
// accounting, high-water mark, and the steady-state allocation-regression
// guarantees the Context refactor exists to provide.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "src/blas/blas.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/tensorcore/engine.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "alloc_counter.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

bool aligned(const void* p, std::size_t a) {
  return reinterpret_cast<std::uintptr_t>(p) % a == 0;
}

TEST(Workspace, CheckoutsAreAligned) {
  Workspace ws;
  auto scope = ws.scope();
  for (std::size_t n : {1u, 3u, 63u, 64u, 65u, 1000u}) {
    void* p = ws.alloc_bytes(n);
    EXPECT_TRUE(aligned(p, Workspace::kAlignment)) << "request of " << n << " bytes";
  }
  float* f = scope.alloc<float>(7);
  EXPECT_TRUE(aligned(f, Workspace::kAlignment));
}

TEST(Workspace, MatrixCheckoutIsZeroInitialized) {
  Workspace ws;
  auto scope = ws.scope();
  {
    auto m = scope.matrix<float>(16, 16);
    for (index_t j = 0; j < 16; ++j)
      for (index_t i = 0; i < 16; ++i) m(i, j) = 42.0f;
  }
  // A second checkout reuses the dirtied memory and must still read zero.
  auto scope2 = ws.scope();
  auto m2 = scope2.matrix<float>(16, 16);
  for (index_t j = 0; j < 16; ++j)
    for (index_t i = 0; i < 16; ++i) EXPECT_EQ(m2(i, j), 0.0f);
}

#ifdef __linux__
/// Resident set size of this process in bytes (/proc/self/statm, field 2).
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

// Reserving is not touching: arena blocks are left uninitialized (checkouts
// write before they read, and matrix() zeroes its own), so reserved bytes no
// checkout uses never become resident.
TEST(Workspace, ReserveDoesNotTouchTheBlock) {
  constexpr std::size_t kReserve = std::size_t{256} << 20;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
  Workspace ws;
  ws.reserve(kReserve);
  const std::size_t after = resident_bytes();
  EXPECT_GE(ws.capacity(), kReserve);
  EXPECT_LT(after > before ? after - before : 0, kReserve / 4)
      << "reserve() made " << (after - before) << " bytes resident";
}
#endif

TEST(Workspace, ScopeReleaseRewindsBump) {
  Workspace ws;
  ws.reserve(1 << 16);
  const std::size_t base = ws.bytes_in_use();
  {
    auto scope = ws.scope();
    (void)scope.matrix<float>(32, 32);
    EXPECT_GT(ws.bytes_in_use(), base);
  }
  EXPECT_EQ(ws.bytes_in_use(), base);
}

TEST(Workspace, NestedScopesReleaseLifo) {
  Workspace ws;
  ws.reserve(1 << 16);
  auto outer = ws.scope();
  (void)outer.matrix<float>(8, 8);
  const std::size_t after_outer = ws.bytes_in_use();
  {
    auto inner = ws.scope();
    (void)inner.matrix<float>(64, 64);
    EXPECT_GT(ws.bytes_in_use(), after_outer);
    {
      auto inner2 = ws.scope();
      (void)inner2.alloc<double>(100);
    }
    // inner2 released, inner's checkout still live.
    EXPECT_GT(ws.bytes_in_use(), after_outer);
  }
  EXPECT_EQ(ws.bytes_in_use(), after_outer);
}

TEST(Workspace, SpillAppendsBlockAndScopeReleasesIt) {
  Workspace ws;
  ws.reserve(1 << 12);  // deliberately tiny: the next checkout must spill
  const std::size_t blocks0 = ws.block_count();
  {
    auto scope = ws.scope();
    // Far larger than the reserved block: must spill exactly once.
    (void)scope.alloc<float>((std::size_t{4} << 20) / sizeof(float));
    EXPECT_EQ(ws.block_count(), blocks0 + 1);
    EXPECT_EQ(ws.spill_count(), 1);
  }
  // The spill block survives the scope (capacity is sticky) and is reused:
  // the same request again must NOT add another block.
  const std::size_t blocks1 = ws.block_count();
  {
    auto scope = ws.scope();
    (void)scope.alloc<float>((std::size_t{4} << 20) / sizeof(float));
  }
  EXPECT_EQ(ws.block_count(), blocks1);
  EXPECT_EQ(ws.spill_count(), 1);
}

TEST(Workspace, SpillBlocksHaveMinimumSize) {
  Workspace ws;  // no reserve: first alloc spills
  auto scope = ws.scope();
  (void)scope.alloc<float>(4);
  EXPECT_GE(ws.capacity(), Workspace::kMinBlockBytes);
}

TEST(Workspace, HighWaterMarkTracksPeakNotCurrent) {
  Workspace ws;
  ws.reserve(1 << 16);
  {
    auto scope = ws.scope();
    (void)scope.matrix<float>(50, 50);
  }
  const std::size_t hwm = ws.high_water_mark();
  EXPECT_GE(hwm, 50u * 50u * sizeof(float));
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  // A smaller follow-up checkout must not move the peak.
  {
    auto scope = ws.scope();
    (void)scope.matrix<float>(4, 4);
  }
  EXPECT_EQ(ws.high_water_mark(), hwm);
}

TEST(Workspace, ReserveIsIdempotentAndKeepsCapacity) {
  Workspace ws;
  ws.reserve(1 << 16);
  const std::size_t cap = ws.capacity();
  const std::size_t blocks = ws.block_count();
  ws.reserve(1 << 10);  // smaller: no-op
  ws.reserve(1 << 16);  // equal: no-op
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.block_count(), blocks);
}

TEST(Context, BorrowsEngine) {
  tc::Fp32Engine borrowed;
  Context c1(borrowed);
  EXPECT_EQ(&c1.engine(), static_cast<tc::GemmEngine*>(&borrowed));
}

TEST(Context, StageTimerAccumulatesByName) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  { StageTimer t(ctx.telemetry(), "stage.a"); }
  { StageTimer t(ctx.telemetry(), "stage.a"); }
  { StageTimer t(ctx.telemetry(), "stage.b"); }
  const auto& stages = ctx.telemetry().stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(ctx.telemetry().stages()[0].calls, 2);
  EXPECT_GE(ctx.telemetry().stage_seconds("stage.a"), 0.0);
  EXPECT_EQ(ctx.telemetry().stage_seconds("stage.nope"), 0.0);
}

TEST(Context, EngineOverrideScopeNestsAndRestores) {
  // Verified solves escalate precision by overriding the engine in place:
  // GEMMs follow the innermost scope, each scope restores what it saw, and
  // the arena and telemetry stay the context's own throughout.
  tc::Fp32Engine base;
  tc::TcEngine tc16(tc::TcPrecision::Fp16);
  tc::EcTcEngine ec16(tc::TcPrecision::Fp16);
  Context ctx(base);
  ctx.telemetry().set_recording(true);
  Workspace* const arena = &ctx.workspace();
  Matrix<float> a(8, 8), c(8, 8);
  auto gemm = [&] {
    ctx.gemm(blas::Trans::No, blas::Trans::No, 1.0f, ConstMatrixView<float>(a.view()),
             ConstMatrixView<float>(a.view()), 0.0f, c.view());
  };

  gemm();
  {
    EngineOverrideScope outer(ctx, tc16);
    EXPECT_EQ(&ctx.engine(), static_cast<tc::GemmEngine*>(&tc16));
    gemm();
    {
      EngineOverrideScope inner(ctx, ec16);
      EXPECT_EQ(&ctx.engine(), static_cast<tc::GemmEngine*>(&ec16));
      EXPECT_EQ(&ctx.workspace(), arena);
      gemm();
    }
    EXPECT_EQ(&ctx.engine(), static_cast<tc::GemmEngine*>(&tc16));
    gemm();
  }
  EXPECT_EQ(&ctx.engine(), static_cast<tc::GemmEngine*>(&base));
  gemm();

  const auto& shapes = ctx.telemetry().recorded();
  ASSERT_EQ(shapes.size(), 5u);  // one sink across every override
  const tc::EngineKind want[] = {tc::EngineKind::Fp32, tc::EngineKind::Tc,
                                 tc::EngineKind::EcTc, tc::EngineKind::Tc,
                                 tc::EngineKind::Fp32};
  for (std::size_t i = 0; i < shapes.size(); ++i)
    EXPECT_EQ(shapes[i].engine, want[i]) << "gemm " << i;
}

// The allocation-regression guarantee of the refactor: a second evd::solve
// of the same shape on the same Context must not grow the arena at all —
// no new blocks, no spills — regardless of how accurate workspace_query is.
TEST(Workspace, SteadyStateEvdSolveReusesArena) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 4242);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  opt.solver = evd::TriSolver::Bisection;  // exercises the arena-heavy path

  auto r1 = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(r1.converged);
  const std::size_t blocks = ctx.workspace().block_count();
  const long spills = ctx.workspace().spill_count();
  const std::size_t hwm = ctx.workspace().high_water_mark();
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);  // every scope closed

  auto r2 = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(ctx.workspace().block_count(), blocks) << "second solve grew the arena";
  EXPECT_EQ(ctx.workspace().spill_count(), spills) << "second solve spilled";
  EXPECT_EQ(ctx.workspace().high_water_mark(), hwm) << "second solve peaked higher";
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);

  // Same eigenvalues both times (the arena is state-free across solves).
  for (std::size_t i = 0; i < r1.eigenvalues.size(); ++i)
    EXPECT_EQ(r1.eigenvalues[i], r2.eigenvalues[i]);
}

// The pooled-context steady-state contract: a Context reused across a
// 16-problem batch (different matrices, same shape) must rewind the arena to
// its reserved high-water mark between iterations — zero new blocks, zero
// re-spills, stable peak after the first problem — not pay per-problem
// growth. This is the regression guard for EvdService's warm-context pool.
TEST(Workspace, SteadyStateHoldsAcrossSixteenProblemBatch) {
  const index_t n = 72;
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;

  std::size_t blocks = 0, hwm = 0;
  long spills = 0;
  for (int i = 0; i < 16; ++i) {
    auto a = test::random_symmetric<float>(n, 31337 + i);
    auto res = *evd::solve(a.view(), ctx, opt);
    ASSERT_TRUE(res.converged) << "problem " << i;
    EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u) << "problem " << i;
    if (i == 0) {
      blocks = ctx.workspace().block_count();
      spills = ctx.workspace().spill_count();
      hwm = ctx.workspace().high_water_mark();
    } else {
      EXPECT_EQ(ctx.workspace().block_count(), blocks) << "problem " << i << " grew the arena";
      EXPECT_EQ(ctx.workspace().spill_count(), spills) << "problem " << i << " re-spilled";
      EXPECT_EQ(ctx.workspace().high_water_mark(), hwm) << "problem " << i << " peaked higher";
    }
  }
}

// An idle-but-fragmented arena (spills left several too-small blocks)
// consolidates on the next reserve() instead of accreting blocks forever:
// afterwards one block covers max(request, observed peak) and the request
// that used to spill fits without growth.
TEST(Workspace, ReserveConsolidatesFragmentedIdleArena) {
  Workspace ws;
  ws.reserve(1 << 12);
  {
    auto scope = ws.scope();
    (void)scope.alloc<float>((std::size_t{2} << 20) / sizeof(float));  // forced spill
  }
  ASSERT_EQ(ws.spill_count(), 1);
  ASSERT_GE(ws.block_count(), 2u);
  const std::size_t hwm = ws.high_water_mark();

  ws.reserve(std::size_t{3} << 20);  // bigger than any existing block
  EXPECT_EQ(ws.block_count(), 1u) << "idle fragmented blocks were not coalesced";
  EXPECT_GE(ws.capacity(), std::max(std::size_t{3} << 20, hwm));
  {
    auto scope = ws.scope();
    (void)scope.alloc<float>((std::size_t{3} << 20) / sizeof(float));
  }
  EXPECT_EQ(ws.spill_count(), 1) << "the consolidated block re-spilled";
}

// The packed GEMM pipeline's allocation guarantee: once the thread-local pack
// buffers are sized and gemm_pool's workers exist (both happen on the first
// call), a steady-state blas::gemm or tc::tc_gemm performs ZERO heap
// allocations — serial or pooled, any trans combination. Pooled dispatch goes
// through ThreadPool::try_broadcast, which allocates nothing by construction.
TEST(Workspace, SteadyStateGemmAndTcGemmAreAllocationFree) {
  using blas::Trans;
  const index_t n = 160;  // 2n^3 ~ 8.2 Mflop: above the pooling floor
  Rng rng(99);
  Matrix<float> a(n, n), b(n, n), c(n, n);
  fill_normal(rng, a.view());
  fill_normal(rng, b.view());

  // Warm-up: sizes the pack buffers, spawns the pool, rounds once.
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  tc::tc_gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());

  const std::uint64_t before = test::heap_allocs();
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  blas::gemm<float>(Trans::Yes, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  blas::gemm<float>(Trans::No, Trans::Yes, 1.0f, a.view(), b.view(), 0.5f, c.view());
  blas::gemm<float>(Trans::Yes, Trans::Yes, 1.0f, a.view(), b.view(), 0.5f, c.view());
  tc::tc_gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  tc::tc_gemm(Trans::Yes, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  const std::uint64_t after = test::heap_allocs();
  EXPECT_EQ(after, before) << (after - before)
                           << " heap allocations in steady-state gemm/tc_gemm calls";
}

// Values-only stedc runs the root-free sterf: one double working copy of a
// float input and nothing per merge level, so the allocation count does not
// grow with n.
TEST(Workspace, ValuesOnlyStedcAllocatesAConstant) {
  const auto allocations = [](index_t n) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<float> d(static_cast<std::size_t>(n));
    std::vector<float> e(static_cast<std::size_t>(n - 1));
    for (auto& v : d) v = static_cast<float>(rng.normal());
    for (auto& v : e) v = static_cast<float>(rng.normal());
    const std::uint64_t before = test::heap_allocs();
    const Status st = lapack::stedc<float>(d, e, nullptr);
    const std::uint64_t after = test::heap_allocs();
    EXPECT_TRUE(st.ok()) << st.to_string();
    return after - before;
  };
  const std::uint64_t at_128 = allocations(128);
  EXPECT_EQ(allocations(1024), at_128);
  EXPECT_LE(at_128, 2u);
}

// The wavefront bulge chase's steady-state allocation budget must equal the
// serial chase's exactly (the two unavoidable result-vector allocations of
// BulgeResult::d/e and nothing else): the progress vector lives in the warm
// workspace arena, lanes fan out through the allocation-free
// try_broadcast, and telemetry stage names are interned on the warm-up call.
TEST(Workspace, SteadyStateWavefrontChaseMatchesSerialAllocations) {
  const index_t n = 128, bw = 8;
  Rng rng(2024);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<double>(a.view(), bw);
  const auto band = sbr::BandMatrix<double>::from_full(a.view(), bw);

  tc::Fp32Engine eng;
  Context ctx(eng);
  ThreadPool pool(3);

  // Warm-up: sizes the arena, interns the stage name, spins up the pool.
  auto warm = band;
  (void)bulge::bulge_chase_band<double>(ctx, warm, nullptr, &pool);
  const std::size_t blocks = ctx.workspace().block_count();
  const long spills = ctx.workspace().spill_count();

  auto b1 = band, b2 = band;  // copies made BEFORE the measured window
  const std::uint64_t before = test::heap_allocs();
  auto r_wave = bulge::bulge_chase_band<double>(ctx, b1, nullptr, &pool);
  const std::uint64_t mid = test::heap_allocs();
  auto r_serial = bulge::bulge_chase_band<double>(ctx, b2);
  const std::uint64_t after = test::heap_allocs();

  EXPECT_EQ(mid - before, after - mid)
      << "wavefront chase allocated " << (mid - before) << " vs serial " << (after - mid);
  EXPECT_EQ(ctx.workspace().block_count(), blocks) << "steady-state chase grew the arena";
  EXPECT_EQ(ctx.workspace().spill_count(), spills) << "steady-state chase spilled";
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
  for (std::size_t i = 0; i < r_wave.d.size(); ++i)
    EXPECT_EQ(r_wave.d[i], r_serial.d[i]);
}

TEST(Workspace, WorkspaceQueryCoversEvdSolve) {
  // The lwork-style estimate must be an upper bound on the actual peak, so a
  // caller who pre-reserves it sees zero spills from the very first solve.
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 77);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  ctx.workspace().reserve(evd::workspace_query(n, opt));
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(ctx.workspace().spill_count(), 0) << "workspace_query undersized the arena";
  EXPECT_LE(ctx.workspace().high_water_mark(), evd::workspace_query(n, opt));
}

// Only vector solves check out the solver's n x n buffers (QL's rotated
// identity or stein's S, and the z*S product), so a values-only query
// leaves both out.
TEST(Workspace, ValuesOnlyQueryLeavesOutSolverBuffers) {
  for (const index_t n : {16, 80, 257}) {
    evd::EvdOptions values;
    evd::EvdOptions vectors;
    vectors.vectors = true;
    const std::size_t solver_bytes = 2 * static_cast<std::size_t>(n) * n * sizeof(float);
    EXPECT_GE(evd::workspace_query(n, vectors), evd::workspace_query(n, values) + solver_bytes)
        << "n = " << n;
  }
}

// ...and the smaller query still covers every values-only solve from a fresh
// Context: through the D&C -> QL -> Bisection fallback chain, under
// verify = Estimate, and for a selected range.
TEST(Workspace, ValuesOnlySolvesFitTheirQueryWithoutSpilling) {
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 78);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  fault::disarm_all();
  {
    // sterf (D&C without vectors) and then steqr (QL) exhaust; bisection
    // finishes the solve.
    fault::arm(fault::Site::SteqrExhaust, 2);
    Context ctx(eng);
    auto res = evd::solve(a.view(), ctx, opt);
    fault::disarm_all();
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    int solver_switches = 0;
    for (const auto& ev : res->recovery) solver_switches += ev.site == "evd.solver";
    EXPECT_EQ(solver_switches, 2);
    EXPECT_EQ(ctx.workspace().spill_count(), 0) << "fallback chain spilled";
  }
  {
    evd::EvdOptions verified = opt;
    verified.verify = verify::Policy::Estimate;
    Context ctx(eng);
    auto res = evd::solve(a.view(), ctx, verified);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_EQ(ctx.workspace().spill_count(), 0) << "verified solve spilled";
  }
  {
    Context ctx(eng);
    auto res = evd::solve_selected(a.view(), ctx, opt, 10, 29);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    EXPECT_EQ(res->eigenvalues.size(), 20u);
    EXPECT_EQ(ctx.workspace().spill_count(), 0) << "selected solve spilled";
  }
}

// The vectors term covers what vector solves do check out: the fallback
// chain's restore point plus bisection's S and z*S product...
TEST(Workspace, VectorSolvesThroughTheFallbackChainFitTheirQuery) {
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 79);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  fault::disarm_all();
  fault::arm(fault::Site::SteqrExhaust, 2);
  Context ctx(eng);
  auto res = evd::solve(a.view(), ctx, opt);
  fault::disarm_all();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  int solver_switches = 0;
  for (const auto& ev : res->recovery) solver_switches += ev.site == "evd.solver";
  EXPECT_EQ(solver_switches, 2) << "bisection did not finish the solve";
  EXPECT_EQ(ctx.workspace().spill_count(), 0) << "fallback chain spilled";
  EXPECT_LE(ctx.workspace().high_water_mark(), evd::workspace_query(n, opt));
}

// ...and a selected range's inverse-iteration vectors.
TEST(Workspace, SelectedVectorSolveFitsItsQuery) {
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 80);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  auto res = evd::solve_selected(a.view(), ctx, opt, 10, 29);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(res->eigenvalues.size(), 20u);
  EXPECT_EQ(res->vectors.cols(), 20);
  EXPECT_EQ(ctx.workspace().spill_count(), 0) << "selected vector solve spilled";
}

// The SBR drivers reserve sbr::workspace_query on entry, so the estimate must
// bound the true peak (no spill even on a cold context), every scope must be
// closed on return, and repeat calls on one Context must reuse the arena.
enum class SbrVariant { Zy, Wy, Dbr };

class SbrWorkspaceQueryTest : public ::testing::TestWithParam<SbrVariant> {};

TEST_P(SbrWorkspaceQueryTest, BoundsArenaPeakAndReachesSteadyState) {
  const index_t n = 130;  // four big blocks, the last one short
  auto a = test::random_symmetric<float>(n, 0xD00D);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = GetParam() == SbrVariant::Dbr ? 4 : 16;
  opt.big_block = 32;
  opt.accumulate_q = true;
  auto run = [&] {
    switch (GetParam()) {
      case SbrVariant::Zy: return sbr::sbr_zy(a.view(), ctx, opt);
      case SbrVariant::Wy: return sbr::sbr_wy(a.view(), ctx, opt);
      case SbrVariant::Dbr: break;
    }
    return sbr::sbr_dbr(a.view(), ctx, opt);
  };

  auto first = run();
  ASSERT_TRUE(first.ok());
  Workspace& ws = ctx.workspace();
  EXPECT_EQ(ws.spill_count(), 0) << "sbr::workspace_query undersized the arena";
  EXPECT_LE(ws.high_water_mark(), sbr::workspace_query(n, opt));
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  const std::size_t blocks = ws.block_count();
  const std::size_t hwm = ws.high_water_mark();

  for (int i = 0; i < 3; ++i) {
    auto again = run();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(ws.spill_count(), 0) << "call " << i;
    EXPECT_EQ(ws.block_count(), blocks) << "call " << i << " grew the arena";
    EXPECT_EQ(ws.high_water_mark(), hwm) << "call " << i << " peaked higher";
    EXPECT_EQ(ws.bytes_in_use(), 0u);
    for (index_t j = 0; j < n; ++j)
      for (index_t r = 0; r < n; ++r)
        ASSERT_EQ(again->band(r, j), first->band(r, j)) << "call " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SbrWorkspaceQueryTest,
                         ::testing::Values(SbrVariant::Zy, SbrVariant::Wy, SbrVariant::Dbr),
                         [](const ::testing::TestParamInfo<SbrVariant>& info) {
                           switch (info.param) {
                             case SbrVariant::Zy: return std::string("Zy");
                             case SbrVariant::Wy: return std::string("Wy");
                             case SbrVariant::Dbr: break;
                           }
                           return std::string("Dbr");
                         });

}  // namespace
}  // namespace tcevd
