// Batched evd::solve_many driver: equivalence with the sequential
// single-solve path (bitwise eigenvalues, per-problem residual bounds),
// degenerate batch shapes, failure isolation under fault injection, and the
// telemetry aggregation semantics (merge totals == sum of worker totals).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/norms.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/batch.hpp"
#include "src/evd/evd.hpp"
#include "src/matgen/matgen.hpp"
#include "src/tensorcore/engine.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

std::vector<Matrix<float>> make_batch(index_t n, std::size_t count, std::uint64_t seed0) {
  std::vector<Matrix<float>> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(test::random_symmetric<float>(n, seed0 + i));
  return batch;
}

// ---------------------------------------------------------------------------
// Equivalence with the sequential path.
// ---------------------------------------------------------------------------

TEST(SolveMany, BitwiseMatchesSequentialSolve) {
  // With vectors on, each problem also runs the back-transform through Q on
  // a pool worker (serial GEMM tiles): values AND vectors must still equal
  // the caller-thread solve bit for bit.
  const index_t n = 64;
  auto batch = make_batch(n, 10, 1000);

  tc::Fp32Engine engine;
  for (bool vectors : {false, true}) {
    evd::BatchOptions bopt;
    bopt.evd.bandwidth = 8;
    bopt.evd.big_block = 32;
    bopt.evd.vectors = vectors;
    bopt.num_threads = 4;
    auto res = evd::solve_many(batch, engine, bopt);

    ASSERT_EQ(res.problems.size(), batch.size());
    ASSERT_TRUE(res.all_ok());
    EXPECT_EQ(res.num_threads, 4);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      Context ctx(engine);
      auto ref = *evd::solve(batch[i].view(), ctx, bopt.evd);
      const auto& got = res.problems[i];
      ASSERT_EQ(got.eigenvalues.size(), ref.eigenvalues.size()) << "problem " << i;
      for (std::size_t j = 0; j < ref.eigenvalues.size(); ++j)
        EXPECT_EQ(got.eigenvalues[j], ref.eigenvalues[j])
            << "problem " << i << " eigenvalue " << j << " differs from sequential solve";
      if (!vectors) continue;
      ASSERT_EQ(got.vectors.rows(), n);
      ASSERT_EQ(got.vectors.cols(), n);
      for (index_t c = 0; c < n; ++c)
        for (index_t r = 0; r < n; ++r)
          ASSERT_EQ(std::memcmp(&got.vectors(r, c), &ref.vectors(r, c), sizeof(float)), 0)
              << "problem " << i << " vector entry (" << r << ", " << c << ")";
    }
  }
}

TEST(SolveMany, VectorsSatisfyResidualAndOrthogonalityBounds) {
  const index_t n = 48;
  auto batch = make_batch(n, 6, 2000);

  tc::EcTcEngine engine;  // shared atomic-counter engine, the production pick
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 8;
  bopt.evd.big_block = 16;
  bopt.evd.vectors = true;
  bopt.num_threads = 3;
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& p = res.problems[i];
    ASSERT_EQ(p.vectors.rows(), n);
    ASSERT_EQ(p.vectors.cols(), n);
    EXPECT_LT(evd::eigenpair_residual(batch[i].view(), p.eigenvalues, p.vectors.view()), 1e-2)
        << "problem " << i;
    EXPECT_LT(orthogonality_error<float>(p.vectors.view()), 1e-3) << "problem " << i;
    EXPECT_GE(p.worker, 0);
    EXPECT_LT(p.worker, res.num_threads);
  }
}

TEST(SolveMany, SelectedRangeMatchesSolveSelected) {
  const index_t n = 40;
  auto batch = make_batch(n, 4, 3000);

  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 4;
  bopt.evd.big_block = 8;
  bopt.selected = true;
  bopt.il = 2;
  bopt.iu = 9;
  bopt.num_threads = 2;
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());
  for (const auto& p : res.problems) ASSERT_EQ(p.eigenvalues.size(), 8u);

  // The selected window equals the matching slice of the full spectrum.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Context ctx(engine);
    auto full = *evd::solve(batch[i].view(), ctx, bopt.evd);
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(res.problems[i].eigenvalues[j], full.eigenvalues[j + 2], 1e-3)
          << "problem " << i;
  }
}

// ---------------------------------------------------------------------------
// Degenerate batch shapes.
// ---------------------------------------------------------------------------

TEST(SolveMany, EmptyBatch) {
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  std::vector<Matrix<float>> batch;
  auto res = evd::solve_many(batch, engine, bopt);
  EXPECT_TRUE(res.problems.empty());
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(res.num_ok(), 0u);
  EXPECT_EQ(res.num_threads, 0);
}

TEST(SolveMany, BatchSmallerThanThreadCount) {
  const index_t n = 32;
  auto batch = make_batch(n, 2, 4000);
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 4;
  bopt.num_threads = 8;  // more workers than problems: clamped, not deadlocked
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());
  EXPECT_EQ(res.num_threads, 2);
  for (const auto& p : res.problems) EXPECT_EQ(p.eigenvalues.size(), std::size_t(n));
}

TEST(SolveMany, SingleProblemDefaultThreads) {
  const index_t n = 24;
  auto batch = make_batch(n, 1, 5000);
  tc::TcEngine engine(tc::TcPrecision::Fp16);
  evd::BatchOptions bopt;  // num_threads = 0: auto, clamps to batch size 1
  bopt.evd.bandwidth = 4;
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());
  EXPECT_EQ(res.num_threads, 1);
}

TEST(SolveMany, NegativeThreadCountFallsBackToAuto) {
  const index_t n = 24;
  auto batch = make_batch(n, 3, 5200);
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 4;
  bopt.num_threads = -7;  // same contract as 0: auto-detect, clamp to batch
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());
  EXPECT_GE(res.num_threads, 1);
  EXPECT_LE(res.num_threads, 3);
}

TEST(SolveMany, TinyProblemsSolveInsteadOfAborting) {
  // n = 1 can never reach the SBR pipeline (bandwidth must sit in [1, n));
  // the pre-fix behavior aborted the whole process from inside a worker.
  std::vector<Matrix<float>> batch;
  for (int i = 0; i < 4; ++i) {
    Matrix<float> a(1, 1);
    a(0, 0) = 2.5f + static_cast<float>(i);
    batch.push_back(std::move(a));
  }
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.vectors = true;
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(res.problems[static_cast<std::size_t>(i)].eigenvalues.size(), 1u);
    EXPECT_EQ(res.problems[static_cast<std::size_t>(i)].eigenvalues[0],
              2.5f + static_cast<float>(i));
    EXPECT_EQ(res.problems[static_cast<std::size_t>(i)].vectors(0, 0), 1.0f);
  }
}

// Malformed request data — mismatched shapes, a non-square matrix, an
// out-of-range selected window — used to trip TCEVD_CHECK and abort the whole
// process. It is caller data, not a programmer contract: the offending
// problem fails alone with InvalidArgument and its neighbors solve normally.
TEST(SolveMany, MixedShapeProblemFailsAloneWithInvalidArgument) {
  auto batch = make_batch(32, 3, 7100);
  batch.insert(batch.begin() + 1, test::random_symmetric<float>(48, 7200));
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.num_threads = 2;
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_EQ(res.problems.size(), 4u);
  EXPECT_EQ(res.num_ok(), 3u);
  EXPECT_EQ(res.problems[1].status.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(res.problems[1].status.message().find("order"), std::string::npos);
  for (std::size_t i : {0u, 2u, 3u}) EXPECT_TRUE(res.problems[i].status.ok()) << i;
}

TEST(SolveMany, NonSquareProblemFailsAloneWithInvalidArgument) {
  auto batch = make_batch(24, 2, 7300);
  batch.push_back(Matrix<float>(24, 16));
  tc::Fp32Engine engine;
  auto res = evd::solve_many(batch, engine, evd::BatchOptions{});
  ASSERT_EQ(res.problems.size(), 3u);
  EXPECT_TRUE(res.problems[0].status.ok());
  EXPECT_TRUE(res.problems[1].status.ok());
  EXPECT_EQ(res.problems[2].status.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(res.problems[2].status.message().find("square"), std::string::npos);
}

TEST(SolveMany, SelectedRangeOutOfBoundsFailsPerProblemWithInvalidArgument) {
  auto batch = make_batch(16, 3, 7400);
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.selected = true;
  bopt.il = 4;
  bopt.iu = 16;  // iu == n: out of bounds for every problem
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_EQ(res.problems.size(), 3u);
  for (const auto& p : res.problems) {
    EXPECT_EQ(p.status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(p.status.message().find("range"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Failure isolation: a poisoned problem must not fail its neighbors.
// ---------------------------------------------------------------------------

class SolveManyFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(SolveManyFaultTest, PoisonedProblemFailsAloneUnderInjection) {
  const index_t n = 48;
  auto batch = make_batch(n, 8, 6000);

  // One QL exhaustion, fallbacks off: exactly one problem (whichever draws
  // the injected failure) must report the fault; every other problem in the
  // batch — including later ones on the same worker — succeeds.
  fault::arm(fault::Site::SteqrExhaust, 1);
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 8;
  bopt.evd.solver = evd::TriSolver::Ql;
  bopt.evd.allow_fallbacks = false;
  bopt.num_threads = 4;
  auto res = evd::solve_many(batch, engine, bopt);

  EXPECT_EQ(fault::fired(fault::Site::SteqrExhaust), 1);
  ASSERT_EQ(res.problems.size(), batch.size());
  EXPECT_EQ(res.num_ok(), batch.size() - 1);
  std::size_t failed = 0;
  for (const auto& p : res.problems) {
    if (!p.status.ok()) {
      ++failed;
      EXPECT_EQ(p.status.code(), ErrorCode::FaultInjected) << p.status.to_string();
    } else {
      EXPECT_EQ(p.eigenvalues.size(), std::size_t(n));
    }
  }
  EXPECT_EQ(failed, 1u);
}

TEST_F(SolveManyFaultTest, PoisonedProblemRecoversWithFallbacksAndLogsIt) {
  const index_t n = 48;
  auto batch = make_batch(n, 6, 7000);

  fault::arm(fault::Site::SteqrExhaust, 1);
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 8;
  bopt.evd.solver = evd::TriSolver::Ql;
  bopt.evd.allow_fallbacks = true;  // injected failure walks the solver chain
  bopt.num_threads = 3;
  auto res = evd::solve_many(batch, engine, bopt);

  ASSERT_TRUE(res.all_ok());
  // The degradation is visible per problem and in the merged telemetry.
  std::size_t recovered = 0;
  for (const auto& p : res.problems) recovered += p.recovery.empty() ? 0 : 1;
  EXPECT_EQ(recovered, 1u);
  EXPECT_FALSE(res.telemetry.recovery().empty());
}

TEST_F(SolveManyFaultTest, InvalidInputFailsAloneWithoutInjection) {
  const index_t n = 32;
  auto batch = make_batch(n, 5, 8000);
  batch[2](4, 5) = std::nanf("");  // poison one problem's input

  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 4;
  bopt.num_threads = 4;
  auto res = evd::solve_many(batch, engine, bopt);

  EXPECT_EQ(res.num_ok(), batch.size() - 1);
  EXPECT_EQ(res.problems[2].status.code(), ErrorCode::InvalidInput);
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (i != 2) EXPECT_TRUE(res.problems[i].status.ok()) << "problem " << i;
}

// ---------------------------------------------------------------------------
// Telemetry aggregation semantics.
// ---------------------------------------------------------------------------

TEST(TelemetryMerge, TotalsEqualSumOfPerWorkerCounters) {
  Telemetry w0, w1, merged;
  w0.record_stage("evd.reduction", 1.5);
  w0.record_stage("evd.solver", 0.5);
  w0.record_stage("evd.solver", 0.25);
  w1.record_stage("evd.solver", 1.0);
  w1.record_stage("evd.bulge", 2.0);
  w0.record_recovery({{"evd.solver", "a"}});
  w1.record_recovery({{"sbr.panel", "b"}, {"ec_tcgemm", "c"}});
  w0.set_recording(true);
  w0.record_gemm(tc::GemmShape{8, 8, 8, tc::EngineKind::EcTc});

  merged.merge_from(w0);
  merged.merge_from(w1);

  EXPECT_DOUBLE_EQ(merged.stage_seconds("evd.reduction"), 1.5);
  EXPECT_DOUBLE_EQ(merged.stage_seconds("evd.solver"), 1.75);
  EXPECT_DOUBLE_EQ(merged.stage_seconds("evd.bulge"), 2.0);
  long solver_calls = 0;
  for (const auto& s : merged.stages())
    if (s.name == "evd.solver") solver_calls = s.calls;
  EXPECT_EQ(solver_calls, 3);  // 2 from w0 + 1 from w1
  EXPECT_EQ(merged.recovery().size(), 3u);
  EXPECT_EQ(merged.recorded().size(), 1u);
  EXPECT_DOUBLE_EQ(merged.recorded_flops(), w0.recorded_flops());
}

TEST(TelemetryMerge, BatchStageCallCountsCoverEveryProblem) {
  const index_t n = 32;
  const std::size_t count = 9;
  auto batch = make_batch(n, count, 9000);
  tc::Fp32Engine engine;
  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 4;
  bopt.num_threads = 3;
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());

  // Each problem records exactly one reduction/bulge/solver stage on its
  // worker's telemetry; the merged view must account for all of them.
  for (const char* stage : {"evd.reduction", "evd.bulge", "evd.solver"}) {
    long calls = 0;
    for (const auto& s : res.telemetry.stages())
      if (s.name == stage) calls = s.calls;
    EXPECT_EQ(calls, static_cast<long>(count)) << stage;
    EXPECT_GE(res.telemetry.stage_seconds(stage), 0.0);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool unit behavior the driver depends on.
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  const long count = 1000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(count, [&](int worker, long i) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (long i = 0; i < count; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](int, long) { ran = true; });
  pool.parallel_for(-5, [&](int, long) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SubmitAndWaitIdleDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, SingleWorkerTaskMayWaitOnTheCaller) {
  // The pool never runs a task on the submitting thread, so a one-worker
  // pool's task may block until the caller acts after submit() returns.
  ThreadPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool go = false, saw_go = false;
  std::thread::id task_thread;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    task_thread = std::this_thread::get_id();
    saw_go = cv.wait_for(lock, std::chrono::seconds(30), [&] { return go; });
  });
  {
    std::lock_guard<std::mutex> lock(m);
    go = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_TRUE(saw_go);
  EXPECT_NE(task_thread, std::this_thread::get_id());
}

TEST(ThreadPool, OnWorkerThreadHoldsOnlyInsidePoolTasks) {
  // The nested-parallelism guard the packed GEMM consults: true on every
  // worker of any pool, false on threads the pool does not own.
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  std::atomic<int> on_worker{0}, off_worker{0};
  pool.parallel_for(16, [&](int, long) {
    (ThreadPool::on_worker_thread() ? on_worker : off_worker).fetch_add(1);
  });
  pool.submit([&] { (ThreadPool::on_worker_thread() ? on_worker : off_worker).fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(on_worker.load(), 17);
  EXPECT_EQ(off_worker.load(), 0);
  bool plain_thread = true;
  std::thread([&] { plain_thread = ThreadPool::on_worker_thread(); }).join();
  EXPECT_FALSE(plain_thread);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, TryBroadcastReportsBusyWhileAnotherIsInFlight) {
  // One broadcast at a time per pool: a second caller gets false and nothing
  // of its work runs, so it can take the indices itself.
  ThreadPool pool(2);
  struct Held {
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
  } held;
  bool first_ran = false;
  std::thread first([&] {
    first_ran = pool.try_broadcast(
        1,
        [](void* c, long) {
          auto* h = static_cast<Held*>(c);
          h->entered.store(true);
          int backoff = 0;
          while (!h->release.load()) spin_wait_hint(backoff);
        },
        &held);
  });
  int backoff = 0;
  while (!held.entered.load()) spin_wait_hint(backoff);

  std::atomic<int> second_hits{0};
  const bool second_ran = pool.try_broadcast(
      8, [](void* c, long) { static_cast<std::atomic<int>*>(c)->fetch_add(1); }, &second_hits);
  held.release.store(true);
  first.join();
  EXPECT_TRUE(first_ran);
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(second_hits.load(), 0);

  // Once the first broadcast has returned the pool takes the next one.
  EXPECT_TRUE(pool.try_broadcast(
      8, [](void* c, long) { static_cast<std::atomic<int>*>(c)->fetch_add(1); }, &second_hits));
  EXPECT_EQ(second_hits.load(), 8);
}

TEST(ThreadPool, ConcurrentBroadcastCallersEachRunEveryIndexOnce) {
  // The packed GEMM's contract on the shared gemm_pool(): callers on several
  // threads race for it, a refused caller runs its own indices, and every
  // index of every caller runs exactly once.
  ThreadPool& pool = gemm_pool();
  EXPECT_EQ(&pool, &gemm_pool());
  EXPECT_EQ(pool.size(), std::max(1, ThreadPool::hardware_threads() - 1));
  constexpr int kCallers = 4;
  constexpr long kCount = 64;
  constexpr int kRounds = 200;
  struct Hits {
    std::atomic<int> at[kCount];
  };
  std::vector<Hits> hits(kCallers);
  for (Hits& h : hits)
    for (std::atomic<int>& x : h.at) x.store(0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] {
      Hits& h = hits[static_cast<std::size_t>(t)];
      auto fn = [](void* c, long i) { static_cast<Hits*>(c)->at[i].fetch_add(1); };
      for (int r = 0; r < kRounds; ++r)
        if (!pool.try_broadcast(kCount, fn, &h))
          for (long i = 0; i < kCount; ++i) fn(&h, i);
    });
  for (std::thread& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t)
    for (long i = 0; i < kCount; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(t)].at[i].load(), kRounds)
          << "caller " << t << " index " << i;
}

}  // namespace
}  // namespace tcevd
