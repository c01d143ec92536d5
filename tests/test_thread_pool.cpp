// ThreadPool unit behaviour (try_broadcast coverage, exclusivity and
// nesting, on its own and on gemm_pool()) and the Telemetry::merge_from
// totals EvdService's snapshot relies on. Label `stress`: the sanitizer CI
// legs, TSan included, run this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensorcore/engine.hpp"
#include "tests/test_util.hpp"

namespace tcevd {
namespace {

TEST(ThreadPool, TryBroadcastOfNoIndicesRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto fn = [](void* c, long) { static_cast<std::atomic<int>*>(c)->fetch_add(1); };
  EXPECT_TRUE(pool.try_broadcast(0, fn, &ran));
  EXPECT_TRUE(pool.try_broadcast(-5, fn, &ran));
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
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

TEST(ThreadPool, NestedTryBroadcastFromAParticipantIsDeclined) {
  // A participant that broadcasts on its own pool is refused at once — one
  // broadcast at a time — and none of the nested indices run, so it runs
  // them itself instead of waiting on itself.
  ThreadPool pool(2);
  constexpr long kOuter = 8;
  struct Nested {
    ThreadPool* pool = nullptr;
    std::atomic<int> accepted{0};
    std::atomic<int> declined{0};
    std::atomic<int> inner_hits{0};
  } nested;
  nested.pool = &pool;
  ASSERT_TRUE(pool.try_broadcast(
      kOuter,
      [](void* c, long) {
        auto* s = static_cast<Nested*>(c);
        const bool ran = s->pool->try_broadcast(
            4, [](void* h, long) { static_cast<std::atomic<int>*>(h)->fetch_add(1); },
            &s->inner_hits);
        (ran ? s->accepted : s->declined).fetch_add(1);
      },
      &nested));
  EXPECT_EQ(nested.declined.load(), kOuter);
  EXPECT_EQ(nested.accepted.load(), 0);
  EXPECT_EQ(nested.inner_hits.load(), 0);
}

TEST(ThreadPool, GemmInsideABroadcastParticipantRunsInline) {
  // A GEMM above the pooling floor issued from a gemm_pool() broadcast index
  // finds the pool busy and runs its tiles on the participant's thread: no
  // deadlock, no second fan-out, and the serial loop's bits.
  const index_t n = 160;  // 2n^3 ~ 8.2 Mflop: above the pooling floor
  struct Gemms {
    Matrix<float> a, b;
    std::vector<Matrix<float>> c;
  } g{test::random_matrix_f(n, n, 21), test::random_matrix_f(n, n, 22), {}};
  Matrix<float> want(n, n);
  {
    blas::SerialGemmScope serial;
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, g.a.view(), g.b.view(), 0.0f,
                      want.view());
  }
  constexpr long kCount = 4;
  for (long i = 0; i < kCount; ++i) g.c.emplace_back(n, n);
  const auto before = blas::gemm_pool_dispatches();
  ASSERT_TRUE(gemm_pool().try_broadcast(
      kCount,
      [](void* p, long i) {
        auto* s = static_cast<Gemms*>(p);
        blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, s->a.view(), s->b.view(),
                          0.0f, s->c[static_cast<std::size_t>(i)].view());
      },
      &g));
  EXPECT_EQ(blas::gemm_pool_dispatches(), before)
      << "a GEMM inside a gemm_pool() broadcast fanned out again";
  for (long i = 0; i < kCount; ++i)
    for (index_t j = 0; j < n; ++j)
      for (index_t r = 0; r < n; ++r)
        ASSERT_EQ(g.c[static_cast<std::size_t>(i)](r, j), want(r, j))
            << "index " << i << " entry (" << r << ", " << j << ")";
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

// Telemetry::merge_from: totals equal the sum of the merged sources.
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

}  // namespace
}  // namespace tcevd
