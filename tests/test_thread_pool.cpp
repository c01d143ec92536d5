// ThreadPool unit behaviour (submit/wait_idle, the on_worker_thread guard,
// try_broadcast coverage and exclusivity on gemm_pool()) and the
// Telemetry::merge_from totals EvdService's snapshot relies on. Label
// `stress`: the sanitizer CI legs, TSan included, run this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd {
namespace {

TEST(ThreadPool, SubmitAndWaitIdleDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, SubmittedTasksEachRunOnceOnAWorker) {
  ThreadPool pool(4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<int> off_worker{0};
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&, i] {
      if (!ThreadPool::on_worker_thread()) off_worker.fetch_add(1);
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  pool.wait_idle();
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  EXPECT_EQ(off_worker.load(), 0);
}

TEST(ThreadPool, WaitIdleWithNothingPendingReturns) {
  // Before any submit, and again on a drained queue.
  ThreadPool pool(2);
  pool.wait_idle();
  std::atomic<int> done{0};
  pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
}

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
  for (int t = 0; t < 17; ++t)
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
