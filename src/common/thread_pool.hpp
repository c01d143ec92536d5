// Fixed-size worker thread pool for the batched drivers.
//
// The pool owns `size()` long-lived workers draining one FIFO task queue.
// Batched drivers (evd::solve_many) use parallel_for, which enqueues one
// looping task per worker; the workers then work-steal iteration indices off
// a shared atomic counter, so a slow problem on one worker never strands the
// rest of the batch behind it.
//
// Thread-safety contract: the pool's own state (queue, counters) is fully
// synchronized; everything a task touches is the task's business. The
// intended shape for the solver pipelines is N workers x N Contexts x one
// shared GemmEngine — per-worker mutable state (workspace arena, telemetry)
// lives on a Context owned by exactly one worker, while the engines are
// stateless-per-call and safely shared (see src/common/context.hpp).
//
// Tasks must not throw: an exception escaping a task would unwind a worker
// thread and terminate the process, so parallel_for bodies that can fail
// should report through Status values captured per iteration instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcevd {

class ThreadPool {
 public:
  /// Spin up `num_threads` workers; values < 1 clamp to 1. The pool never
  /// runs tasks on the calling thread (size() == 1 still means one worker),
  /// so a task may block on the caller without deadlocking the queue.
  explicit ThreadPool(int num_threads);
  /// Drains nothing: outstanding tasks finish, queued-but-unstarted tasks
  /// still run, then the workers join.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. Tasks run in FIFO order across the worker set.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Run body(worker_id, index) for every index in [0, count), with the
  /// pool's workers stealing indices off a shared atomic counter.
  /// worker_id is in [0, size()) and is stable within one body invocation —
  /// it is the index batched drivers use to pick a per-worker Context.
  /// Blocks until every index has been processed.
  void parallel_for(long count, const std::function<void(int worker, long index)>& body);

  /// Allocation-free data-parallel fan-out: run fn(ctx, index) for every
  /// index in [0, count), with the pool's workers AND the calling thread
  /// stealing indices off a shared atomic counter. Unlike parallel_for this
  /// performs zero heap allocations (no std::function, no per-call shared
  /// state) — it is the dispatch the packed GEMM macro-kernel uses, so a
  /// steady-state gemm call stays allocation-free even when pooled.
  ///
  /// One broadcast at a time per pool: returns false without running
  /// anything when another broadcast is already in flight (or the pool is
  /// stopping) — the caller must then run the indices itself. Returns true
  /// after every index has completed. The indices must be independent; the
  /// result must not depend on which thread runs which index (the packed
  /// GEMM satisfies this by giving each index a disjoint C tile).
  bool try_broadcast(long count, void (*fn)(void* ctx, long index), void* ctx);

  /// True when the calling thread is a worker of ANY ThreadPool. This is the
  /// nested-parallelism guard: the packed GEMM macro-kernel consults it and
  /// routes to the serial tile loop instead of fanning out again, so GEMMs
  /// under EvdService / solve_many workers never oversubscribe.
  static bool on_worker_thread() noexcept;

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int hardware_threads() noexcept;

 private:
  void worker_loop(int worker_id);
  void broadcast_participate();
  bool broadcast_live_locked() const noexcept;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;   // queue_ gained a task, stop_, or broadcast
  std::condition_variable all_idle_;     // queue empty && in_flight_ == 0
  int in_flight_ = 0;                    // tasks popped but not yet finished
  bool stop_ = false;

  // try_broadcast state. fn/ctx/count/epoch/active are guarded by mutex_:
  // participants snapshot them under the lock, then claim indices lock-free
  // off `ticket`, which packs (epoch << kBcastIndexBits) | next_index in one
  // atomic. The epoch stamp is what makes back-to-back broadcasts safe: a
  // straggler's exhaustion-probe fetch_add from a finished broadcast either
  // lands before the next setup's ticket store (the store overwrites it) or
  // after (the claim carries the NEW epoch, so the straggler re-snapshots
  // under mutex_ and runs it as a valid index of the new broadcast). A stale
  // index can therefore never be claimed twice, and fn/ctx/count are never
  // read while the next broadcast writes them (see broadcast_participate).
  static constexpr int kBcastIndexBits = 32;
  static constexpr std::uint64_t kBcastIndexMask = (std::uint64_t{1} << kBcastIndexBits) - 1;
  struct Broadcast {
    void (*fn)(void*, long) = nullptr;    // guarded by mutex_
    void* ctx = nullptr;                  // guarded by mutex_
    long count = 0;                       // guarded by mutex_
    std::uint64_t epoch = 0;              // guarded by mutex_; one per broadcast
    std::atomic<std::uint64_t> ticket{0};  // (epoch << kBcastIndexBits) | next index
    std::atomic<long> done{0};
    bool active = false;                  // guarded by mutex_
    std::mutex done_mutex;
    std::condition_variable done_cv;
  } bcast_;
};

/// Progressive spin-wait backoff for short cross-thread waits (the bulge
/// wavefront's progress-vector spins, and any future lock-free handoff).
/// Call in the body of a spin loop with a caller-owned counter initialized
/// to 0: early iterations issue cheap CPU pause hints (the expected wait is
/// a few chunk lengths of rotation work), later ones yield the timeslice so
/// an oversubscribed machine — or a 1-hardware-thread CI box running every
/// lane on one core — still makes progress.
void spin_wait_hint(int& backoff) noexcept;

/// Process-wide pool backing the packed GEMM macro-kernel's tile fan-out
/// (blas/gemm_packed.hpp). Lazily constructed on first use with
/// hardware_threads() - 1 workers (the broadcasting caller steals tiles too,
/// so the total equals the hardware width). Thread-ownership contract: this
/// pool is only ever driven via try_broadcast from threads that are NOT pool
/// workers — nested GEMMs under EvdService / solve_many workers, or any
/// other pool task, take the serial tile loop instead (see
/// ThreadPool::on_worker_thread and blas::SerialGemmScope).
ThreadPool& gemm_pool();

}  // namespace tcevd
