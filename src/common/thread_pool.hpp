// Fixed-size broadcast pool behind gemm_pool(): the packed GEMM's tile
// fan-out and the bulge wavefront's chase lanes.
//
// The pool owns `size()` long-lived workers whose only job is to join
// broadcasts: try_broadcast publishes one data-parallel call, and its
// participants (the workers and the calling thread) work-steal indices off a
// shared atomic counter, so a slow index on one worker never strands the rest
// behind it. There is no task queue: EvdService runs its requests on threads
// of its own (src/evd/service.hpp).
//
// Thread-safety contract: the pool's own state is fully synchronized;
// everything an index touches is the broadcast's business. The intended shape
// for the solver pipelines is N threads x N Contexts x one shared GemmEngine —
// per-thread mutable state (workspace arena, telemetry) lives on a Context
// owned by exactly one thread, while the engines are stateless-per-call and
// safely shared (see src/common/context.hpp).
//
// Broadcast functions must not throw: an exception escaping one would unwind
// a worker thread and terminate the process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace tcevd {

class ThreadPool {
 public:
  /// Spin up `num_threads` workers; values < 1 clamp to 1.
  explicit ThreadPool(int num_threads);
  /// Joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Allocation-free data-parallel fan-out: run fn(ctx, index) for every
  /// index in [0, count), with the pool's workers AND the calling thread
  /// stealing indices off a shared atomic counter. It performs zero heap
  /// allocations (a plain function pointer and context, no per-call shared
  /// state) — it is the dispatch the packed GEMM macro-kernel uses, so a
  /// steady-state gemm call stays allocation-free even when pooled.
  ///
  /// One broadcast at a time per pool: returns false without running
  /// anything when another broadcast is already in flight (or the pool is
  /// stopping) — the caller must then run the indices itself. That includes
  /// a call from inside one of the pool's own participants, so a GEMM or a
  /// chase issued from a broadcast index runs inline instead of deadlocking.
  /// Returns true after every index has completed. The indices must be
  /// independent; the result must not depend on which thread runs which
  /// index (the packed GEMM satisfies this by giving each index a disjoint C
  /// tile).
  bool try_broadcast(long count, void (*fn)(void* ctx, long index), void* ctx);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int hardware_threads() noexcept;

 private:
  void worker_loop();
  void broadcast_participate();
  bool broadcast_live_locked() const noexcept;

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;  // a broadcast started, or stop_
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
/// (blas/gemm_packed.hpp) and the bulge wavefront's lanes. Lazily
/// constructed on first use with hardware_threads() - 1 workers (the
/// broadcasting caller steals tiles too, so the total equals the hardware
/// width). Threads that own the parallelism at a higher level — EvdService
/// runners — stand down with blas::SerialGemmScope; a GEMM or chase issued
/// from inside a broadcast finds the pool busy and runs on its own thread.
ThreadPool& gemm_pool();

}  // namespace tcevd
