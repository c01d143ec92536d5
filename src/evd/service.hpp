// Streaming EVD service: a long-lived driver for mixed workloads, and the
// library's one multi-request API.
//
// EvdService accepts an open-ended stream of requests — mixed sizes, mixed
// options, full or selected spectra — and runs them on a fixed set of
// runners. A runner takes a waiting request and runs the whole solve on its
// own Context with evd::run_solve (src/evd/pipeline.hpp), the function
// evd::solve and evd::solve_selected run, so per-request results are
// bitwise-identical to those calls — the service changes scheduling, never
// numerics.
//
// Admission control: at most ServiceOptions::max_in_flight requests may be
// submitted-but-not-completed; past that, submit() blocks (Block) or returns
// ResourceExhausted (Reject). Priorities and deadlines decide which waiting
// request starts next: the highest priority (ties: earliest deadline, then
// FIFO). A started request runs to the end on its runner; higher-priority
// work never overtakes it. A request whose deadline expires before it starts
// fails with DeadlineExceeded without taking a context, and one whose
// deadline expires mid-pipeline fails before its next stage. At most
// num_threads requests are mid-pipeline at once.
//
// Runners: num_threads std::threads, joined by the destructor. Each holds one
// blas::SerialGemmScope for its whole life — the runners are the parallelism,
// so a request's GEMMs and chase stay on its runner — and one Context, created
// on its first request and reused for every later one. run_solve reserves
// workspace_query bytes on it and an idle arena coalesces into one block at
// its peak, so once a runner has run its largest request, a stream of any size
// mix performs zero arena growth per request.
//
// Telemetry: per-problem evd.* stages land on the solving Context exactly as
// in a sequential solve; the service additionally records, under its own
// aggregate sink, "service.queue" (admission-to-start wait) and
// "service.stage.<reduction|bulge|solver|verify>" (per-stage wall time),
// each both as a StageStat (throughput) and a LatencyStat (histogram
// quantiles). telemetry_snapshot() merges the service sink with every runner
// Context that is not mid-request; call it quiescent (after wait_all) for
// complete numbers.
//
// Thread-safety: submit/wait/wait_all/stats/telemetry_snapshot may be called
// from any thread, concurrently. The submitted matrix view is borrowed and
// must stay alive and unmodified until the request's wait() returns.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/pipeline.hpp"

namespace tcevd::evd {

/// What submit() does when max_in_flight requests are already in flight.
enum class OverflowPolicy {
  Block,   ///< block the submitting thread until a slot frees
  Reject,  ///< return ResourceExhausted immediately
};

struct ServiceOptions {
  /// Runner count; 0 picks ThreadPool::hardware_threads().
  int num_threads = 0;
  /// Admission bound: submitted-but-not-completed requests (results awaiting
  /// wait() have already released their slot). Values < 1 clamp to 1.
  int max_in_flight = 256;
  OverflowPolicy overflow = OverflowPolicy::Block;
};

/// Per-request configuration: the solve itself plus scheduling attributes.
struct RequestOptions {
  EvdOptions evd;
  /// Partial-spectrum mode: eigenvalue indices [il, iu] (0-based, inclusive),
  /// solved as evd::solve_selected does; evd.vectors then requests the
  /// selected vectors. Selected requests are never verified (a verify policy
  /// other than Off is noted at recovery site "evd.verify").
  bool selected = false;
  index_t il = 0;
  index_t iu = 0;
  /// Among waiting requests, higher starts first (default 0).
  int priority = 0;
  /// Seconds from submit() after which the request fails with
  /// DeadlineExceeded instead of starting, or instead of starting its next
  /// stage. 0, a negative or non-finite value (NaN, +inf), or one too far
  /// out for the steady clock to represent from now (about 292 years) means
  /// no deadline. Checked before the request starts and between its stages
  /// only — a stage in execution is never interrupted. Ties among equal
  /// priorities start earliest-deadline first.
  double deadline_s = 0.0;
};

/// Opaque request handle returned by submit() and claimed by wait().
using RequestId = std::uint64_t;

/// Outcome of one streamed request.
struct RequestResult {
  Status status;                   ///< Ok => the value fields below are valid
  std::vector<float> eigenvalues;  ///< ascending (iu-il+1 values when selected)
  Matrix<float> vectors;           ///< empty unless evd.vectors
  /// The request's degradation events in the order they happened, as
  /// EvdResult::recovery; a failed request carries its log here too.
  RecoveryLog recovery;
  verify::Report verify;           ///< full solves with evd.verify != Off only
  int worker = -1;                 ///< runner that ran the request
  double seconds = 0.0;            ///< start -> completion
  /// 1-based service-wide completion ordinal: request k was the
  /// completion_seq-th to finish. This is the observable the scheduling
  /// tests pin priority/deadline ordering against.
  std::uint64_t completion_seq = 0;
};

struct ServiceStats {
  long submitted = 0;
  long completed = 0;          ///< includes failed and deadline-expired
  long rejected = 0;           ///< Reject-policy admission refusals
  long deadline_expired = 0;   ///< completed with DeadlineExceeded
  int num_threads = 0;
  std::size_t pooled_contexts = 0;  ///< runner Contexts created (<= num_threads)
};

class EvdService {
 public:
  /// `engine` is borrowed, shared by every runner's Context, and must outlive
  /// the service.
  explicit EvdService(tc::GemmEngine& engine, const ServiceOptions& opt = {});
  /// Drains: blocks until every in-flight request completes (unclaimed
  /// results are discarded), then joins the runners.
  ~EvdService();
  EvdService(const EvdService&) = delete;
  EvdService& operator=(const EvdService&) = delete;

  int num_threads() const noexcept { return static_cast<int>(runners_.size()); }

  /// Enqueue one request. Fails with InvalidArgument (non-square input,
  /// bandwidth < 1, bad selected range) or ResourceExhausted (Reject policy,
  /// queue full) without consuming a slot. `a` is borrowed until wait()
  /// returns.
  StatusOr<RequestId> submit(ConstMatrixView<float> a, const RequestOptions& opt = {});

  /// Block until request `id` completes and claim its result (each id may be
  /// waited exactly once; an unknown or already-claimed id returns
  /// InvalidArgument in RequestResult::status).
  RequestResult wait(RequestId id);

  /// Block until no request is in flight (unclaimed results keep waiting for
  /// their wait() calls; they do not hold the service open).
  void wait_all();

  /// Service aggregate (queue/stage throughput + latency histograms) merged
  /// with the per-problem telemetry of every runner Context that is not
  /// mid-request. A Context whose runner is solving is skipped, not waited
  /// for — quiesce first for complete numbers.
  Telemetry telemetry_snapshot();

  ServiceStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::uint32_t gen = 1;  ///< bumped on slot recycle; stale ids never match
    bool in_use = false;
    // Request payload (set by submit).
    std::optional<ConstMatrixView<float>> a;
    RequestOptions opt;
    std::uint64_t seq = 0;  ///< FIFO tiebreaker
    Clock::time_point submit_tp;
    Clock::time_point deadline_tp;
    bool has_deadline = false;
    std::optional<IndexRange> range;  ///< set for selected requests
    // Completion.
    bool completed = false;
    RequestResult result;
  };

  /// One per runner thread. The Context is created on the runner's first
  /// request and reused for every later one; while `solving`, only the
  /// runner touches it.
  struct Runner {
    std::unique_ptr<Context> ctx;  ///< guarded by mutex_
    bool solving = false;          ///< guarded by mutex_
  };

  void runner_loop(int runner);
  /// Index into ready_ of the request to start next (expired requests first
  /// — their finalize is cheap and frees a slot — then highest priority,
  /// earliest deadline, lowest seq), or -1 when none waits.
  int pick_ready_locked(Clock::time_point now) const noexcept;
  /// Run `req` start to finish on `ctx` on the calling runner, without the
  /// lock, and fill in its result. Between stages its gate times the stage
  /// that ended and fails the request once its deadline has passed.
  void solve_request(Request& req, Context& ctx);
  /// One service.queue / service.stage.* sample, as stage and latency.
  void record_locked(const char* key, double seconds);
  /// Mark `req` complete and wake its waiters.
  void finalize_locked(Request& req);

  tc::GemmEngine* engine_;
  ServiceOptions opt_;

  mutable std::mutex mutex_;
  std::condition_variable sched_cv_;  ///< ready_/stopping_ changed
  std::condition_variable admit_cv_;  ///< in_flight_ dropped below the bound
  std::condition_variable done_cv_;   ///< a request completed
  std::deque<Request> slots_;         ///< stable addresses; recycled via free_slots_
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> ready_;  ///< submitted slots not yet started
  long in_flight_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::vector<Runner> runners_;  ///< sized before the threads start, never resized
  Telemetry telemetry_;          ///< service.queue / service.stage.*
  long submitted_ = 0;
  long completed_ = 0;
  long rejected_ = 0;
  long expired_ = 0;

  std::vector<std::thread> threads_;  ///< last member: runners touch the above
};

}  // namespace tcevd::evd
