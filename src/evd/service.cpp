#include "src/evd/service.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <string>
#include <utility>

#include "src/common/timer.hpp"

namespace tcevd::evd {

namespace {

/// Contexts are interchangeable within a size-class, so round the per-request
/// workspace bound up to a power of two (floor: the arena's own minimum block)
/// — a 1000 x 1000 and a 1024 x 1024 request share warm arenas instead of
/// each founding a class of their own.
std::size_t workspace_size_class(std::size_t bytes) noexcept {
  return std::bit_ceil(std::max(bytes, Workspace::kMinBlockBytes));
}

/// Static telemetry keys: one stage step records under these every few
/// microseconds in a hot stream, so the lookups must not allocate.
constexpr const char* kQueueKey = "service.queue";

const char* stage_key(SolveJob::Stage stage) noexcept {
  switch (stage) {
    case SolveJob::Stage::Reduction: return "service.stage.reduction";
    case SolveJob::Stage::Bulge: return "service.stage.bulge";
    case SolveJob::Stage::Solver: return "service.stage.solver";
    case SolveJob::Stage::Finish: return "service.stage.finish";
    case SolveJob::Stage::Done: break;
  }
  return "service.stage.done";  // unreachable: done jobs are never stepped
}

double elapsed_s(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

EvdService::EvdService(tc::GemmEngine& engine, const ServiceOptions& opt)
    : engine_(&engine), opt_(opt) {
  threads_ = opt_.num_threads > 0 ? opt_.num_threads : ThreadPool::hardware_threads();
  opt_.max_in_flight = std::max(opt_.max_in_flight, 1);
  max_started_ = opt_.max_started > 0 ? opt_.max_started : 2 * threads_;
  max_idle_per_class_ =
      opt_.max_idle_contexts_per_class > 0 ? opt_.max_idle_contexts_per_class : threads_;
  pool_ = std::make_unique<ThreadPool>(threads_);
  // One runner task per worker; they occupy the pool for the service's whole
  // life, idling on sched_cv_ between requests.
  for (int r = 0; r < threads_; ++r) pool_->submit([this, r] { runner_loop(r); });
}

EvdService::~EvdService() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return in_flight_ == 0; });
    stopping_ = true;
  }
  sched_cv_.notify_all();
  admit_cv_.notify_all();
  pool_.reset();  // joins the runners
}

StatusOr<RequestId> EvdService::submit(ConstMatrixView<float> a,
                                       const RequestOptions& ropt) {
  const index_t n = a.rows();
  // Request data, not programmer contracts: a streaming client feeding
  // heterogeneous problems must be able to have one bad request refused
  // without taking the process down.
  if (a.cols() != n)
    return invalid_argument_error("EvdService::submit: matrix is " + std::to_string(n) +
                                  " x " + std::to_string(a.cols()) +
                                  ", not square symmetric");
  if (ropt.selected && !(0 <= ropt.il && ropt.il <= ropt.iu && ropt.iu < n))
    return invalid_argument_error(
        "EvdService::submit: selected index range [il, iu] = [" + std::to_string(ropt.il) +
        ", " + std::to_string(ropt.iu) + "] invalid for n = " + std::to_string(n));
  const std::size_t size_class = workspace_size_class(workspace_query(n, ropt.evd));

  std::unique_lock<std::mutex> lock(mutex_);
  if (in_flight_ >= opt_.max_in_flight) {
    if (opt_.overflow == OverflowPolicy::Reject) {
      ++rejected_;
      return resource_exhausted_error(
          "EvdService::submit: " + std::to_string(in_flight_) +
          " requests already in flight (max_in_flight = " +
          std::to_string(opt_.max_in_flight) + ") and the overflow policy is Reject");
    }
    admit_cv_.wait(lock, [&] { return in_flight_ < opt_.max_in_flight; });
  }

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Request& req = slots_[slot];
  req.in_use = true;
  req.a.emplace(a);
  req.opt = ropt;
  req.seq = next_seq_++;
  req.submit_tp = Clock::now();
  req.has_deadline = ropt.deadline_s > 0.0;
  if (req.has_deadline)
    req.deadline_tp =
        req.submit_tp + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(ropt.deadline_s));
  req.size_class = size_class;
  req.range = ropt.selected ? std::optional(IndexRange{ropt.il, ropt.iu}) : std::nullopt;
  req.started = false;
  req.completed = false;
  req.result = RequestResult{};
  ++in_flight_;
  ++submitted_;
  ready_.push_back(slot);
  sched_cv_.notify_one();
  return (static_cast<RequestId>(req.gen) << 32) | slot;
}

int EvdService::pick_ready_locked(Clock::time_point now) const noexcept {
  int best = -1;
  bool best_expired = false;
  for (int i = 0; i < static_cast<int>(ready_.size()); ++i) {
    const Request& r = slots_[ready_[i]];
    const bool expired = r.has_deadline && now >= r.deadline_tp;
    // The start cap gates fresh requests only; started ones must keep moving
    // (they hold arenas) and expired ones only need a cheap finalize.
    if (!r.started && !expired && started_ >= max_started_) continue;
    if (best < 0) {
      best = i;
      best_expired = expired;
      continue;
    }
    const Request& b = slots_[ready_[best]];
    if (expired != best_expired) {
      if (expired) {
        best = i;
        best_expired = true;
      }
      continue;
    }
    const bool better =
        r.opt.priority != b.opt.priority ? r.opt.priority > b.opt.priority
        : r.has_deadline != b.has_deadline
            ? r.has_deadline  // a deadline outranks none at equal priority
        : (r.has_deadline && r.deadline_tp != b.deadline_tp)
            ? r.deadline_tp < b.deadline_tp
            : r.seq < b.seq;
    if (better) best = i;
  }
  return best;
}

void EvdService::runner_loop(int runner) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    int ri = -1;
    sched_cv_.wait(lock, [&] {
      if (stopping_) return true;
      ri = pick_ready_locked(Clock::now());
      return ri >= 0;
    });
    if (ri < 0) {
      if (stopping_) return;  // drained: the destructor waits for in_flight == 0
      continue;
    }
    const std::uint32_t slot = ready_[static_cast<std::size_t>(ri)];
    ready_[static_cast<std::size_t>(ri)] = ready_.back();
    ready_.pop_back();
    Request& req = slots_[slot];

    const Clock::time_point now = Clock::now();
    if (req.has_deadline && now >= req.deadline_tp) {
      req.result.status = deadline_exceeded_error(
          "EvdService: request deadline (" + std::to_string(req.opt.deadline_s) +
          " s) expired " +
          (req.started ? "between pipeline stages" : "before the solve started"));
      ++expired_;
      finalize_locked(req, runner);
      continue;
    }
    if (!req.started) {
      req.started = true;
      ++started_;
      req.start_tp = now;
      const double wait_s = elapsed_s(req.submit_tp, now);
      telemetry_.record_stage(kQueueKey, wait_s);
      telemetry_.record_latency(kQueueKey, wait_s);
      req.ctx = acquire_context_locked(req.size_class);
    }

    // Run exactly one stage with the lock dropped; the slot is out of ready_,
    // so this runner owns the request until it is requeued or finalized.
    lock.unlock();
    const char* key = stage_key(SolveJob::Stage::Reduction);
    Timer step_timer;
    bool done = false;
    try {
      if (req.job == nullptr)
        req.job = std::make_unique<SolveJob>(*req.a, *req.ctx, req.opt.evd, req.range);
      key = stage_key(req.job->stage());
      req.job->step();
      if (req.job->done()) {
        // A failed job's dropped_events() are intentionally discarded: the
        // synchronous path re-notes them into the caller's recovery scope,
        // but a service request has no caller scope — matching what
        // solve_many has always reported for failed problems.
        StatusOr<EvdResult> r = req.job->take();
        if (r.ok()) {
          req.result.status = ok_status();
          req.result.eigenvalues = std::move(r->eigenvalues);
          req.result.vectors = std::move(r->vectors);
          req.result.recovery = std::move(r->recovery);
          req.result.verify = std::move(r->verify);
        } else {
          req.result.status = r.status();
        }
        done = true;
      }
    } catch (const std::exception& e) {
      // A throw out of a pool task would take the process down; isolate it to
      // this request like any other failure. The job's destructor unwinds any
      // live workspace scopes on the context.
      req.result.status = Status(ErrorCode::Internal,
                                 std::string("EvdService: uncaught exception: ") + e.what());
      req.job.reset();
      done = true;
    } catch (...) {
      req.result.status =
          Status(ErrorCode::Internal, "EvdService: uncaught non-std exception");
      req.job.reset();
      done = true;
    }
    const double step_s = step_timer.seconds();
    lock.lock();
    telemetry_.record_stage(key, step_s);
    telemetry_.record_latency(key, step_s);
    if (done) {
      finalize_locked(req, runner);
    } else {
      ready_.push_back(slot);
      sched_cv_.notify_one();  // another runner may want this stage
    }
  }
}

void EvdService::finalize_locked(Request& req, int runner) {
  if (req.started) {
    --started_;
    req.result.worker = runner;
    req.result.seconds = elapsed_s(req.start_tp, Clock::now());
  }
  req.job.reset();  // release the workspace scope before the context is pooled
  if (req.ctx != nullptr) release_context_locked(req.size_class, std::move(req.ctx));
  req.completed = true;
  ++completed_;
  req.result.completion_seq = static_cast<std::uint64_t>(completed_);
  --in_flight_;
  done_cv_.notify_all();
  admit_cv_.notify_one();
  sched_cv_.notify_all();  // a start-cap slot freed; fresh requests may begin
}

std::unique_ptr<Context> EvdService::acquire_context_locked(std::size_t size_class) {
  auto it = idle_contexts_.find(size_class);
  if (it != idle_contexts_.end() && !it->second.empty()) {
    std::unique_ptr<Context> ctx = std::move(it->second.back());
    it->second.pop_back();
    return ctx;
  }
  auto ctx = std::make_unique<Context>(*engine_);
  ctx->workspace().reserve(size_class);
  return ctx;
}

void EvdService::release_context_locked(std::size_t size_class,
                                        std::unique_ptr<Context> ctx) {
  std::vector<std::unique_ptr<Context>>& idle = idle_contexts_[size_class];
  if (static_cast<int>(idle.size()) < max_idle_per_class_) {
    idle.push_back(std::move(ctx));
    return;
  }
  // Over the retention limit: the arena goes, but the per-problem telemetry
  // it accumulated must survive into the aggregate — snapshots (and
  // solve_many's merged BatchResult::telemetry) count every problem.
  telemetry_.merge_from(ctx->telemetry());
}

RequestResult EvdService::wait(RequestId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  std::unique_lock<std::mutex> lock(mutex_);
  if (slot >= slots_.size() || !slots_[slot].in_use || slots_[slot].gen != gen) {
    RequestResult out;
    out.status =
        invalid_argument_error("EvdService::wait: unknown or already-claimed request id");
    return out;
  }
  Request& req = slots_[slot];
  done_cv_.wait(lock, [&] { return req.completed; });
  RequestResult out = std::move(req.result);
  req.result = RequestResult{};
  req.a.reset();
  req.in_use = false;
  req.completed = false;
  ++req.gen;  // a stale id for this slot can never match again
  free_slots_.push_back(slot);
  return out;
}

void EvdService::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

Telemetry EvdService::telemetry_snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  Telemetry out;
  out.merge_from(telemetry_);
  for (auto& [size_class, idle] : idle_contexts_) {
    (void)size_class;
    for (const std::unique_ptr<Context>& ctx : idle) out.merge_from(ctx->telemetry());
  }
  return out;
}

ServiceStats EvdService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.deadline_expired = expired_;
  s.num_threads = threads_;
  for (const auto& [size_class, idle] : idle_contexts_) {
    (void)size_class;
    s.pooled_contexts += idle.size();
  }
  return s;
}

}  // namespace tcevd::evd
