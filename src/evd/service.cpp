#include "src/evd/service.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/blas/gemm_threading.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"

namespace tcevd::evd {

namespace {

/// Static telemetry keys: a hot stream records a stage under these every few
/// microseconds, so the lookups must not allocate.
constexpr const char* kQueueKey = "service.queue";

const char* stage_key(Stage stage) noexcept {
  switch (stage) {
    case Stage::Reduction: return "service.stage.reduction";
    case Stage::Bulge: return "service.stage.bulge";
    case Stage::Solver: return "service.stage.solver";
    case Stage::Verify: return "service.stage.verify";
  }
  return "service.stage.unknown";
}

double elapsed_s(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

EvdService::EvdService(tc::GemmEngine& engine, const ServiceOptions& opt)
    : engine_(&engine), opt_(opt) {
  const int threads = opt_.num_threads > 0 ? opt_.num_threads : ThreadPool::hardware_threads();
  opt_.max_in_flight = std::max(opt_.max_in_flight, 1);
  runners_.resize(static_cast<std::size_t>(threads));
  for (int r = 0; r < threads; ++r) threads_.emplace_back([this, r] { runner_loop(r); });
}

EvdService::~EvdService() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return in_flight_ == 0; });
    stopping_ = true;
  }
  sched_cv_.notify_all();
  admit_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

StatusOr<RequestId> EvdService::submit(ConstMatrixView<float> a,
                                       const RequestOptions& ropt) {
  const std::optional<IndexRange> range =
      ropt.selected ? std::optional(IndexRange{ropt.il, ropt.iu}) : std::nullopt;
  TCEVD_RETURN_IF_ERROR(validate_request(a, ropt.evd, range, "EvdService::submit"));

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
  // A deadline the clock cannot represent from now (including +inf) would
  // overflow the conversion below, so it counts as no deadline, as NaN and
  // values <= 0 do. The min() absorbs the last ulp of double rounding.
  const Clock::duration headroom = Clock::time_point::max() - req.submit_tp;
  const std::chrono::duration<double> deadline(ropt.deadline_s);
  req.has_deadline = ropt.deadline_s > 0.0 && deadline < headroom;
  if (req.has_deadline)
    req.deadline_tp =
        req.submit_tp +
        std::min(std::chrono::duration_cast<Clock::duration>(deadline), headroom);
  req.range = range;
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
  // The runners are the parallelism: the GEMMs and chases of their requests
  // stay on the runner's thread.
  blas::SerialGemmScope serial;
  Runner& self = runners_[static_cast<std::size_t>(runner)];
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    int ri = -1;
    sched_cv_.wait(lock, [&] {
      if (stopping_) return true;
      ri = pick_ready_locked(Clock::now());
      return ri >= 0;
    });
    if (ri < 0) return;  // stopping, drained: the destructor waited for in_flight_ == 0
    const std::uint32_t slot = ready_[static_cast<std::size_t>(ri)];
    ready_[static_cast<std::size_t>(ri)] = ready_.back();
    ready_.pop_back();
    Request& req = slots_[slot];

    const Clock::time_point start = Clock::now();
    if (req.has_deadline && start >= req.deadline_tp) {
      req.result.status = deadline_exceeded_error(
          "EvdService: request deadline (" + std::to_string(req.opt.deadline_s) +
          " s) expired before the solve started");
      ++expired_;
      finalize_locked(req);
      continue;
    }
    record_locked(kQueueKey, elapsed_s(req.submit_tp, start));
    if (!self.ctx) self.ctx = std::make_unique<Context>(*engine_);
    self.solving = true;

    // The slot is out of ready_, so this runner owns the request until it
    // finalizes it.
    lock.unlock();
    solve_request(req, *self.ctx);
    req.result.worker = runner;
    req.result.seconds = elapsed_s(start, Clock::now());
    lock.lock();
    self.solving = false;
    if (req.result.status.code() == ErrorCode::DeadlineExceeded) ++expired_;
    finalize_locked(req);
  }
}

void EvdService::solve_request(Request& req, Context& ctx) {
  const char* key = nullptr;  // the stage the solve is in, timed by stage_timer
  Timer stage_timer;
  const StageGate gate = [&](Stage next) -> Status {
    if (key != nullptr) {
      const double stage_s = stage_timer.seconds();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        record_locked(std::exchange(key, nullptr), stage_s);
      }
      if (req.has_deadline && Clock::now() >= req.deadline_tp)
        return deadline_exceeded_error("EvdService: request deadline (" +
                                       std::to_string(req.opt.deadline_s) +
                                       " s) expired between pipeline stages");
    }
    key = stage_key(next);
    stage_timer.reset();
    return ok_status();
  };

  // A failed solve hands its recovery log to this scope; a throwing one
  // leaves it here as it unwinds.
  recovery::Scope dropped;
  Status thrown = ok_status();
  try {
    StatusOr<EvdResult> r = run_solve(*req.a, ctx, req.opt.evd, req.range, gate);
    req.result.status = r.status();
    if (r.ok()) {
      req.result.eigenvalues = std::move(r->eigenvalues);
      req.result.vectors = std::move(r->vectors);
      req.result.recovery = std::move(r->recovery);
      req.result.verify = std::move(r->verify);
    }
  } catch (const std::exception& e) {
    thrown = Status(ErrorCode::Internal, std::string("EvdService: uncaught exception: ") + e.what());
  } catch (...) {
    thrown = Status(ErrorCode::Internal, "EvdService: uncaught non-std exception");
  }
  if (!thrown.ok()) {
    // A throw out of a runner thread would take the process down, so it fails
    // this request alone. The solve never recorded its log, so record it
    // here.
    req.result.status = std::move(thrown);
    ctx.telemetry().record_recovery(dropped.events());
  }
  if (!req.result.status.ok()) req.result.recovery = dropped.take();

  const double stage_s = stage_timer.seconds();
  if (key != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    record_locked(key, stage_s);
  }
}

void EvdService::record_locked(const char* key, double seconds) {
  telemetry_.record_stage(key, seconds);
  telemetry_.record_latency(key, seconds);
}

void EvdService::finalize_locked(Request& req) {
  req.completed = true;
  ++completed_;
  req.result.completion_seq = static_cast<std::uint64_t>(completed_);
  --in_flight_;
  done_cv_.notify_all();
  admit_cv_.notify_one();
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
  for (const Runner& r : runners_)
    if (r.ctx && !r.solving) out.merge_from(r.ctx->telemetry());
  return out;
}

ServiceStats EvdService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.deadline_expired = expired_;
  s.num_threads = num_threads();
  for (const Runner& r : runners_)
    if (r.ctx) ++s.pooled_contexts;
  return s;
}

}  // namespace tcevd::evd
