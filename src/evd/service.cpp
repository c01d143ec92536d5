#include "src/evd/service.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/blas/gemm_threading.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"

namespace tcevd::evd {

namespace {

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
  admit_cv_.wait(lock, [&] { return in_flight_ < opt_.max_in_flight; });

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
  req.submit_tp = Clock::now();
  req.range = range;
  req.completed = false;
  req.result = RequestResult{};
  ++in_flight_;
  ++submitted_;
  ready_.push_back(slot);
  sched_cv_.notify_one();
  return (static_cast<RequestId>(req.gen) << 32) | slot;
}

void EvdService::runner_loop(int runner) {
  // The runners are the parallelism: the GEMMs and chases of their requests
  // stay on the runner's thread.
  blas::SerialGemmScope serial;
  Runner& self = runners_[static_cast<std::size_t>(runner)];
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    sched_cv_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) return;  // stopping, drained: the destructor waited for in_flight_ == 0
    Request& req = slots_[ready_.front()];
    ready_.erase(ready_.begin());

    const Clock::time_point start = Clock::now();
    if (!self.ctx) self.ctx = std::make_unique<Context>(*engine_);
    // Under the lock and before `solving` is set, as telemetry_snapshot()
    // reads the Context then.
    self.ctx->telemetry().record_stage("service.queue", elapsed_s(req.submit_tp, start));
    self.solving = true;

    // The slot is out of ready_, so this runner owns the request until it
    // finalizes it.
    lock.unlock();
    solve_request(req, *self.ctx);
    req.result.worker = runner;
    req.result.seconds = elapsed_s(start, Clock::now());
    lock.lock();
    self.solving = false;
    finalize_locked(req);
  }
}

void EvdService::solve_request(Request& req, Context& ctx) {
  // A failed solve hands its recovery log to this scope; a throwing one
  // leaves it here as it unwinds.
  recovery::Scope dropped;
  Status thrown = ok_status();
  try {
    StatusOr<EvdResult> r = run_solve(*req.a, ctx, req.opt.evd, req.range);
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
  // Another wait() on the same id may claim the result first and recycle the
  // slot, which bumps its generation.
  const auto claimable = [&] {
    return slot < slots_.size() && slots_[slot].in_use && slots_[slot].gen == gen;
  };
  done_cv_.wait(lock, [&] { return !claimable() || slots_[slot].completed; });
  if (!claimable()) {
    RequestResult out;
    out.status =
        invalid_argument_error("EvdService::wait: unknown or already-claimed request id");
    return out;
  }
  Request& req = slots_[slot];
  RequestResult out = std::move(req.result);
  req.result = RequestResult{};
  req.a.reset();
  req.in_use = false;
  req.completed = false;
  ++req.gen;  // a stale id for this slot can never match again
  free_slots_.push_back(slot);
  return out;
}

Telemetry EvdService::telemetry_snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  Telemetry out;
  for (const Runner& r : runners_)
    if (r.ctx && !r.solving) out.merge_from(r.ctx->telemetry());
  return out;
}

ServiceStats EvdService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  for (const Runner& r : runners_)
    if (r.ctx) ++s.pooled_contexts;
  return s;
}

}  // namespace tcevd::evd
