// Execution context threaded through every pipeline layer.
//
// A Context bundles the three pieces of per-solve state that used to hide in
// engine members and thread-locals:
//
//   * the GemmEngine executing every level-3 update (borrowed, and shareable
//     across contexts),
//   * a bump-pointer workspace arena the hot paths check their temporaries
//     out of (see src/common/workspace.hpp) — size it up front with the
//     workspace_query APIs for allocation-free steady state,
//   * a telemetry sink: GEMM shape recording (moved off the engine, where it
//     raced between concurrent callers), per-stage wall-clock timers, and an
//     aggregated recovery log of every graceful-degradation event taken by
//     calls on this context.
//
// Thread-safety contract: one Context per thread. Engines are stateless
// (their one diagnostic counter is atomic) and may be shared by any number
// of contexts; the Context itself — arena, telemetry — must not be. This is
// the shape concurrent solve() needs: N threads, N contexts, one
// engine.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/timer.hpp"
#include "src/common/workspace.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd {

/// Per-context instrumentation: GEMM shapes, stage timers, recovery events.
class Telemetry {
 public:
  // --- GEMM shape recording (paper Table 1 / Figs. 5-7 measurements) ------
  void set_recording(bool on) noexcept { recording_ = on; }
  bool recording() const noexcept { return recording_; }
  void record_gemm(const tc::GemmShape& shape) {
    if (recording_) shapes_.push_back(shape);
  }
  const std::vector<tc::GemmShape>& recorded() const noexcept { return shapes_; }
  void clear_recorded() noexcept { shapes_.clear(); }
  /// Hardware flops of the recorded stream — EngineKind-aware, so EC-TC
  /// GEMMs count their three TC products (GemmShape::flops()).
  double recorded_flops() const noexcept;

  // --- per-stage wall-clock timers ----------------------------------------
  struct StageStat {
    std::string name;
    double seconds = 0.0;
    long calls = 0;
  };
  /// Accumulate `seconds` under `stage` (same stage adds up across calls).
  void record_stage(std::string_view stage, double seconds);
  const std::vector<StageStat>& stages() const noexcept { return stages_; }
  /// Total seconds recorded under `stage` (0.0 if never recorded).
  double stage_seconds(std::string_view stage) const noexcept;
  void clear_stages() noexcept { stages_.clear(); }

  // --- latency histograms ---------------------------------------------------
  // Per-event-class latency distributions for the streaming service tier
  // (service.queue admission wait, service.stage.* per-stage times).
  // Buckets are log2-spaced in microseconds: bucket 0 covers [0, 2) us and
  // bucket i >= 1 covers [2^i, 2^(i+1)) us, so forty buckets span sub-
  // microsecond noise up to multi-day outliers without per-sample storage.
  static constexpr int kLatencyBuckets = 40;
  struct LatencyStat {
    std::string name;
    long count = 0;
    double sum_s = 0.0;
    double min_s = 0.0;  ///< smallest recorded sample (0 until first record)
    double max_s = 0.0;
    std::array<long, kLatencyBuckets> buckets{};
  };
  /// Add one latency sample under `name` (same name accumulates).
  void record_latency(std::string_view name, double seconds);
  const std::vector<LatencyStat>& latencies() const noexcept { return latencies_; }
  /// Approximate q-quantile (q in [0, 1]) of the samples recorded under
  /// `name`: the upper edge of the bucket holding the q-th sample, clamped to
  /// the observed max. Returns 0.0 when nothing was recorded under `name`.
  double latency_quantile(std::string_view name, double q) const noexcept;

  // --- recovery aggregation -----------------------------------------------
  /// Degradation events accumulated across every call on this context. A
  /// solve records its whole log here once, when it ends, whether it
  /// succeeded (the log is also EvdResult::recovery) or failed.
  void record_recovery(const RecoveryLog& log);
  const RecoveryLog& recovery() const noexcept { return recovery_; }

  // --- cross-context aggregation --------------------------------------------
  /// Fold another telemetry sink into this one: recorded GEMM shapes are
  /// appended, stage timers accumulate by name (seconds and call counts both
  /// add), latency histograms accumulate bucket-wise by name, and recovery
  /// events are appended. This is how EvdService
  /// collapses per-context telemetry into one aggregate view; merging is
  /// lossless for totals (sum over workers == merged totals) but does not
  /// preserve interleaving order across sources. `other` is left untouched;
  /// the caller serializes — merge while workers still record and you have a
  /// race.
  void merge_from(const Telemetry& other);

 private:
  bool recording_ = false;
  std::vector<tc::GemmShape> shapes_;
  std::vector<StageStat> stages_;
  std::vector<LatencyStat> latencies_;
  RecoveryLog recovery_;
};

/// RAII stage timer: records elapsed wall time into a Telemetry sink on
/// destruction (or at an explicit stop(), which also returns the seconds).
class StageTimer {
 public:
  StageTimer(Telemetry& telemetry, std::string_view stage)
      : telemetry_(&telemetry), stage_(stage) {}
  ~StageTimer() { stop(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Stop and record (idempotent); returns the elapsed seconds.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      seconds_ = timer_.seconds();
      telemetry_->record_stage(stage_, seconds_);
    }
    return seconds_;
  }

 private:
  Telemetry* telemetry_;
  std::string stage_;
  Timer timer_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

class Context {
 public:
  /// Borrow `engine` (it must outlive the context). Engines are shareable:
  /// many contexts — one per thread — may borrow the same engine.
  explicit Context(tc::GemmEngine& engine) : engine_(&engine) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  tc::GemmEngine& engine() noexcept { return *engine_; }
  const tc::GemmEngine& engine() const noexcept { return *engine_; }
  Workspace& workspace() noexcept { return workspace_; }
  Telemetry& telemetry() noexcept { return telemetry_; }
  const Telemetry& telemetry() const noexcept { return telemetry_; }

  /// C = alpha * op(A) * op(B) + beta * C through the engine, recording the
  /// shape (tagged with the engine's kind) when telemetry recording is on.
  void gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
            ConstMatrixView<float> b, float beta, MatrixView<float> c) {
    if (telemetry_.recording()) {
      const index_t k = (transa == blas::Trans::No) ? a.cols() : a.rows();
      telemetry_.record_gemm(tc::GemmShape{c.rows(), c.cols(), k, engine_->kind()});
    }
    engine_->gemm(transa, transb, alpha, a, b, beta, c);
  }

 private:
  friend class EngineOverrideScope;
  tc::GemmEngine* engine_;
  Workspace workspace_;
  Telemetry telemetry_;
};

/// RAII engine swap on an existing Context: while the scope is alive every
/// GEMM issued through `ctx` runs on `engine`; the destructor restores the
/// original. This is how verified solves escalate precision without
/// rebuilding the context: an escalated evd::run_solve holds one as a local
/// until it returns, and the warm workspace arena and accumulated telemetry
/// carry over, only the numerics change. The override engine is borrowed and
/// must outlive the scope; scopes nest (each restores what it saw). Same
/// thread-ownership rule as the Context itself: do not override an engine
/// another thread is solving on.
class EngineOverrideScope {
 public:
  EngineOverrideScope(Context& ctx, tc::GemmEngine& engine) noexcept
      : ctx_(&ctx), prev_(ctx.engine_) {
    ctx.engine_ = &engine;
  }
  ~EngineOverrideScope() { ctx_->engine_ = prev_; }
  EngineOverrideScope(const EngineOverrideScope&) = delete;
  EngineOverrideScope& operator=(const EngineOverrideScope&) = delete;

 private:
  Context* ctx_;
  tc::GemmEngine* prev_;
};

}  // namespace tcevd
