// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public entry points: a layer span (`sbr`, `bulge`, `tri`, ...)
// wraps one call, and GEMM spans come from RecordingEngine, a forwarding
// GemmEngine that times every call the pipeline issues. Nothing inside the
// library is instrumented. Each span carries a name, start, end, parent and
// request id; a span's self time is its duration minus the time its children
// cover. Spans stay in memory and are written out as Chrome trace-event JSON
// when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/tensorcore/engine.hpp"

namespace perfbench {

/// Totals of one layer's spans.
struct LayerTotals {
  double busy_s = 0.0;
  double self_s = 0.0;
};

/// Totals of GEMM calls, overall or in one GemmShape::min_dim bucket.
struct GemmTotals {
  long calls = 0;
  double busy_s = 0.0;
  double flops = 0.0;  ///< GemmShape::flops(): issued flops, 3x logical on EC-TC
  double bytes = 0.0;  ///< computed from the shape: 4 (mk + kn + 2mn)
};

/// Table-1 shape classes by the smallest GEMM dimension.
inline constexpr std::array<const char*, 3> kGemmBuckets = {"min_le32", "min_33_128",
                                                            "min_gt128"};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the tracer was created.
  double now() const noexcept;

  /// Open a span on the calling thread; its parent is the thread's innermost
  /// open span. `name` must be a string literal.
  void open(const char* name, std::uint64_t request);
  /// Close the calling thread's innermost open span.
  void close();

  /// Record one finished GEMM call as a child of the thread's innermost open
  /// span (or as a root span on threads with none open).
  void record_gemm(const tcevd::tc::GemmShape& shape, double start_s, double end_s);

  /// Drop everything recorded so far. Call only while no thread traces.
  void reset();

  std::map<std::string, LayerTotals> layers() const;
  GemmTotals gemm_total() const;
  std::array<GemmTotals, 3> gemm_buckets() const;
  std::size_t spans_dropped() const;

  /// Write every kept span as Chrome trace-event JSON (opens in Perfetto or
  /// chrome://tracing). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::uint64_t request;
    int thread;
    double start_s;
    double end_s;
    double self_s;
    std::int64_t m, n, k;  ///< GEMM spans only
  };
  void keep_locked(const Record& rec);

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
  std::size_t dropped_ = 0;      ///< guarded by mutex_
  std::map<std::string, LayerTotals> layers_;  ///< guarded by mutex_
  GemmTotals gemm_total_;                      ///< guarded by mutex_
  std::array<GemmTotals, 3> gemm_buckets_{};   ///< guarded by mutex_
};

/// RAII layer span.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request) : tracer_(tracer) {
    tracer_.open(name, request);
  }
  ~Span() { tracer_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Forwarding GemmEngine: runs every call on `inner` and records it as a
/// GEMM span. It is not a TcEngine, so paths that dynamic_cast the engine
/// (verify escalation, the TC syr2k trailing updates) must stay off while it
/// is installed; the output-hash comparison catches any divergence.
class RecordingEngine final : public tcevd::tc::GemmEngine {
 public:
  RecordingEngine(const tcevd::tc::GemmEngine& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::string& name() const noexcept override { return inner_.name(); }
  tcevd::tc::EngineKind kind() const noexcept override { return inner_.kind(); }

 protected:
  void do_gemm(tcevd::blas::Trans transa, tcevd::blas::Trans transb, float alpha,
               tcevd::ConstMatrixView<float> a, tcevd::ConstMatrixView<float> b, float beta,
               tcevd::MatrixView<float> c) const override;

 private:
  const tcevd::tc::GemmEngine& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
