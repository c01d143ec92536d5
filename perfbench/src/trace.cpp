#include "trace.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

/// Spans kept for the trace file; past this only the totals grow.
constexpr std::size_t kMaxKeptSpans = 100000;

struct OpenSpan {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  double start_s;
  double child_s;
};

// The open-span stack of the calling thread. Its spans are all closed before
// the thread stops tracing, so one stack serves any Tracer.
thread_local std::vector<OpenSpan> t_open;

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<int> g_next_thread{0};

int thread_index() {
  thread_local const int index = g_next_thread.fetch_add(1);
  return index;
}

int bucket_of(const tcevd::tc::GemmShape& shape) {
  const auto d = shape.min_dim();
  return d <= 32 ? 0 : d <= 128 ? 1 : 2;
}

void add(GemmTotals& t, double busy_s, double flops, double bytes) {
  ++t.calls;
  t.busy_s += busy_s;
  t.flops += flops;
  t.bytes += bytes;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

void Tracer::open(const char* name, std::uint64_t request) {
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back().id;
  t_open.push_back(OpenSpan{name, g_next_id.fetch_add(1), parent, request, now(), 0.0});
}

void Tracer::close() {
  const double end_s = now();
  const OpenSpan s = t_open.back();
  t_open.pop_back();
  const double busy_s = end_s - s.start_s;
  if (!t_open.empty()) t_open.back().child_s += busy_s;
  std::lock_guard<std::mutex> lock(mutex_);
  LayerTotals& layer = layers_[s.name];
  layer.busy_s += busy_s;
  layer.self_s += busy_s - s.child_s;
  keep_locked(Record{s.name, s.id, s.parent, s.request, thread_index(), s.start_s, end_s,
                     busy_s - s.child_s, 0, 0, 0});
}

void Tracer::record_gemm(const tcevd::tc::GemmShape& shape, double start_s, double end_s) {
  const double busy_s = end_s - start_s;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  if (!t_open.empty()) {
    t_open.back().child_s += busy_s;
    parent = t_open.back().id;
    request = t_open.back().request;
  }
  const double m = static_cast<double>(shape.m);
  const double n = static_cast<double>(shape.n);
  const double k = static_cast<double>(shape.k);
  const double bytes = sizeof(float) * (m * k + k * n + 2.0 * m * n);
  std::lock_guard<std::mutex> lock(mutex_);
  add(gemm_total_, busy_s, shape.flops(), bytes);
  add(gemm_buckets_[static_cast<std::size_t>(bucket_of(shape))], busy_s, shape.flops(), bytes);
  keep_locked(Record{"gemm", g_next_id.fetch_add(1), parent, request, thread_index(), start_s,
                     end_s, busy_s, shape.m, shape.n, shape.k});
}

void Tracer::keep_locked(const Record& rec) {
  if (records_.size() < kMaxKeptSpans)
    records_.push_back(rec);
  else
    ++dropped_;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  dropped_ = 0;
  layers_.clear();
  gemm_total_ = {};
  gemm_buckets_ = {};
}

std::map<std::string, LayerTotals> Tracer::layers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return layers_;
}

GemmTotals Tracer::gemm_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gemm_total_;
}

std::array<GemmTotals, 3> Tracer::gemm_buckets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gemm_buckets_;
}

std::size_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"self_us\": %.3f",
                 r.name, r.thread, 1e6 * r.start_s, 1e6 * (r.end_s - r.start_s),
                 static_cast<unsigned long long>(r.id), static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), 1e6 * r.self_s);
    if (r.m != 0 || r.n != 0 || r.k != 0)
      std::fprintf(f, ", \"m\": %lld, \"n\": %lld, \"k\": %lld", static_cast<long long>(r.m),
                   static_cast<long long>(r.n), static_cast<long long>(r.k));
    std::fprintf(f, "}}%s\n", i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void RecordingEngine::do_gemm(tcevd::blas::Trans transa, tcevd::blas::Trans transb, float alpha,
                              tcevd::ConstMatrixView<float> a, tcevd::ConstMatrixView<float> b,
                              float beta, tcevd::MatrixView<float> c) const {
  const tcevd::index_t k = transa == tcevd::blas::Trans::No ? a.cols() : a.rows();
  const double start_s = tracer_.now();
  inner_.gemm(transa, transb, alpha, a, b, beta, c);
  tracer_.record_gemm(tcevd::tc::GemmShape{c.rows(), c.cols(), k, inner_.kind()}, start_s,
                      tracer_.now());
}

}  // namespace perfbench
