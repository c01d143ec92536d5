// stream-mixed: one EvdService (4 workers, one shared tc-fp16 engine) fed by
// one generator thread that keeps a small fixed window of requests
// outstanding and claims them in FIFO order. Requests are a seeded draw of
// sizes and option mixes over a pool of seeded matrices; every request's
// output is checked against the matrix's reference eigenvalues.
//
// The traced run measures an untraced window, then a window on a second
// service built over a RecordingEngine, with spans around submit() and
// wait() only.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "src/common/norms.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/service.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace tcevd;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 4;
/// Outstanding requests the generator keeps in flight: two per worker.
constexpr std::size_t kWindow = 2 * kWorkers;
/// Throughput and tail latency are taken per slice of the measured window
/// (1 s, shorter only in windows under 4 s) and reported as the median
/// across slices, so a burst of outside load on a shared machine moves one
/// slice, not the result.
double slice_seconds(double window_seconds) { return std::min(1.0, window_seconds / 4); }

constexpr index_t kSizes[] = {16, 32, 64, 128};
constexpr int kSizeWeights[] = {4, 3, 2, 1};

struct Flavor {
  bool vectors;
  evd::TriSolver solver;
  bool selected;
  bool verified;  ///< verify = Estimate plus ABFT-checked GEMMs
};

constexpr Flavor kFlavors[] = {
    {false, evd::TriSolver::DivideConquer, false, false},  // values-only D&C
    {true, evd::TriSolver::DivideConquer, false, false},   // vectors D&C
    {false, evd::TriSolver::Ql, false, false},             // values-only QL
    {true, evd::TriSolver::DivideConquer, true, false},    // selected range, vectors
    {false, evd::TriSolver::DivideConquer, false, true},   // verified, values
    {true, evd::TriSolver::DivideConquer, false, true},    // verified, vectors
};
constexpr int kFlavorWeights[] = {30, 20, 20, 15, 8, 7};
constexpr int kNumSizes = static_cast<int>(std::size(kSizes));
constexpr int kNumFlavors = static_cast<int>(std::size(kFlavors));

struct Spec {
  int size;
  int matrix;
  int flavor;
};

evd::RequestOptions request_options(index_t n, const Flavor& f) {
  evd::RequestOptions r;
  r.evd.bandwidth = 8;
  r.evd.big_block = 32;
  r.evd.vectors = f.vectors;
  r.evd.solver = f.solver;
  if (f.selected) {
    r.selected = true;
    r.il = n / 4;
    r.iu = n / 4 + n / 8 - 1;
  }
  if (f.verified) {
    r.evd.verify = verify::Policy::Estimate;
    r.evd.abft = true;
  }
  return r;
}

int weighted(Rng& rng, const int* weights, int count) {
  int total = 0;
  for (int i = 0; i < count; ++i) total += weights[i];
  int x = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(total)));
  for (int i = 0; i < count; ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return count - 1;
}

/// The seeded matrices, their reference spectra, and the request draw.
class Inputs {
 public:
  Inputs(std::uint64_t seed, int per_size) : seed_(seed), per_size_(per_size) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x73747265616dull);
    for (index_t n : kSizes)
      for (int m = 0; m < per_size; ++m) {
        Matrix<float> a(n, n);
        fill_normal(rng, a.view());
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < j; ++i) a(i, j) = a(j, i);
        Matrix<double> ad(n, n);
        convert_matrix<float, double>(a.view(), ad.view());
        auto ref = evd::reference_eigenvalues(ad.view());
        TCEVD_CHECK(ref.ok(), "stream-mixed: reference eigenvalues failed");
        anorm_.push_back(frobenius_norm<float>(a.view()));
        ref_.push_back(std::move(*ref));
        mats_.push_back(std::move(a));
      }
  }

  const Matrix<float>& matrix(const Spec& s) const { return mats_[index(s)]; }
  const std::vector<double>& reference(const Spec& s) const { return ref_[index(s)]; }
  double anorm(const Spec& s) const { return anorm_[index(s)]; }
  int per_size() const { return per_size_; }

  /// The request sequence; every window replays it from its start.
  class Draw {
   public:
    Draw(std::uint64_t seed, int per_size)
        : rng_(seed * 0xbf58476d1ce4e5b9ull + 0x64726177ull), per_size_(per_size) {}
    Spec next() {
      Spec s;
      s.size = weighted(rng_, kSizeWeights, kNumSizes);
      s.matrix = static_cast<int>(rng_.bounded(static_cast<std::uint64_t>(per_size_)));
      s.flavor = weighted(rng_, kFlavorWeights, kNumFlavors);
      return s;
    }

   private:
    Rng rng_;
    int per_size_;
  };
  Draw draw() const { return Draw(seed_, per_size_); }

 private:
  std::size_t index(const Spec& s) const {
    return static_cast<std::size_t>(s.size * per_size_ + s.matrix);
  }
  std::uint64_t seed_;
  int per_size_;
  std::vector<Matrix<float>> mats_;
  std::vector<std::vector<double>> ref_;
  std::vector<double> anorm_;
};

/// Oracle check of each request, memoized per (matrix, flavor): an output
/// bitwise equal to one that already passed is accepted without re-checking.
class Checker {
 public:
  Checker(const Inputs& in, RunResult& out) : in_(in), out_(out) {}

  bool accept(const Spec& s, const evd::RequestResult& r) {
    if (!r.status.ok()) return false;
    const std::uint64_t h = output_hash(r.eigenvalues, ConstMatrixView<float>(r.vectors.view()));
    const int key = (s.size * in_.per_size() + s.matrix) * kNumFlavors + s.flavor;
    auto it = passed_.find(key);
    if (it != passed_.end() && it->second == h) return true;
    const Matrix<float>& a = in_.matrix(s);
    const index_t n = a.rows();
    const evd::RequestOptions opt = request_options(n, kFlavors[s.flavor]);
    const index_t first = opt.selected ? opt.il : 0;
    const std::size_t count = opt.selected ? static_cast<std::size_t>(opt.iu - opt.il + 1)
                                           : static_cast<std::size_t>(n);
    if (r.eigenvalues.size() != count) return false;
    if (kFlavors[s.flavor].vectors &&
        (r.vectors.rows() != n || r.vectors.cols() != static_cast<index_t>(count)))
      return false;
    const OracleCheck c = check_output(a.view(), in_.anorm(s), r.eigenvalues,
                                       in_.reference(s).data() + first,
                                       ConstMatrixView<float>(r.vectors.view()),
                                       tc::EngineKind::Tc);
    record_check(out_, c, tc::EngineKind::Tc, n);
    if (!c.passed) return false;
    if (it != passed_.end()) ++out_.hash_mismatches;
    passed_[key] = h;
    return true;
  }

 private:
  const Inputs& in_;
  RunResult& out_;
  std::unordered_map<int, std::uint64_t> passed_;
};

/// What one measured window saw.
struct Window {
  long completed = 0;
  double submit_s = 0.0;  ///< generator time inside submit()
  std::vector<double> latency_s, busy_s, wait_s;
  /// Completions per second and p99 latency of each full slice.
  std::vector<double> slice_rps, slice_p99_s;
  Fingerprint fp;  ///< first `hashed` requests, in submission order
  long hashed = 0;

  double throughput_rps() const { return median(slice_rps); }
  double latency_p99_s() const { return median(slice_p99_s); }
};

/// One warm-up request per (size, flavor), submitted together and claimed.
void run_batch(evd::EvdService& service, const Inputs& in, Checker& checker, RunResult& out) {
  std::vector<std::pair<Spec, StatusOr<evd::RequestId>>> ids;
  for (int size = 0; size < kNumSizes; ++size)
    for (int flavor = 0; flavor < kNumFlavors; ++flavor) {
      const Spec s{size, 0, flavor};
      const Matrix<float>& a = in.matrix(s);
      ids.emplace_back(s, service.submit(a.view(), request_options(a.rows(), kFlavors[flavor])));
    }
  for (auto& [spec, id] : ids) {
    ++out.attempted;
    if (!id.ok() || !checker.accept(spec, service.wait(*id))) {
      ++out.failed;
      out.correct = false;
    }
  }
}

Window run_window(evd::EvdService& service, const Inputs& in, Checker& checker, RunResult& out,
                  const RunConfig& cfg, long hash_count, Tracer* tracer) {
  Window w;
  if (cfg.inject_nan) {
    // An invalid request must be refused and counted, not crash the run.
    Matrix<float> bad(32, 32);
    bad(3, 5) = bad(5, 3) = std::numeric_limits<float>::quiet_NaN();
    ++out.attempted;
    auto id = service.submit(bad.view(), {});
    if (!id.ok() || !service.wait(*id).status.ok()) ++out.failed;
  }
  struct Pending {
    evd::RequestId id;
    Spec spec;
    Clock::time_point submitted;
    long index;
  };
  std::deque<Pending> pending;
  Inputs::Draw draw = in.draw();
  long next_index = 0;
  const double slice_s = slice_seconds(cfg.seconds);
  std::vector<double> slice_latency_s;
  double slice_end = slice_s;
  Timer window;
  for (;;) {
    const bool more = window.seconds() < cfg.seconds || next_index < hash_count;
    while (more && pending.size() < kWindow) {
      const Spec s = draw.next();
      const Matrix<float>& a = in.matrix(s);
      const evd::RequestOptions opt = request_options(a.rows(), kFlavors[s.flavor]);
      const std::uint64_t request = static_cast<std::uint64_t>(++next_index);
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      StatusOr<evd::RequestId> id = [&] {
        if (tracer == nullptr) return service.submit(a.view(), opt);
        Span span(*tracer, "submit", request);
        return service.submit(a.view(), opt);
      }();
      const Clock::time_point t1 = Clock::now();
      w.submit_s += std::chrono::duration<double>(t1 - t0).count();
      if (!id.ok()) {
        ++out.failed;
        out.correct = false;
        continue;
      }
      pending.push_back({*id, s, t1, next_index});
    }
    if (pending.empty()) break;
    const Pending p = pending.front();
    pending.pop_front();
    evd::RequestResult r = [&] {
      if (tracer == nullptr) return service.wait(p.id);
      Span span(*tracer, "wait", static_cast<std::uint64_t>(p.index));
      return service.wait(p.id);
    }();
    const double latency = std::chrono::duration<double>(Clock::now() - p.submitted).count();
    const double done_s = window.seconds();
    while (done_s >= slice_end && slice_end <= cfg.seconds) {
      w.slice_rps.push_back(static_cast<double>(slice_latency_s.size()) / slice_s);
      w.slice_p99_s.push_back(quantile(slice_latency_s, 0.99));
      slice_latency_s.clear();
      slice_end += slice_s;
    }
    if (done_s < slice_end && slice_end <= cfg.seconds) slice_latency_s.push_back(latency);
    ++w.completed;
    w.latency_s.push_back(latency);
    w.busy_s.push_back(r.seconds);
    w.wait_s.push_back(latency - r.seconds);
    const bool ok = checker.accept(p.spec, r);
    if (!ok) {
      ++out.failed;
      out.correct = false;
    }
    if (p.index <= hash_count) {
      w.fp.add_u64(ok ? output_hash(r.eigenvalues, ConstMatrixView<float>(r.vectors.view()))
                      : 0);
      ++w.hashed;
    }
  }
  TCEVD_CHECK(!w.slice_rps.empty(), "stream-mixed: window shorter than one slice");
  std::fprintf(stderr, "perfbench: completions per %.3g-s slice:", slice_s);
  for (double x : w.slice_rps) std::fprintf(stderr, " %.0f", x);
  std::fprintf(stderr, "\n");
  return w;
}

}  // namespace

RunResult run_stream(const RunConfig& cfg) {
  RunResult out;
  const Inputs in(cfg.seed, cfg.tiny ? 2 : 8);
  Checker checker(in, out);
  const long hash_count = cfg.tiny ? 64 : 512;
  evd::ServiceOptions sopt;
  sopt.num_threads = kWorkers;

  // Set-up: engine, service and a first request batch, several times.
  const int setup_reps = cfg.tiny || cfg.trace ? 1 : 9;
  std::unique_ptr<tc::GemmEngine> engine;
  std::unique_ptr<evd::EvdService> service;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    service.reset();
    engine.reset();
    Timer t;
    engine = std::make_unique<tc::TcEngine>(tc::TcPrecision::Fp16);
    service = std::make_unique<evd::EvdService>(*engine, sopt);
    run_batch(*service, in, checker, out);
    setup_s.push_back(t.seconds());
  }

  if (!cfg.trace) {
    const Window w = run_window(*service, in, checker, out, cfg, hash_count, nullptr);
    out.output_hash = w.fp.value();
    out.hashed_outputs = w.hashed;
    out.samples = w.completed;
    out.metrics = {
        {"solve_p50_s", median(w.busy_s), "s"},
        {"throughput_rps", w.throughput_rps(), "1/s"},
        {"latency_p50_ms", 1e3 * median(w.latency_s), "ms"},
        {"latency_p99_ms", 1e3 * w.latency_p99_s(), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return out;
  }

  // Traced run: half the time untraced, half on a service over a
  // RecordingEngine; the ratio of their throughputs is the trace overhead.
  RunConfig half = cfg;
  half.seconds = 0.5 * cfg.seconds;
  const Window plain = run_window(*service, in, checker, out, half, hash_count, nullptr);
  service.reset();
  Tracer tracer;
  RecordingEngine recorder(*engine, tracer);
  service = std::make_unique<evd::EvdService>(recorder, sopt);
  run_batch(*service, in, checker, out);
  tracer.reset();  // count the measured window only
  half.inject_nan = false;
  const Window w = run_window(*service, in, checker, out, half, hash_count, &tracer);
  const std::size_t pooled = service->stats().pooled_contexts;
  service.reset();  // joins the workers before the tracer is read
  note_trace_file(out, tracer, cfg.trace_out);
  if (w.fp.value() != plain.fp.value() || w.hashed != plain.hashed) {
    ++out.failed;
    out.correct = false;
    out.notes += "traced window did not reproduce the untraced output bits; ";
  }
  out.output_hash = w.fp.value();
  out.hashed_outputs = w.hashed;
  out.samples = w.completed;
  const double per = 1.0 / static_cast<double>(w.completed);
  // The dense layers run inside the service's workers, which this workload
  // times only at submit() and wait().
  for (const char* name :
       {"sbr.busy_s", "sbr.self_s", "bulge.busy_s", "tri.busy_s", "verify.busy_s", "evd.self_s"})
    out.metrics.push_back({name, 0.0, "s"});
  append_gemm_metrics(out.metrics, tracer, per);
  out.metrics.push_back({"service.submit_blocked_s", w.submit_s * per, "s"});
  out.metrics.push_back({"service.busy_p50_ms", 1e3 * median(w.busy_s), "ms"});
  out.metrics.push_back({"service.busy_p99_ms", 1e3 * quantile(w.busy_s, 0.99), "ms"});
  out.metrics.push_back({"service.wait_p50_ms", 1e3 * median(w.wait_s), "ms"});
  out.metrics.push_back({"service.pooled_contexts", static_cast<double>(pooled), "count"});
  out.metrics.push_back(
      {"trace.overhead_ratio", plain.throughput_rps() / w.throughput_rps(), "ratio"});
  return out;
}

}  // namespace perfbench
