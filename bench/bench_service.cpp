// Streaming-service throughput benchmark: ~10^5 mixed requests (mixed sizes,
// full/selected spectra, with and without vectors) pushed through a
// fixed-worker EvdService with windowed admission, measuring end-to-end
// request throughput plus the merged runner telemetry — queue wait
// (service.queue) and the evd.* stage times, each as p50/p95/p99 from its
// log2 histogram and a total.
//
// Rows are [measured] on this machine's CPU build; the reproduction claim is
// that runners each taking the next waiting request keep every worker busy
// across a heterogeneous stream, not any absolute req/s. Results mirror into BENCH_service.json
// (redirected by TCEVD_BENCH_OUT) for the perf-trajectory tooling.
//
// TCEVD_BENCH_SERVICE_REQUESTS overrides the request count (default 100000);
// CI's sanitizer soak leg runs a few thousand to shake out races, the
// perf-trajectory leg runs the full stream.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/evd/service.hpp"
#include "src/tensorcore/engine.hpp"

namespace {

using namespace tcevd;

struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Row> g_rows;

void emit(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-36s %14.3f %s\n", name.c_str(), value, unit.c_str());
  g_rows.push_back({name, value, unit});
}

Matrix<float> random_symmetric(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) a(i, j) = a(j, i);
  return a;
}

long request_count() {
  if (const char* env = std::getenv("TCEVD_BENCH_SERVICE_REQUESTS")) {
    long v = std::atol(env);
    if (v > 0) return v;
  }
  return 100000;
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.9f, \"unit\": \"%s\"}%s\n",
                 r.name.c_str(), r.value, r.unit.c_str(),
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", g_rows.size(), path);
}

}  // namespace

int main() {
  const long count = request_count();
  const int workers = 4;
  const long window = 512;  // outstanding requests before draining the oldest

  bench::header("streaming EvdService: mixed-request throughput",
                "DESIGN.md §15 (streaming driver)");
  std::printf("  %ld mixed requests, %d workers, window %ld\n\n", count, workers,
              window);

  // One matrix per flavor, reused across the stream (submit borrows the view
  // read-only, so concurrent requests may share a matrix). Flavors exercise
  // every pipeline shape: one-stage vs two-stage, vectors on/off, QR vs D&C,
  // a selected window, and a trivial n=1 fast path.
  struct Flavor {
    Matrix<float> a;
    evd::RequestOptions opt;
  };
  std::vector<Flavor> flavors;
  {
    Flavor f;
    f.a = random_symmetric(32, 1001);
    flavors.push_back(std::move(f));  // defaults: two-stage, values only

    f.a = random_symmetric(48, 1002);
    f.opt.evd.vectors = true;
    flavors.push_back(std::move(f));

    f.opt = {};
    f.a = random_symmetric(64, 1003);
    f.opt.evd.solver = evd::TriSolver::Ql;
    flavors.push_back(std::move(f));

    f.opt = {};
    f.a = random_symmetric(64, 1004);
    f.opt.evd.vectors = true;
    f.opt.evd.bandwidth = 8;
    flavors.push_back(std::move(f));

    f.opt = {};
    f.a = random_symmetric(48, 1005);
    f.opt.selected = true;
    f.opt.il = 4;
    f.opt.iu = 11;
    f.opt.evd.vectors = true;
    flavors.push_back(std::move(f));

    f.opt = {};
    f.a = random_symmetric(1, 1006);  // trivial fast path stresses scheduling
    flavors.push_back(std::move(f));
  }

  tc::Fp32Engine engine;
  evd::ServiceOptions sopt;
  sopt.num_threads = workers;
  sopt.max_in_flight = static_cast<int>(window);

  long failed = 0;
  Timer total;
  {
    evd::EvdService service(engine, sopt);
    std::deque<evd::RequestId> pending;
    for (long i = 0; i < count; ++i) {
      const Flavor& f = flavors[static_cast<std::size_t>(i) % flavors.size()];
      auto id = service.submit(f.a.view(), f.opt);
      if (!id.ok()) {
        ++failed;
        continue;
      }
      pending.push_back(id.value());
      if (static_cast<long>(pending.size()) >= window) {
        if (!service.wait(pending.front()).status.ok()) ++failed;
        pending.pop_front();
      }
    }
    while (!pending.empty()) {
      if (!service.wait(pending.front()).status.ok()) ++failed;
      pending.pop_front();
    }
    const double seconds = total.seconds();
    const auto stats = service.stats();
    Telemetry telemetry = service.telemetry_snapshot();

    std::printf("  %-36s %14s %s\n", "metric", "value", "unit");
    emit("stream/requests", static_cast<double>(stats.completed), "req");
    emit("stream/failed", static_cast<double>(failed), "req");
    emit("stream/wall", seconds, "s");
    emit("stream/throughput", stats.completed / seconds, "req/s");
    emit("stream/pooled_contexts", static_cast<double>(stats.pooled_contexts),
         "ctx");

    std::printf("\n");
    for (const std::string key :
         {"service.queue", "evd.reduction", "evd.bulge", "evd.solver", "evd.verify"}) {
      const bool seen = std::any_of(telemetry.stages().begin(), telemetry.stages().end(),
                                    [&](const Telemetry::StageStat& st) { return st.name == key; });
      if (!seen) continue;
      emit(key + "/p50", 1e3 * telemetry.stage_quantile(key, 0.50), "ms");
      emit(key + "/p95", 1e3 * telemetry.stage_quantile(key, 0.95), "ms");
      emit(key + "/p99", 1e3 * telemetry.stage_quantile(key, 0.99), "ms");
      emit(key + "/total", telemetry.stage_seconds(key), "s");
    }
  }  // service drains + joins here

  write_json(bench::out_path("BENCH_service.json").c_str());
  return failed == 0 ? 0 : 1;
}
