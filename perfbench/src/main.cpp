// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <dense-values|dense-vectors|stream-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--tiny]
//             [--inject-nan] [--n <order>]
//
// Prints a `run-context` line, a `fingerprint` line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/common/thread_pool.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dense-values|dense-vectors|"
               "stream-mixed> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--tiny] [--inject-nan] [--n <order>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, RunConfig& cfg, const char** why) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--inject-nan") {
      cfg.inject_nan = true;
    } else if (!has_value) {
      *why = "missing value or unknown flag";
      return false;
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        *why = "--trace takes 0 or 1";
        return false;
      }
      cfg.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      cfg.trace_out = argv[++i];
    } else if (arg == "--n") {
      cfg.n = std::strtoll(argv[++i], nullptr, 10);
      if (cfg.n < 2) {
        *why = "--n takes an order of at least 2";
        return false;
      }
    } else {
      *why = "unknown flag";
      return false;
    }
  }
  if (cfg.workload != "dense-values" && cfg.workload != "dense-vectors" &&
      cfg.workload != "stream-mixed") {
    *why = "unknown workload";
    return false;
  }
  if (!have_seed || !have_seconds || !have_trace || !(cfg.seconds > 0.0)) {
    *why = "--seed, --seconds (> 0) and --trace are required";
    return false;
  }
  return true;
}

void print_context() {
  using namespace tcevd;
  const bool scalar = blas::simd::active_level() == blas::simd::Level::Scalar;
  std::printf(
      "run-context {\"simd_level\": \"%s\", \"simd_reason\": \"%s\", \"simd_demoted\": %s, "
      "\"nproc\": %d, \"gemm_pool_workers\": %d, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\"}\n",
      blas::simd::active_level_name(), blas::simd::active_level_reason(),
      scalar && blas::simd::cpu_supports_avx2() ? "true" : "false",
      ThreadPool::hardware_threads(), gemm_pool().size(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER);
  if (scalar && blas::simd::cpu_supports_avx2())
    std::fprintf(stderr,
                 "perfbench: WARNING: SIMD kernels demoted to scalar (%s); GEMM-bound metrics "
                 "read about 5x slower and must not be compared with AVX2 runs\n",
                 blas::simd::active_level_reason());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  const char* why = "";
  if (!parse(argc, argv, cfg, &why)) return usage(why);

  RunResult r;
  try {
    r = cfg.workload == "stream-mixed" ? run_stream(cfg) : run_dense(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted < 1 || r.metrics.empty()) {
    std::fprintf(stderr, "perfbench: no operation ran: %s\n", r.notes.c_str());
    return 1;
  }

  print_context();
  std::printf(
      "fingerprint {\"output_hash\": \"%016llx\", \"hashed_outputs\": %ld, \"samples\": %ld, "
      "\"hash_mismatches\": %ld, \"max_value_error\": %.3e, \"max_residual\": %.3e, "
      "\"max_orthogonality\": %.3e, \"max_bound_share\": %.3e, \"notes\": \"%s\"}\n",
      static_cast<unsigned long long>(r.output_hash), r.hashed_outputs, r.samples,
      r.hash_mismatches, r.max_value_error, r.max_residual, r.max_orthogonality,
      r.max_bound_share, r.notes.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
