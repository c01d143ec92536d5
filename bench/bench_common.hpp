// Shared helpers for the table/figure reproduction harnesses.
//
// Every harness prints two kinds of rows:
//   [measured] — real wall-clock numbers from this machine's CPU build
//                (small matrix sizes; absolute values are CPU-bound and not
//                comparable to the paper's A100),
//   [modeled]  — paper-scale predictions: exact GEMM shape streams from
//                src/perfmodel/shape_trace priced by the A100 throughput
//                model calibrated on the paper's own Table 1.
// The reproduction claim is about the *shape* of each curve (who wins,
// where the crossover sits), not absolute seconds; see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/context.hpp"
#include "src/common/timer.hpp"

namespace tcevd::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& name) { std::printf("\n--- %s ---\n", name.c_str()); }

/// Median-of-three wall time of a callable, in seconds.
template <typename F>
double time_s(F&& f) {
  double best[3];
  for (double& t : best) {
    Timer timer;
    f();
    t = timer.seconds();
  }
  if (best[0] > best[1]) std::swap(best[0], best[1]);
  if (best[1] > best[2]) std::swap(best[1], best[2]);
  if (best[0] > best[1]) std::swap(best[0], best[1]);
  return best[1];
}

/// Single-shot wall time (for expensive cases).
template <typename F>
double time_once_s(F&& f) {
  Timer timer;
  f();
  return timer.seconds();
}

/// Where a harness should write its BENCH_*.json mirror. Defaults to
/// `filename` in the working directory; TCEVD_BENCH_OUT, when set, names a
/// directory to collect every harness's JSON in one place (CI exports it as
/// an artifact without fishing files out of per-binary working dirs).
inline std::string out_path(const std::string& filename) {
  const char* dir = std::getenv("TCEVD_BENCH_OUT");
  if (dir == nullptr || *dir == '\0') return filename;
  std::string path(dir);
  if (path.back() != '/') path.push_back('/');
  return path + filename;
}

/// Print the per-stage wall-clock splits a context's telemetry accumulated —
/// one indented line per stage, milliseconds and call counts. The [measured]
/// sections call this after each run so the stage timers recorded throughout
/// the pipeline (evd.reduction, sbr.wy, sbr.dbr.trailing, evd.bulge, ...)
/// are actually surfaced instead of dying with the context.
inline void stage_splits(const Telemetry& telemetry, const char* indent = "    ") {
  if (telemetry.stages().empty()) return;
  for (const Telemetry::StageStat& s : telemetry.stages())
    std::printf("%s%-24s %9.2f ms  (%ld call%s)\n", indent, s.name.c_str(),
                1e3 * s.seconds, s.calls, s.calls == 1 ? "" : "s");
}

}  // namespace tcevd::bench
