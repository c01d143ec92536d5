// Paper Figure 8: total panel-QR time over a whole band reduction — TSQR
// (+ Householder reconstruction) vs the cuSOLVER-style blocked Householder
// panel vs MAGMA's panel. The paper reports ~5x speedup for TSQR.
//
// Measured rows time our real TSQR and blocked-QR panel factorizations over
// the exact panel sweep an SBR at that size performs. Modeled rows price the
// paper-scale sweep with the latency/bandwidth panel model.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/common/context.hpp"
#include "src/common/rng.hpp"
#include "src/perfmodel/a100_model.hpp"
#include "src/perfmodel/shape_trace.hpp"
#include "src/sbr/sbr.hpp"

using namespace tcevd;

namespace {

double measured_panel_sweep_s(index_t n, index_t b, sbr::PanelKind kind) {
  Rng rng(7);
  tc::Fp32Engine eng;  // panels run in scalar fp32; the context lends its arena
  Context ctx(eng);
  double total = 0.0;
  for (const auto& p : perf::trace_panels(n, b)) {
    Matrix<float> panel(p.m, b);
    fill_normal(rng, panel.view());
    Matrix<float> w(p.m, b), y(p.m, b);
    total += bench::time_once_s([&] {
      bench::require_ok(sbr::panel_factor_wy(ctx, kind, panel.view(), w.view(), y.view()),
                        "panel_factor_wy");
    });
  }
  return total;
}

}  // namespace

int main() {
  bench::header("Figure 8 — panel QR factorization time over the SBR sweep",
                "paper Fig. 8 (TSQR vs cuSOLVER vs MAGMA panels, b = 128)");

  bench::section("[modeled] paper scale (b = 128)");
  std::printf("%8s | %12s | %14s | %8s\n", "n", "TSQR (ms)", "library (ms)", "speedup");
  for (index_t n : {4096, 8192, 16384, 24576, 32768}) {
    double tsqr = 0.0, lib = 0.0;
    for (const auto& p : perf::trace_panels(n, 128)) {
      tsqr += perf::panel_time_s(p.m, 128, true);
      lib += perf::panel_time_s(p.m, 128, false);
    }
    std::printf("%8lld | %12.1f | %14.1f | %8.2f\n", static_cast<long long>(n), tsqr * 1e3,
                lib * 1e3, lib / tsqr);
  }
  std::printf("(paper reports ~5x; the model keys on kernel-launch counts: the\n"
              " library panel launches O(b) kernels per panel, TSQR fuses the tree)\n");

  bench::section("[measured] this machine (b = 16)");
  std::printf("%8s | %12s | %16s | %8s\n", "n", "TSQR (ms)", "blockedQR (ms)", "ratio");
  for (index_t n : {256, 512, 1024}) {
    const double t1 = measured_panel_sweep_s(n, 16, sbr::PanelKind::Tsqr);
    const double t2 = measured_panel_sweep_s(n, 16, sbr::PanelKind::BlockedQr);
    std::printf("%8lld | %12.1f | %16.1f | %8.2f\n", static_cast<long long>(n), t1 * 1e3,
                t2 * 1e3, t2 / t1);
  }
  std::printf("(on one CPU core both panels are flop-bound, so the ratio hovers\n"
              " near 1; the GPU gap in the paper comes from latency/parallelism,\n"
              " which the modeled rows carry)\n");
  return 0;
}
