// Paper Figure 10: overall band-reduction time of the WY-based algorithm
// (plain TC GEMMs), the WY algorithm with error-corrected TC GEMMs, the
// ZY-based algorithm on TC, and the MAGMA baseline.
//
// Paper findings at large n: WY-TC up to 3.7x over MAGMA, ~1.3x over ZY-TC;
// WY with EC-TCGEMM still ~1.3x over MAGMA.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/common/context.hpp"
#include "src/common/rng.hpp"
#include "src/perfmodel/a100_model.hpp"
#include "src/perfmodel/shape_trace.hpp"
#include "src/sbr/sbr.hpp"

using namespace tcevd;

namespace {

double panels_s(index_t n, index_t b, bool tsqr) {
  double t = 0.0;
  for (const auto& p : perf::trace_panels(n, b)) t += perf::panel_time_s(p.m, b, tsqr);
  return t;
}

double modeled_magma_s(index_t n, index_t b) {
  double t = 0.0;
  auto shapes = perf::trace_sbr_zy(n, b);
  for (std::size_t i = 0; i < shapes.size(); i += 5) {
    for (int j = 0; j < 3; ++j)
      t += perf::gemm_time_s(perf::Device::Sgemm, shapes[i + j].m, shapes[i + j].n,
                             shapes[i + j].k);
    t += 0.5 * (perf::gemm_time_s(perf::Device::Sgemm, shapes[i + 3].m, shapes[i + 3].n,
                                  shapes[i + 3].k) +
                perf::gemm_time_s(perf::Device::Sgemm, shapes[i + 4].m, shapes[i + 4].n,
                                  shapes[i + 4].k));
  }
  return t + panels_s(n, b, false);
}

}  // namespace

int main() {
  bench::header("Figure 10 — overall SBR: WY / WY+EC / ZY / MAGMA",
                "paper Fig. 10 (b = 128, nb = 1024)");

  const index_t b = 128, nb = 1024;
  bench::section("[modeled] paper scale, seconds (speedup = MAGMA / WY-TC)");
  std::printf("%8s | %8s %8s %8s %8s | %8s\n", "n", "WY-TC", "WY-EC", "ZY-TC", "MAGMA",
              "speedup");
  for (index_t n : {4096, 8192, 16384, 24576, 32768}) {
    auto wy = perf::trace_sbr_wy(n, b, nb, /*cache_oa=*/true);
    auto zy = perf::trace_sbr_zy(n, b);
    const double t_wy =
        perf::total_time_s(perf::Device::TensorCore, wy) + panels_s(n, b, true);
    // EC-TCGEMM: three TC GEMMs per logical GEMM (head + two corrections).
    const double t_ec =
        3.0 * perf::total_time_s(perf::Device::TensorCore, wy) + panels_s(n, b, true);
    const double t_zy =
        perf::total_time_s(perf::Device::TensorCore, zy) + panels_s(n, b, true);
    const double t_mg = modeled_magma_s(n, b);
    std::printf("%8lld | %8.2f %8.2f %8.2f %8.2f | %8.2f\n", static_cast<long long>(n),
                t_wy, t_ec, t_zy, t_mg, t_mg / t_wy);
  }
  std::printf("\nexpected shape: WY-TC fastest at large n (paper: up to 3.7x over\n"
              "MAGMA, ~1.3x over ZY-TC beyond n ~ 20000); WY-EC costs ~3x the GEMM\n"
              "time yet stays at or below the MAGMA baseline (paper: ~1.3x faster).\n");

  bench::section("[modeled] detached band reduction: narrow bands, same nb = 1024");
  // DBR keeps every trailing-update GEMM at inner dimension nb while the
  // band handed to bulge chasing narrows to b, so stage one stays near the
  // coupled optimum as b drops. The coupled column forces nb = b — what
  // shrinking the band costs when the blocksize must follow it.
  std::printf("%8s %6s | %10s %10s | %8s\n", "n", "b", "DBR-TC", "coupled", "ratio");
  for (index_t n : {8192, 16384, 32768}) {
    for (index_t bw : {16, 32, 128}) {
      auto dbr = perf::trace_sbr_dbr(n, bw, nb, /*cache_oa=*/true);
      auto coupled = perf::trace_sbr_wy(n, bw, bw, /*cache_oa=*/true);
      const double t_dbr =
          perf::total_time_s(perf::Device::TensorCore, dbr) + panels_s(n, bw, true);
      const double t_cp =
          perf::total_time_s(perf::Device::TensorCore, coupled) + panels_s(n, bw, true);
      std::printf("%8lld %6lld | %10.2f %10.2f | %8.2f\n", static_cast<long long>(n),
                  static_cast<long long>(bw), t_dbr, t_cp, t_cp / t_dbr);
    }
  }

  bench::section("[measured] this machine (n = 256, b = 16, nb = 64), wall ms");
  {
    Rng rng(11);
    const index_t n = 256;
    Matrix<float> a(n, n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());
    sbr::SbrOptions wy;
    wy.bandwidth = 16;
    wy.big_block = 64;
    sbr::SbrOptions zy;
    zy.bandwidth = 16;
    sbr::SbrOptions magma = zy;
    magma.zy_use_syr2k = true;

    tc::TcEngine e_tc;
    Context c_tc(e_tc);
    tc::EcTcEngine e_ec;
    Context c_ec(e_ec);
    tc::TcEngine e_tc2;
    Context c_tc2(e_tc2);
    tc::Fp32Engine e_fp;
    Context c_fp(e_fp);
    std::printf("WY  tc-fp16  : %8.1f\n",
                1e3 * bench::time_once_s([&] { (void)sbr::sbr_wy(a.view(), c_tc, wy); }));
    bench::stage_splits(c_tc.telemetry());
    std::printf("WY  ectc-fp16: %8.1f\n",
                1e3 * bench::time_once_s([&] { (void)sbr::sbr_wy(a.view(), c_ec, wy); }));
    bench::stage_splits(c_ec.telemetry());
    std::printf("ZY  tc-fp16  : %8.1f\n",
                1e3 * bench::time_once_s([&] { (void)sbr::sbr_zy(a.view(), c_tc2, zy); }));
    bench::stage_splits(c_tc2.telemetry());
    std::printf("ZY  fp32+syr2k (MAGMA-like): %8.1f\n",
                1e3 * bench::time_once_s([&] { (void)sbr::sbr_zy(a.view(), c_fp, magma); }));
    bench::stage_splits(c_fp.telemetry());

    // Detached variant at the same nb with a 4x narrower band: stage one
    // stays in WY territory, the band handed downstream shrinks to b = 4.
    sbr::SbrOptions dbr;
    dbr.bandwidth = 4;
    dbr.big_block = 64;
    tc::TcEngine e_dbr;
    Context c_dbr(e_dbr);
    std::printf("DBR tc-fp16 (b=4, nb=64): %8.1f\n",
                1e3 * bench::time_once_s([&] { (void)sbr::sbr_dbr(a.view(), c_dbr, dbr); }));
    bench::stage_splits(c_dbr.telemetry());
  }

  return 0;
}
