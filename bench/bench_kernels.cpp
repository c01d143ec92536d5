// google-benchmark microbenchmarks of the measured CPU kernels underneath
// the reproduction: BLAS-3, the emulated Tensor Core GEMMs, panels, the
// tridiagonal solvers, and the SBR variants at CPU-friendly sizes.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/context.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/common/rng.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/lapack/jacobi_evd.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/band_storage.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/ec_tcgemm.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "src/tsqr/tsqr.hpp"

namespace tcevd {
namespace {

void BM_GemmFp32(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  Matrix<float> a(n, n), b(n, n), c(n, n);
  fill_normal(rng, a.view());
  fill_normal(rng, b.view());
  for (auto _ : state) {
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmFp32)->Arg(64)->Arg(128)->Arg(256);

void BM_TcGemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(2);
  Matrix<float> a(n, n), b(n, n), c(n, n);
  fill_normal(rng, a.view());
  fill_normal(rng, b.view());
  for (auto _ : state) {
    tc::tc_gemm(blas::Trans::No, blas::Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_TcGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_EcTcGemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(3);
  Matrix<float> a(n, n), b(n, n), c(n, n);
  fill_normal(rng, a.view());
  fill_normal(rng, b.view());
  for (auto _ : state) {
    tc::ec_tcgemm(blas::Trans::No, blas::Trans::No, 1.0f, a.view(), b.view(), 0.0f,
                  c.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_EcTcGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Tsqr(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t b = 16;
  Rng rng(4);
  Matrix<float> a(m, b), q(m, b), r(b, b);
  fill_normal(rng, a.view());
  Workspace ws;
  for (auto _ : state) {
    tsqr::tsqr_factor(ws, a.view(), q.view(), r.view());
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_Tsqr)->Arg(512)->Arg(2048)->Arg(8192);

void BM_PanelFactorWy(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t b = 16;
  Rng rng(5);
  Matrix<float> a(m, b);
  fill_normal(rng, a.view());
  Matrix<float> panel(m, b), w(m, b), y(m, b);
  tc::Fp32Engine eng;
  Context ctx(eng);
  for (auto _ : state) {
    copy_matrix<float>(a.view(), panel.view());
    sbr::panel_factor_wy(ctx, sbr::PanelKind::Tsqr, panel.view(), w.view(), y.view());
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_PanelFactorWy)->Arg(512)->Arg(2048);

void BM_SbrWy(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(6);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 64;
  for (auto _ : state) {
    auto res = *sbr::sbr_wy(a.view(), ctx, opt);
    benchmark::DoNotOptimize(res.band.data());
  }
}
BENCHMARK(BM_SbrWy)->Arg(128)->Arg(256);

void BM_SbrZy(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(7);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 16;
  for (auto _ : state) {
    auto res = *sbr::sbr_zy(a.view(), ctx, opt);
    benchmark::DoNotOptimize(res.band.data());
  }
}
BENCHMARK(BM_SbrZy)->Arg(128)->Arg(256);

void BM_BulgeChase(benchmark::State& state) {
  const index_t n = state.range(0);
  const index_t bw = 16;
  Rng rng(8);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<float>(a.view(), bw);
  for (auto _ : state) {
    Matrix<float> work = a;
    auto res = bulge::bulge_chase<float>(work.view(), bw, nullptr);
    benchmark::DoNotOptimize(res.d.data());
  }
}
BENCHMARK(BM_BulgeChase)->Arg(256)->Arg(512);

void BM_Stedc(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(9);
  std::vector<double> d0(static_cast<std::size_t>(n)), e0(static_cast<std::size_t>(n - 1));
  for (auto& v : d0) v = rng.normal();
  for (auto& v : e0) v = rng.normal();
  for (auto _ : state) {
    auto d = d0;
    auto e = e0;
    Matrix<double> z(n, n);
    set_identity(z.view());
    auto zv = z.view();
    lapack::stedc<double>(d, e, &zv);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_Stedc)->Arg(128)->Arg(512);

void BM_SytrdBlocked(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(11);
  Matrix<double> a0(n, n);
  fill_normal(rng, a0.view());
  make_symmetric(a0.view());
  for (auto _ : state) {
    Matrix<double> a = a0;
    std::vector<double> d, e, tau;
    lapack::sytrd_blocked(a.view(), d, e, tau, 32);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_SytrdBlocked)->Arg(128)->Arg(384);

void BM_SytrdUnblocked(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(12);
  Matrix<double> a0(n, n);
  fill_normal(rng, a0.view());
  make_symmetric(a0.view());
  for (auto _ : state) {
    Matrix<double> a = a0;
    std::vector<double> d, e, tau;
    lapack::sytrd(a.view(), d, e, tau);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_SytrdUnblocked)->Arg(128)->Arg(384);

void BM_JacobiEvd(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(13);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  for (auto _ : state) {
    auto res = lapack::jacobi_evd<double>(a.view());
    benchmark::DoNotOptimize(res.eigenvalues.data());
  }
}
BENCHMARK(BM_JacobiEvd)->Arg(64)->Arg(128);

void BM_BulgeChaseCompact(benchmark::State& state) {
  const index_t n = state.range(0);
  const index_t bw = 16;
  Rng rng(14);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<float>(a.view(), bw);
  auto band0 = sbr::BandMatrix<float>::from_full(a.view(), bw);
  for (auto _ : state) {
    auto band = band0;
    std::vector<float> d, e;
    sbr::bulge_chase_band(band, d, e);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_BulgeChaseCompact)->Arg(256)->Arg(512);

void BM_Steqr(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(10);
  std::vector<double> d0(static_cast<std::size_t>(n)), e0(static_cast<std::size_t>(n - 1));
  for (auto& v : d0) v = rng.normal();
  for (auto& v : e0) v = rng.normal();
  for (auto _ : state) {
    auto d = d0;
    auto e = e0;
    lapack::steqr<double>(d, e, nullptr);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_Steqr)->Arg(128)->Arg(512);

// ---------------------------------------------------------------------------
// Packed GEMM sweep: GFLOP/s per trans-combo and shape, serial vs pooled.
// The shape set follows the paper's Table 1 skinniness buckets — square
// trailing updates plus the skinny inner-dimension shapes SBR actually
// issues (the TN bucket is the W^T·M trailing product, historically the
// naive-loop case). The whole binary's results land in BENCH_gemm.json (see
// main below), the perf-trajectory baseline for future PRs.
// ---------------------------------------------------------------------------

void gemm_sweep(benchmark::State& state, blas::Trans ta, blas::Trans tb, index_t m,
                index_t n, index_t k, bool pooled, bool force_scalar) {
  Rng rng(11);
  Matrix<float> a(ta == blas::Trans::No ? m : k, ta == blas::Trans::No ? k : m);
  Matrix<float> b(tb == blas::Trans::No ? k : n, tb == blas::Trans::No ? n : k);
  Matrix<float> c(m, n);
  fill_normal(rng, a.view());
  fill_normal(rng, b.view());
  for (auto _ : state) {
    std::optional<blas::simd::ScalarKernelScope> scalar;
    if (force_scalar) scalar.emplace();
    if (pooled) {
      blas::gemm(ta, tb, 1.0f, a.view(), b.view(), 0.0f, c.view());
    } else {
      blas::SerialGemmScope serial;
      blas::gemm(ta, tb, 1.0f, a.view(), b.view(), 0.0f, c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * double(m) * double(n) * double(k) * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
  state.SetLabel(force_scalar ? "scalar" : blas::simd::active_level_name());
}

void register_gemm_sweep() {
  struct Combo {
    const char* name;
    blas::Trans ta, tb;
  };
  const Combo combos[] = {{"NN", blas::Trans::No, blas::Trans::No},
                          {"NT", blas::Trans::No, blas::Trans::Yes},
                          {"TN", blas::Trans::Yes, blas::Trans::No},
                          {"TT", blas::Trans::Yes, blas::Trans::Yes}};
  struct Shape {
    const char* bucket;
    index_t m, n, k;
  };
  const Shape shapes[] = {
      {"square256", 256, 256, 256},     // small trailing block
      {"square1024", 1024, 1024, 1024}, // TN-vs-NN acceptance shape (n >= 1024)
      {"skinnyK64", 1024, 1024, 64},    // rank-nb trailing update (inner dim = nb)
      {"skinnyM64", 64, 1024, 1024},    // W^T·M panel product (few output rows)
  };
  // Third dimension: the dispatched kernel family vs forced-scalar, so every
  // sweep run carries its own same-machine SIMD-speedup baseline. The
  // dispatched leg is named after what actually resolved (avx2, or scalar
  // when the host/env disables it — in which case the two legs coincide).
  for (const Combo& tc : combos)
    for (const Shape& s : shapes)
      for (bool pooled : {false, true})
        for (bool force_scalar : {false, true}) {
          const std::string name = std::string("BM_GemmSweep/") + tc.name + "/" +
                                   s.bucket + (pooled ? "/pooled" : "/serial") +
                                   (force_scalar ? "/scalar"
                                                 : std::string("/") +
                                                       blas::simd::active_level_name());
          benchmark::RegisterBenchmark(name.c_str(), gemm_sweep, tc.ta, tc.tb, s.m, s.n,
                                       s.k, pooled, force_scalar);
        }
}

}  // namespace
}  // namespace tcevd

// Custom main (replaces benchmark_main): identical console behavior, plus
// every run mirrors its full results into BENCH_gemm.json so the GEMM sweep
// doubles as a machine-readable perf-trajectory baseline.
int main(int argc, char** argv) {
  tcevd::register_gemm_sweep();
  // Record which kernel family resolved at startup in the JSON context block,
  // so BENCH_gemm.json is self-describing about the SIMD level it measured.
  benchmark::AddCustomContext("simd_kernel", tcevd::blas::simd::active_level_name());
  benchmark::AddCustomContext("simd_reason", tcevd::blas::simd::active_level_reason());
  // Default the file output to BENCH_gemm.json (redirected by
  // TCEVD_BENCH_OUT) unless the caller picked their own --benchmark_out
  // destination/format on the command line.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=" + tcevd::bench::out_path("BENCH_gemm.json");
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
