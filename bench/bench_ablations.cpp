// Design-choice ablations beyond the paper's figures (DESIGN.md Sec. 6):
//   1. bandwidth b: SBR gets faster with larger b, bulge chasing slower
//      (the O(n b^2) second-stage cost the paper cites for capping b),
//   2. tridiagonal solver: QL vs D&C vs bisection,
//   3. EC-TCGEMM overhead factor on real kernels,
//   4. TSQR leaf size.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/common/context.hpp"
#include "src/blas/blas.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/rng.hpp"
#include "src/evd/evd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/sbr/sbr.hpp"
#include "src/evd/refine.hpp"
#include "src/tensorcore/ec_tcgemm.hpp"
#include "src/tsqr/tsqr.hpp"

using namespace tcevd;

int main() {
  bench::header("Ablations — bandwidth, solver, EC overhead, TSQR leaf",
                "DESIGN.md section 6 (beyond the paper's own figures)");

  bench::section("bandwidth b: stage-1 (SBR) vs stage-2 (bulge chasing), n = 256");
  {
    Rng rng(1);
    const index_t n = 256;
    Matrix<float> a(n, n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());
    std::printf("%6s | %10s | %12s\n", "b", "sbr (ms)", "bulge (ms)");
    for (index_t b : {4, 8, 16, 32, 64}) {
      tc::Fp32Engine eng;
      Context ctx(eng);
      sbr::SbrOptions opt;
      opt.bandwidth = b;
      opt.big_block = 4 * b;
      sbr::SbrResult res;
      const double t1 = bench::time_once_s([&] { res = *sbr::sbr_wy(a.view(), ctx, opt); });
      const double t2 = bench::time_once_s([&] {
        (void)bulge::bulge_chase_auto<float>(ctx, res.band.view(), b, nullptr,
                                             /*bulge_threads=*/1);
      });
      std::printf("%6lld | %10.1f | %12.1f\n", static_cast<long long>(b), t1 * 1e3,
                  t2 * 1e3);
    }
    std::printf("(bulge cost grows with b — why the paper keeps b at 128 despite\n"
                " bigger b making SBR GEMMs squarer)\n");
  }

  bench::section("tridiagonal solver on the two-stage pipeline, n = 256");
  {
    Rng rng(2);
    const index_t n = 256;
    Matrix<float> a(n, n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());
    auto run = [&](evd::TriSolver solver, const char* name) {
      tc::Fp32Engine eng;
      Context ctx(eng);
      evd::EvdOptions opt;
      opt.bandwidth = 16;
      opt.big_block = 64;
      opt.solver = solver;
      evd::EvdResult res;
      const double t = bench::time_once_s([&] { res = *evd::solve(a.view(), ctx, opt); });
      std::printf("%-16s total %8.1f ms (solver %7.1f ms)\n", name, t * 1e3,
                  res.timings.solver_s * 1e3);
    };
    run(evd::TriSolver::DivideConquer, "divide&conquer");
    run(evd::TriSolver::Ql, "implicit QL");
    run(evd::TriSolver::Bisection, "bisection");
  }

  bench::section("EC-TCGEMM overhead vs plain TC-GEMM (square, n = 256)");
  {
    Rng rng(3);
    const index_t n = 256;
    Matrix<float> a(n, n), b(n, n), c(n, n);
    fill_normal(rng, a.view());
    fill_normal(rng, b.view());
    const double t_tc = bench::time_s([&] {
      tc::tc_gemm(blas::Trans::No, blas::Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    });
    const double t_ec = bench::time_s([&] {
      bench::require_ok(tc::ec_tcgemm(blas::Trans::No, blas::Trans::No, 1.0f, a.view(),
                                      b.view(), 0.0f, c.view()),
                        "ec_tcgemm");
    });
    std::printf("tc-gemm %.2f ms, ec-tcgemm %.2f ms -> overhead %.2fx (theory ~3x)\n",
                t_tc * 1e3, t_ec * 1e3, t_ec / t_tc);
  }

  bench::section("eigenpair refinement cost vs accuracy (n = 192, top-4 pairs)");
  {
    Rng rng(6);
    const index_t n = 192;
    Matrix<float> a(n, n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());
    tc::TcEngine eng(tc::TcPrecision::Fp16);
    Context ctx(eng);
    evd::EvdOptions opt;
    opt.bandwidth = 16;
    opt.big_block = 64;
    opt.vectors = true;
    auto res = *evd::solve(a.view(), ctx, opt);
    std::vector<float> lam(res.eigenvalues.end() - 4, res.eigenvalues.end());
    auto vk = res.vectors.sub(0, n - 4, n, 4);
    evd::RefineResult refined;
    const double t = bench::time_once_s(
        [&] { refined = evd::refine_eigenpairs(ctx, a.view(), lam, ConstMatrixView<float>(vk)); });
    double worst = 0.0;
    for (double r : refined.residuals) worst = std::max(worst, r);
    std::printf("refine 4 pairs: %.1f ms, %d RQI steps, worst residual %.1e\n", t * 1e3,
                refined.total_iterations, worst);
  }

  bench::section("TSQR leaf size (m = 4096, b = 32)");
  {
    Rng rng(4);
    Matrix<float> a(4096, 32);
    fill_normal(rng, a.view());
    Matrix<float> q(4096, 32), r(32, 32);
    Workspace ws;
    for (index_t leaf : {64, 128, 256, 512, 1024}) {
      tsqr::TsqrOptions opts;
      opts.leaf_rows = leaf;
      const double t = bench::time_s([&] {
        bench::require_ok(tsqr::tsqr_factor(ws, a.view(), q.view(), r.view(), opts),
                          "tsqr_factor");
      });
      std::printf("leaf %5lld: %8.2f ms\n", static_cast<long long>(leaf), t * 1e3);
    }
  }
  return 0;
}
