// Bulge-chasing lane scaling: the one compact chase, through the solve
// drivers' entry point bulge_chase_auto, at bulge_threads = 1, 2 and 4 over
// an (n, bandwidth) grid matching bench_dbr's shapes, eigenvalues only and
// accumulating Q (plus the n = 2048 paper-direction point).
//
// Rows are [measured] wall clock on this machine; each is mirrored into
// BENCH_bulge.json for the perf-trajectory tooling. The wavefront is
// bitwise-pinned to the serial rotation sequence (ctest label `bulge`), so
// every speedup in this table is free of accuracy caveats — the outputs are
// identical to the last bit.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sbr/band.hpp"
#include "src/tensorcore/engine.hpp"

namespace {

using namespace tcevd;

constexpr int kLanes[3] = {1, 2, 4};  // bulge_threads settings

struct Row {
  std::string name;
  double lanes_s[3] = {0.0, 0.0, 0.0};
};

std::vector<Row> g_rows;

void emit(const Row& row) {
  const double s4 = row.lanes_s[2] > 0.0 ? row.lanes_s[0] / row.lanes_s[2] : 0.0;
  std::printf("  %-24s %9.2f %9.2f %9.2f ms   x%.2f\n", row.name.c_str(), row.lanes_s[0] * 1e3,
              row.lanes_s[1] * 1e3, row.lanes_s[2] * 1e3, s4);
  g_rows.push_back(row);
}

Matrix<float> random_band(index_t n, index_t bw, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<float>(a.view(), bw);
  return a;
}

void sweep(index_t n, const std::vector<index_t>& bandwidths, bool with_q) {
  bench::section("band -> tridiagonal, n = " + std::to_string(n) +
                 (with_q ? " (accumulating Q)" : " (eigenvalues only)"));
  tc::Fp32Engine eng;
  Context ctx(eng);
  Matrix<float> q(with_q ? n : 0, with_q ? n : 0);
  for (index_t bw : bandwidths) {
    if (bw >= n) continue;
    const auto a = random_band(n, bw, 42 + static_cast<std::uint64_t>(n + bw));
    Row row;
    row.name = "bulge/n=" + std::to_string(n) + "/bw=" + std::to_string(bw) +
               (with_q ? "/q" : "");
    for (int li = 0; li < 3; ++li) {
      auto chase = [&] {
        if (with_q) set_identity(q.view());
        MatrixView<float> qv = q.view();
        (void)bulge::bulge_chase_auto<float>(ctx, a.view(), bw, with_q ? &qv : nullptr,
                                             kLanes[li]);
      };
      chase();  // warm the arena and the pool outside the timed run
      row.lanes_s[li] = bench::time_once_s(chase);
    }
    emit(row);
  }
  bench::stage_splits(ctx.telemetry());
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
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seconds\": %.9f, \"lanes2_s\": %.9f, "
                 "\"lanes4_s\": %.9f}%s\n",
                 r.name.c_str(), r.lanes_s[0], r.lanes_s[1], r.lanes_s[2],
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", g_rows.size(), path);
}

}  // namespace

int main() {
  bench::header("bulge chasing: compact chase at bulge_threads = 1 / 2 / 4",
                "docs/ALGORITHMS.md §14; Ringoot et al. 2510.12705, "
                "Rodríguez-Sánchez et al. 1709.00302");
  std::printf("  %-24s %9s %9s %9s      %s\n", "case", "1 lane", "2 lanes", "4 lanes", "1/4");

  const int hw = ThreadPool::hardware_threads();
  if (hw < 4)
    std::printf("\n  NOTE: this machine exposes %d hardware thread%s — gemm_pool() offers\n"
                "  fewer lanes than requested, so the wider rows repeat narrower ones.\n"
                "  The bitwise-equality guarantee is hardware-independent.\n",
                hw, hw == 1 ? "" : "s");

  // bench_dbr's grid shapes.
  sweep(256, {4, 8, 16, 32}, /*with_q=*/false);
  sweep(512, {2, 4, 8, 16, 32}, /*with_q=*/false);
  // The n = 2048 values-only paper-direction point.
  sweep(2048, {2, 8}, /*with_q=*/false);
  // Vectors solves: every rotation also updates two columns of the n x n Q.
  sweep(256, {2, 8, 32}, /*with_q=*/true);
  sweep(1024, {32}, /*with_q=*/true);

  write_json(bench::out_path("BENCH_bulge.json").c_str());
  return 0;
}
