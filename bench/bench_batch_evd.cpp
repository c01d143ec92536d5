// Batched EVD throughput: problems/sec of a same-shape batch pushed through
// evd::EvdService vs. runner count, on one shared engine, against the
// sequential single-solve baseline.
//
//   build/bench/bench_batch_evd [n] [batch]
//
// The scaling claim (MAGMA-batched / syevjBatched style): many same-shape
// problems on N runners with pooled pre-reserved Contexts approach N x the
// single-thread rate, because the only shared state — the GEMM engine — is
// stateless per call. Absolute numbers are CPU-bound; the curve shape
// (speedup vs. threads) is the deliverable. Each row builds its own service,
// so its time includes the runner spin-up.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "src/common/context.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/service.hpp"
#include "src/matgen/matgen.hpp"
#include "src/tensorcore/engine.hpp"

using namespace tcevd;

namespace {

/// Submit the whole batch, then wait for each request in order. Returns
/// false if any request failed.
bool run_batch(evd::EvdService& service, const std::vector<Matrix<float>>& batch,
               const evd::RequestOptions& ropt) {
  std::vector<evd::RequestId> ids;
  ids.reserve(batch.size());
  for (const Matrix<float>& a : batch) {
    StatusOr<evd::RequestId> id = service.submit(a.view(), ropt);
    if (!id.ok()) return false;
    ids.push_back(*id);
  }
  bool ok = true;
  for (evd::RequestId id : ids) ok = service.wait(id).status.ok() && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? static_cast<index_t>(std::atol(argv[1])) : 96;
  const std::size_t count = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 16;

  bench::header("Batched EVD throughput (evd::EvdService)",
                "batched-driver scaling (MAGMA batched / cuSOLVER syevjBatched analogue)");
  std::printf("batch: %zu problems, n = %lld, engine fp32, solver divide-conquer\n", count,
              (long long)n);
  const int hw = ThreadPool::hardware_threads();
  std::printf("hardware threads: %d%s\n", hw,
              hw == 1 ? " (single core: no parallel speedup is possible here)" : "");

  Rng rng(4096);
  std::vector<Matrix<float>> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(matgen::generate_f(matgen::MatrixType::Geo, n, 1e3, rng));

  tc::Fp32Engine engine;
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 16;
  ropt.evd.big_block = 32;

  // Sequential baseline: one Context, one problem at a time.
  const double seq_s = bench::time_once_s([&] {
    Context ctx(engine);
    for (const auto& a : batch) (void)*evd::solve(a.view(), ctx, ropt.evd);
  });
  const double seq_rate = double(count) / seq_s;
  bench::section("problems/sec vs. runner threads");
  std::printf("%8s %12s %12s %10s\n", "threads", "seconds", "problems/s", "speedup");
  std::printf("%8s %12.3f %12.2f %10s\n", "seq", seq_s, seq_rate, "1.00x");

  // Oversubscribed rows (threads > cores) are still run: they demonstrate
  // the pool degrades gracefully rather than deadlocking, and on multi-core
  // hosts the table is the scaling curve batched solving exists for.
  for (int threads : {1, 2, 4, 8}) {
    evd::ServiceOptions sopt;
    sopt.num_threads = threads;
    bool ok = false;
    const double batch_s = bench::time_once_s([&] {
      evd::EvdService service(engine, sopt);
      ok = run_batch(service, batch, ropt);
    });
    if (!ok) {
      std::printf("%8d %12s %12s %10s\n", threads, "FAILED", "-", "-");
      return 1;
    }
    const double rate = double(count) / batch_s;
    std::printf("%8d %12.3f %12.2f %9.2fx\n", threads, batch_s, rate, rate / seq_rate);
  }

  bench::section("merged per-stage telemetry (last run)");
  evd::EvdService service(engine);
  const bool ok = run_batch(service, batch, ropt);
  const Telemetry telemetry = service.telemetry_snapshot();
  for (const auto& s : telemetry.stages())
    std::printf("  %-24s %9.3f s across %ld calls\n", s.name.c_str(), s.seconds, s.calls);
  std::printf("  runners: %d\n", service.num_threads());
  return ok ? 0 : 1;
}
