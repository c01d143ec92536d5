// Batched solve: a service-shaped workload — a batch of same-shape symmetric
// problems solved concurrently by one evd::EvdService on one shared
// Tensor-Core engine, with per-request results and one merged telemetry view.
//
//   build/examples/batch_solve
#include <cstdio>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/timer.hpp"
#include "src/evd/service.hpp"
#include "src/matgen/matgen.hpp"

using namespace tcevd;

int main() {
  const index_t n = 128;
  const std::size_t count = 12;

  // 1. A batch of same-shape problems, as a request queue would deliver them.
  Rng rng(7);
  std::vector<Matrix<float>> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(matgen::generate_f(matgen::MatrixType::Arith, n, 1e3, rng));

  // 2. One engine shared by every runner (engines are stateless per call);
  //    each in-flight request gets its own pooled, pre-reserved Context.
  tc::EcTcEngine engine(tc::TcPrecision::Fp16);
  evd::ServiceOptions sopt;
  sopt.num_threads = 4;
  evd::EvdService service(engine, sopt);

  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 16;
  ropt.evd.big_block = 64;
  ropt.evd.vectors = true;

  // 3. Submit everything, then claim the results in order. A request fails
  //    on its own: check each status, then use the values.
  Timer wall;
  std::vector<evd::RequestId> ids;
  bool ok = true;
  for (const Matrix<float>& a : batch) {
    StatusOr<evd::RequestId> id = service.submit(a.view(), ropt);
    if (!id.ok()) {
      std::printf("  submit FAILED: %s\n", id.status().to_string().c_str());
      return 1;
    }
    ids.push_back(*id);
  }
  std::vector<evd::RequestResult> results;
  for (evd::RequestId id : ids) results.push_back(service.wait(id));
  const double wall_s = wall.seconds();
  std::printf("batch: %zu problems of n=%lld on %d runners, %.1f ms wall (%.1f problems/s)\n",
              count, (long long)n, service.num_threads(), wall_s * 1e3, double(count) / wall_s);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const evd::RequestResult& r = results[i];
    if (!r.status.ok()) {
      std::printf("  problem %zu FAILED: %s\n", i, r.status.to_string().c_str());
      ok = false;
      continue;
    }
    const double resid =
        evd::eigenpair_residual(batch[i].view(), r.eigenvalues, r.vectors.view());
    if (i < 3)
      std::printf("  problem %zu: runner %d, %.1f ms, lambda in [%.4f, %.4f], resid %.1e\n",
                  i, r.worker, r.seconds * 1e3, r.eigenvalues.front(), r.eigenvalues.back(),
                  resid);
    ok = ok && resid < 1e-2;
  }

  // 4. The service snapshot merges every runner Context: the queue wait
  //    (service.queue) and the per-problem evd.* stages, each with quantiles.
  const Telemetry telemetry = service.telemetry_snapshot();
  std::printf("merged stage telemetry:\n");
  for (const auto& s : telemetry.stages())
    std::printf("  %-24s %8.1f ms across %ld calls, p99 %.2f ms\n", s.name.c_str(),
                s.seconds * 1e3, s.calls, telemetry.stage_quantile(s.name, 0.99) * 1e3);
  if (!telemetry.recovery().empty())
    std::printf("recovery events: %zu\n", telemetry.recovery().size());
  std::printf("ec-tc fp32 fallbacks (shared atomic counter): %ld\n", engine.fp32_fallbacks());
  return ok ? 0 : 1;
}
