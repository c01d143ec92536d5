// Threading policy for the packed GEMM macro-kernel.
//
// The packed GEMM (gemm_packed.hpp) fans its macro-tile loop out on the
// process-wide gemm_pool() — but only when doing so cannot oversubscribe the
// machine. The composition contract has three layers:
//
//   1. ThreadPool::on_worker_thread(): a GEMM issued from inside ANY pool
//      worker (EvdService runners) takes the serial tile loop.
//      The service pool owns the parallelism budget at its level; GEMM-level
//      threads stand down underneath it.
//   2. SerialGemmScope: an RAII guard that forces the serial tile loop on
//      this thread until the scope exits (nestable) — the serial reference
//      the pooled-vs-serial bitwise tests and kernel benchmarks compare
//      against. The second-stage chase (bulge::bulge_chase_auto) stays on
//      the calling thread under it too, so a solve inside the scope leaves
//      gemm_pool() idle.
//   3. A size floor: tiny GEMMs (2mnk below ~4 Mflop) are not worth a
//      broadcast round-trip and stay serial regardless.
//
// Determinism: pooling never changes results. Tiles are disjoint C blocks and
// the per-tile fp32 accumulation order is identical to the serial loop, so
// pooled output is bitwise-identical to serial output.
#pragma once

#include <cstdint>

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {

/// RAII guard forcing the serial tile loop for every gemm issued on this
/// thread while the scope is alive, and the serial chase in
/// bulge::bulge_chase_auto at every bulge_threads setting. Nestable: the
/// serial force lifts when the outermost scope exits.
class SerialGemmScope {
 public:
  SerialGemmScope() noexcept;
  ~SerialGemmScope();
  SerialGemmScope(const SerialGemmScope&) = delete;
  SerialGemmScope& operator=(const SerialGemmScope&) = delete;
};

/// True while any SerialGemmScope is alive on the calling thread.
bool gemm_serial_forced() noexcept;

/// Process-wide count of macro-tile fan-outs dispatched onto gemm_pool()
/// (a large gemm contributes one per macro block that actually broadcast).
/// Test hook: stress tests assert this stays flat while nested (EvdService
/// runner) GEMMs run, proving the stand-down contract holds.
std::uint64_t gemm_pool_dispatches() noexcept;

namespace detail {

/// Decide whether this gemm call may fan out on gemm_pool(): not nested under
/// a pool worker, not inside a SerialGemmScope, and big enough to amortize
/// the broadcast round-trip.
bool use_gemm_pool(index_t m, index_t n, index_t k) noexcept;

/// Bump the gemm_pool_dispatches() counter. Called once per macro-tile
/// broadcast actually dispatched onto gemm_pool() — a large gemm contributes
/// one per macro block, matching the gemm_pool_dispatches() doc above.
void count_gemm_pool_dispatch() noexcept;

}  // namespace detail
}  // namespace blas
}  // namespace tcevd
