#include "src/blas/gemm_threading.hpp"

#include <atomic>

namespace tcevd {
namespace blas {

namespace {

thread_local int t_serial_depth = 0;
std::atomic<std::uint64_t> g_pool_dispatches{0};

// 2*m*n*k below this stays serial: a broadcast round-trip (wake + join) costs
// a few microseconds, which only pays for itself on multi-Mflop calls.
constexpr double kPoolFlopFloor = 4.0 * 1024.0 * 1024.0;

}  // namespace

SerialGemmScope::SerialGemmScope() noexcept { ++t_serial_depth; }
SerialGemmScope::~SerialGemmScope() { --t_serial_depth; }

bool gemm_serial_forced() noexcept { return t_serial_depth > 0; }

std::uint64_t gemm_pool_dispatches() noexcept {
  return g_pool_dispatches.load(std::memory_order_relaxed);
}

namespace detail {

bool use_gemm_pool(index_t m, index_t n, index_t k) noexcept {
  if (gemm_serial_forced()) return false;
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  return flops >= kPoolFlopFloor;
}

void count_gemm_pool_dispatch() noexcept {
  g_pool_dispatches.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail
}  // namespace blas
}  // namespace tcevd
