#include "src/blas/abft.hpp"

#include <string>

#include "src/common/recovery.hpp"

namespace tcevd::blas::abft {

namespace {
thread_local int t_depth = 0;
std::atomic<std::uint64_t> g_tiles_checked{0};
std::atomic<std::uint64_t> g_tiles_detected{0};
}  // namespace

AbftScope::AbftScope() noexcept { ++t_depth; }

AbftScope::~AbftScope() { --t_depth; }

bool enabled() noexcept { return t_depth > 0; }

std::uint64_t tiles_checked() noexcept {
  return g_tiles_checked.load(std::memory_order_relaxed);
}
std::uint64_t tiles_detected() noexcept {
  return g_tiles_detected.load(std::memory_order_relaxed);
}

void finish_call(const CallStats& stats) {
  const long checked = stats.checked;
  const long detected = stats.detected.load(std::memory_order_relaxed);
  g_tiles_checked.fetch_add(static_cast<std::uint64_t>(checked), std::memory_order_relaxed);
  if (detected == 0) return;
  g_tiles_detected.fetch_add(static_cast<std::uint64_t>(detected), std::memory_order_relaxed);
  const std::int64_t packed = stats.first_tile.load(std::memory_order_relaxed);
  const index_t gi = static_cast<index_t>(packed >> 31);
  const index_t gj = static_cast<index_t>(packed & ((std::int64_t{1} << 31) - 1));
  recovery::note("blas.abft",
                 "gemm: checksum mismatch in " + std::to_string(detected) +
                     " C tile(s), first at (" + std::to_string(gi) + ", " +
                     std::to_string(gj) + "); recomputed corrupted tile(s) in fp32");
}

}  // namespace tcevd::blas::abft
