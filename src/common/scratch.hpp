// Sizing policy for long-lived thread_local scratch vectors.
//
// Kernels that keep per-thread scratch (ec_tcgemm's accumulators) grow it to
// the largest problem seen so steady-state calls of one shape perform zero
// heap allocations. Left unchecked, that retention is unbounded: every thread
// that ever ran one large problem (service runners included) pins the large
// buffer for its lifetime. reserve_scratch
// adds a shrink valve: when the retained capacity is both large in absolute
// terms and far above the current need, the buffer is released and
// re-allocated at the needed size. The hysteresis (16x factor AND a 1 MiB
// floor) means same-shape steady state never re-allocates and mixed batches
// only pay an allocation when dropping from a genuinely oversized buffer.
#pragma once

#include <cstddef>
#include <vector>

namespace tcevd {

inline constexpr std::size_t kScratchShrinkFactor = 16;
inline constexpr std::size_t kScratchShrinkFloorBytes = std::size_t{1} << 20;

/// Ensure v.size() >= need, shrinking first when the retained capacity
/// exceeds both `need * kScratchShrinkFactor` and the absolute floor.
/// Accepts any std::vector instantiation (in particular AlignedVector, which
/// the SIMD kernel scratch users are on — see src/common/aligned.hpp).
template <typename T, typename Alloc>
void reserve_scratch(std::vector<T, Alloc>& v, std::size_t need) {
  if (v.capacity() / kScratchShrinkFactor > need &&
      v.capacity() * sizeof(T) > kScratchShrinkFloorBytes) {
    std::vector<T, Alloc>().swap(v);
  }
  if (v.size() < need) v.resize(need);
}

}  // namespace tcevd
