// Scalar reference micro-kernels for the packed GEMM pipeline.
//
// These are THE numerical definition of a packed-GEMM micro-tile: every
// other implementation (the AVX2 family in simd_kernels_avx2.cpp) must be
// bitwise-identical to these loops, which is enforced twice — once by the
// dispatch-time self-check (simd_dispatch.cpp installs a vector kernel only
// after comparing it bitwise against these on probe problems) and once by the
// `gemmfast` SIMD-vs-scalar test sweep.
//
// The bitwise contract rests on the per-element operation sequence: each C
// element's accumulator performs, for k = 0..kc-1, one fp multiply
// fl(a(i,k)*b(k,j)) followed by one fp add into the accumulator, then one
// multiply by alpha and one add into C. A SIMD kernel that assigns one vector
// lane per row of the MR x NR tile and uses separate mul/add instructions
// executes exactly this sequence per lane. This is also why the build pins
// -ffp-contract=off (top-level CMakeLists): letting the compiler contract
// a*b+acc into an FMA would change the scalar reference's rounding and break
// the lane-per-row equivalence argument.
#pragma once

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {
namespace packed {

// Register-tile shape shared by the pack format, the scalar kernels, and the
// SIMD kernels. kMR = 8 is one 8-float AVX2 vector (one lane per row);
// kNR = 8 gives the SIMD kernel eight independent accumulator chains, enough
// to cover the 3-4 cycle fp add latency at 2 issues/cycle. (Widening NR never
// changes results: a C element's accumulation chain depends only on its own
// k-order, not on which tile neighbours share the micro-kernel call.)
inline constexpr index_t kMR = 8;
inline constexpr index_t kNR = 8;

/// acc(MR x NR) += sum_k apanel(:, k) bpanel(k, :); then C += alpha * acc.
template <typename T>
void micro_kernel_scalar(index_t kc, const T* ap, const T* bp, T alpha, T* c0, index_t ldc,
                         index_t mr, index_t nr) {
  T acc[kNR][kMR] = {};
  for (index_t k = 0; k < kc; ++k) {
    const T* arow = ap + k * kMR;
    const T* brow = bp + k * kNR;
    for (index_t jj = 0; jj < kNR; ++jj) {
      const T bv = brow[jj];
      for (index_t ii = 0; ii < kMR; ++ii) acc[jj][ii] += arow[ii] * bv;
    }
  }
  for (index_t jj = 0; jj < nr; ++jj) {
    T* cc = c0 + jj * ldc;
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * acc[jj][ii];
  }
}

}  // namespace packed
}  // namespace blas
}  // namespace tcevd
