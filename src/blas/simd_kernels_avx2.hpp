// Declarations of the AVX2 kernel family (definitions in
// simd_kernels_avx2.cpp, compiled with -mavx2 -mf16c -ffp-contract=off and
// only added to the build when the compiler supports those flags — the
// TCEVD_HAVE_AVX2 define gates every reference).
//
// Contract (checked bitwise against the scalar references at dispatch time):
//   * micro-kernels: ap points into the packed A arena and is
//     32-byte aligned (the arena is 64-byte aligned and every panel offset is
//     a multiple of kMR elements); bp is broadcast-read with no alignment
//     requirement; C is read/written unaligned. Lane ii of each vector
//     accumulator is exactly the scalar acc[jj][ii] chain: separate mul and
//     add per k step, never an FMA.
//   * convert kernels: contiguous float buffers, src != dst allowed or
//     src == dst (in-place); tails below the vector width run the scalar
//     reference code path.
// These functions must only be CALLED after a cpuid probe says AVX2+F16C are
// available (simd_dispatch.cpp owns that decision).
#pragma once

#include "src/common/matrix.hpp"

#ifdef TCEVD_HAVE_AVX2

namespace tcevd::blas::simd::avx2 {

void micro_kernel_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
                      index_t ldc, index_t mr, index_t nr);
void micro_kernel_f64(index_t kc, const double* ap, const double* bp, double alpha,
                      double* c0, index_t ldc, index_t mr, index_t nr);

/// dst[i] = fp32(fp16(src[i])) with round-to-nearest-even (F16C).
void round_fp16_buffer(const float* src, float* dst, index_t n);
/// dst[i] = tf32(src[i]): RNE to a 10-bit mantissa, inf/NaN pass through.
void round_tf32_buffer(const float* src, float* dst, index_t n);
/// head[i] = round(src[i]); tail[i] = round(scale * (src[i] - head[i])),
/// with `round` the fp16 / tf32 operand rounding respectively.
void ec_split_fp16_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale);
void ec_split_tf32_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale);

}  // namespace tcevd::blas::simd::avx2

#endif  // TCEVD_HAVE_AVX2
