// AVX2 kernel family: vector twins of the scalar reference kernels.
//
// Bitwise identity with the scalar reference is the design constraint, not a
// best-effort goal. Three rules enforce it:
//
//   1. One lane per row. Each __m256 (or __m256d pair) holds the MR=8 rows of
//      one C-tile column's accumulator. Lane ii then executes exactly the
//      scalar chain acc[jj][ii]: the same multiplies, the same adds, in the
//      same k order. Column chunking (the f64 kernel chunks columns to fit
//      the 16-register budget) re-reads the packed A panel but never touches
//      a given element's chain, so it is invisible bitwise.
//   2. Separate mul and add, never FMA. This file is compiled with
//      -mavx2 -mf16c -ffp-contract=off and WITHOUT -mfma, so the compiler
//      cannot contract _mm256_mul_ps + _mm256_add_ps into vfmadd and change
//      the rounding. The scalar reference TUs have no FMA ISA at all (no
//      -march flags; -ffp-contract=off globally as insurance).
//   3. Hardware converts only where they match the software reference. F16C
//      VCVTPS2PH/VCVTPH2PS implement RNE exactly for finite, subnormal and
//      infinite values and for the default quiet NaN; only exotic NaN
//      payloads (never produced by EVD data) can differ, and the dispatch
//      self-check (simd_dispatch.cpp) guards the whole family anyway. TF32
//      rounding has no hardware instruction, so it is re-implemented with
//      integer AVX2 as a lane-parallel transcription of round_to_tf32.
//
// Remainders: mr < 8 spills the accumulator to an aligned temp and finishes
// with the scalar writeback; n % 8 convert tails run the scalar reference.
#include "src/blas/simd_kernels_avx2.hpp"

#ifdef TCEVD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/common/half.hpp"

namespace tcevd::blas::simd::avx2 {

using packed::kMR;
using packed::kNR;

static_assert(kMR == 8, "AVX2 f32 kernels assume one 8-float vector per panel row");
static_assert(kNR == 8, "AVX2 kernels assume an 8-column register tile");

void micro_kernel_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
                      index_t ldc, index_t mr, index_t nr) {
  __m256 acc[kNR];
  for (index_t jj = 0; jj < kNR; ++jj) acc[jj] = _mm256_setzero_ps();
  for (index_t k = 0; k < kc; ++k) {
    const __m256 av = _mm256_load_ps(ap + k * kMR);
    const float* brow = bp + k * kNR;
    for (index_t jj = 0; jj < kNR; ++jj) {
      acc[jj] = _mm256_add_ps(acc[jj], _mm256_mul_ps(av, _mm256_broadcast_ss(brow + jj)));
    }
  }
  const __m256 valpha = _mm256_set1_ps(alpha);
  if (mr == kMR) {
    for (index_t jj = 0; jj < nr; ++jj) {
      float* cc = c0 + jj * ldc;
      _mm256_storeu_ps(cc,
                       _mm256_add_ps(_mm256_loadu_ps(cc), _mm256_mul_ps(valpha, acc[jj])));
    }
  } else {
    alignas(32) float tmp[kMR];
    for (index_t jj = 0; jj < nr; ++jj) {
      _mm256_store_ps(tmp, acc[jj]);
      float* cc = c0 + jj * ldc;
      for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
    }
  }
}

void micro_kernel_f64(index_t kc, const double* ap, const double* bp, double alpha,
                      double* c0, index_t ldc, index_t mr, index_t nr) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  // One panel row is two __m256d (lanes 0..3 and 4..7); chunk columns by 4.
  for (index_t j0 = 0; j0 < nr; j0 += 4) {
    __m256d lo[4];
    __m256d hi[4];
    for (index_t jj = 0; jj < 4; ++jj) {
      lo[jj] = _mm256_setzero_pd();
      hi[jj] = _mm256_setzero_pd();
    }
    for (index_t k = 0; k < kc; ++k) {
      const __m256d avlo = _mm256_load_pd(ap + k * kMR);
      const __m256d avhi = _mm256_load_pd(ap + k * kMR + 4);
      const double* brow = bp + k * kNR + j0;
      for (index_t jj = 0; jj < 4; ++jj) {
        const __m256d bv = _mm256_broadcast_sd(brow + jj);
        lo[jj] = _mm256_add_pd(lo[jj], _mm256_mul_pd(avlo, bv));
        hi[jj] = _mm256_add_pd(hi[jj], _mm256_mul_pd(avhi, bv));
      }
    }
    const index_t jend = std::min<index_t>(4, nr - j0);
    for (index_t jj = 0; jj < jend; ++jj) {
      double* cc = c0 + (j0 + jj) * ldc;
      if (mr == kMR) {
        _mm256_storeu_pd(cc,
                         _mm256_add_pd(_mm256_loadu_pd(cc), _mm256_mul_pd(valpha, lo[jj])));
        _mm256_storeu_pd(
            cc + 4, _mm256_add_pd(_mm256_loadu_pd(cc + 4), _mm256_mul_pd(valpha, hi[jj])));
      } else {
        alignas(32) double tmp[kMR];
        _mm256_store_pd(tmp, lo[jj]);
        _mm256_store_pd(tmp + 4, hi[jj]);
        for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
      }
    }
  }
}

namespace {

inline __m256 round_fp16_vec(__m256 v) {
  return _mm256_cvtph_ps(_mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

// Lane-parallel transcription of round_to_tf32 (src/common/half.cpp): RNE of
// the fp32 mantissa to 10 bits (round bit 0x1000, kept LSB 0x2000), inf/NaN
// pass through untouched.
inline __m256 round_tf32_vec(__m256 v) {
  const __m256i x = _mm256_castps_si256(v);
  const __m256i expmask = _mm256_set1_epi32(0x7f800000);
  const __m256i special = _mm256_cmpeq_epi32(_mm256_and_si256(x, expmask), expmask);
  const __m256i remmask = _mm256_set1_epi32(0x1fff);
  const __m256i rem = _mm256_and_si256(x, remmask);
  const __m256i base = _mm256_andnot_si256(remmask, x);
  const __m256i gt = _mm256_cmpgt_epi32(rem, _mm256_set1_epi32(0x1000));
  const __m256i eq = _mm256_cmpeq_epi32(rem, _mm256_set1_epi32(0x1000));
  // All-ones lane when the kept LSB (bit 13) of base is set: shift it to the
  // sign position, then arithmetic-shift it across the lane.
  const __m256i odd = _mm256_srai_epi32(_mm256_slli_epi32(base, 18), 31);
  const __m256i up = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
  const __m256i bumped = _mm256_add_epi32(base, _mm256_and_si256(up, _mm256_set1_epi32(0x2000)));
  return _mm256_castsi256_ps(_mm256_blendv_epi8(bumped, x, special));
}

}  // namespace

void round_fp16_buffer(const float* src, float* dst, index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, round_fp16_vec(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = round_to_half(src[i]);
}

void round_tf32_buffer(const float* src, float* dst, index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, round_tf32_vec(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = round_to_tf32(src[i]);
}

void ec_split_fp16_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m256 h = round_fp16_vec(v);
    _mm256_storeu_ps(head + i, h);
    _mm256_storeu_ps(tail + i,
                     round_fp16_vec(_mm256_mul_ps(vscale, _mm256_sub_ps(v, h))));
  }
  for (; i < n; ++i) {
    const float h = round_to_half(src[i]);
    head[i] = h;
    tail[i] = round_to_half(scale * (src[i] - h));
  }
}

void ec_split_tf32_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m256 h = round_tf32_vec(v);
    _mm256_storeu_ps(head + i, h);
    _mm256_storeu_ps(tail + i,
                     round_tf32_vec(_mm256_mul_ps(vscale, _mm256_sub_ps(v, h))));
  }
  for (; i < n; ++i) {
    const float h = round_to_tf32(src[i]);
    head[i] = h;
    tail[i] = round_to_tf32(scale * (src[i] - h));
  }
}

}  // namespace tcevd::blas::simd::avx2

#endif  // TCEVD_HAVE_AVX2
