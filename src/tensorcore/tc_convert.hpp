// Tensor Core operand conversion: the ONE home for fp16/TF32 operand
// rounding and the EC head–tail split.
//
// tc_gemm's packing and round_matrix, mma_tile's fragment loop and
// ec_tcgemm's head–tail split all round through round_operand /
// round_buffer / ec_split_buffer here, which also gives every call site the
// runtime-dispatched SIMD convert kernels for free: the batch forms route
// through simd::active_kernels() (bitwise-pinned to the scalar reference in
// src/common/half.cpp, see simd_dispatch.hpp) and fall back to the scalar
// loop when no vector kernel is installed.
//
// The PackTransform functors expose both the per-element operator() the
// packed-GEMM pack loops require and the batch apply() fast path they prefer
// (gemm_packed.hpp's HasBatchApply detection).
#pragma once

#include "src/blas/simd_dispatch.hpp"
#include "src/common/aligned.hpp"
#include "src/common/half.hpp"
#include "src/common/matrix.hpp"

namespace tcevd::tc {

/// Input precision the emulated Tensor Core ingests.
enum class TcPrecision {
  Fp16,  ///< binary16 operands (machine eps ~ 9.8e-4)
  Tf32,  ///< TF32 operands (same 10-bit mantissa, fp32 exponent range)
};

/// Round an fp32 value to the given Tensor Core input precision.
inline float round_operand(float v, TcPrecision prec) noexcept {
  return prec == TcPrecision::Fp16 ? round_to_half(v) : round_to_tf32(v);
}

/// dst[i] = round_operand(src[i], prec) for a contiguous run; src == dst
/// (in-place) is allowed.
inline void round_buffer(const float* src, float* dst, index_t n, TcPrecision prec) {
  const blas::simd::KernelTable& kt = blas::simd::active_kernels();
  const blas::simd::RoundBufferFn fn =
      prec == TcPrecision::Fp16 ? kt.round_fp16 : kt.round_tf32;
  if (fn != nullptr) {
    fn(src, dst, n);
    return;
  }
  for (index_t i = 0; i < n; ++i) dst[i] = round_operand(src[i], prec);
}

/// head[i] = round(src[i]); tail[i] = round(scale * (src[i] - head[i])) — the
/// EC decomposition — for a contiguous run.
inline void ec_split_buffer(const float* src, float* head, float* tail, index_t n,
                            float scale, TcPrecision prec) {
  const blas::simd::KernelTable& kt = blas::simd::active_kernels();
  const blas::simd::EcSplitBufferFn fn =
      prec == TcPrecision::Fp16 ? kt.ec_split_fp16 : kt.ec_split_tf32;
  if (fn != nullptr) {
    fn(src, head, tail, n, scale);
    return;
  }
  for (index_t i = 0; i < n; ++i) {
    const float h = round_operand(src[i], prec);
    head[i] = h;
    tail[i] = round_operand(scale * (src[i] - h), prec);
  }
}

/// PackTransform rounding each operand element to the TC input precision as
/// it is packed (fragment-load rounding): the tc_gemm / EC-head operand
/// transform.
struct RoundTransform {
  TcPrecision prec;
  float operator()(float v) const { return round_operand(v, prec); }
  void apply(const float* src, float* dst, index_t n) const {
    round_buffer(src, dst, n, prec);
  }
};

/// PackTransform producing only the scaled residual round(s * (v - head)).
/// The batch form stages the (discarded) heads in a small stack buffer so the
/// split kernel still does the work in one vector pass.
struct EcTailTransform {
  TcPrecision prec;
  float scale;
  float operator()(float v) const {
    const float h = round_operand(v, prec);
    return round_operand(scale * (v - h), prec);
  }
  void apply(const float* src, float* dst, index_t n) const {
    constexpr index_t kChunk = 256;
    alignas(kKernelAlignment) float head[kChunk];
    for (index_t i = 0; i < n; i += kChunk) {
      const index_t c = n - i < kChunk ? n - i : kChunk;
      ec_split_buffer(src + i, head, dst + i, c, scale, prec);
    }
  }
};

}  // namespace tcevd::tc
