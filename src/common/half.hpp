// Software IEEE-754 binary16 and NVIDIA TF32 emulation.
//
// The paper's Tensor Core pipeline rounds fp32 operands to fp16 (or TF32)
// before every MMA and accumulates products in fp32. These conversions are
// the *entire* source of the 1e-4 "Tensor Core machine epsilon" the paper
// reports, so they are implemented bit-exactly here:
//
//   * binary16: 1 sign, 5 exponent, 10 mantissa bits; round-to-nearest-even,
//     gradual underflow to subnormals, overflow to +-inf.
//   * TF32:     1 sign, 8 exponent (same as fp32), 10 mantissa bits; modeled
//     as round-to-nearest-even of the fp32 mantissa to 10 bits.
//
// Operands are only ever rounded, never stored as binary16: all Tensor Core
// math in src/tensorcore rounds an fp32 value, multiplies in fp32 and
// accumulates in fp32 — exactly the HMMA data path.
#pragma once

#include <cstdint>

namespace tcevd {

/// fp32 -> binary16 bits with round-to-nearest-even.
std::uint16_t float_to_half_bits(float f) noexcept;

/// binary16 bits -> fp32 (exact).
float half_bits_to_float(std::uint16_t h) noexcept;

/// fp32 -> fp16 -> fp32 round trip: the operand truncation a Tensor Core
/// performs on an fp32 input.
inline float round_to_half(float f) noexcept {
  return half_bits_to_float(float_to_half_bits(f));
}

/// fp32 -> TF32 (10-bit mantissa, fp32 exponent range), round-to-nearest-even.
float round_to_tf32(float f) noexcept;

/// Machine epsilons used in accuracy bounds.
inline constexpr float kHalfEps = 1.0f / 1024.0f;        // 2^-10 ~ 9.77e-4
inline constexpr float kTf32Eps = 1.0f / 1024.0f;        // same mantissa width
inline constexpr float kFloatEps = 1.1920929e-7f;        // 2^-23

/// Largest finite binary16 value.
inline constexpr float kHalfMax = 65504.0f;

}  // namespace tcevd
