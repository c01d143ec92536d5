// Runtime SIMD dispatch for the packed GEMM micro-kernels and the Tensor
// Core operand-convert loops — pinned bitwise to the scalar reference.
//
// Resolution happens once, at first use, in three steps:
//
//   1. env override: TCEVD_SIMD=off|scalar forces the scalar reference;
//      TCEVD_SIMD=avx2 requests the AVX2 family; unset/auto auto-detects.
//   2. cpuid probe: the AVX2 family needs AVX2 + F16C (fp16 converts).
//   3. bitwise self-check: before a vector kernel table is installed it is
//      run against the scalar reference (gemm_microkernel_scalar.hpp,
//      src/common/half.cpp) on probe problems covering remainder tiles,
//      fp16 subnormal/overflow boundaries and FMA-sensitive random data; ANY
//      bit of disagreement falls the process back to scalar. This is what
//      "pinned bitwise" means operationally: a compiler that contracted the
//      vector mul/add into an FMA, or hardware whose conversions deviate
//      from the software reference, is detected and benched, never trusted.
//
// The result is cached in a process-wide table; `active_kernels()` layers a
// ScalarKernelScope force on top (bench baselines, SIMD-vs-scalar tests).
// Null function pointers in the table mean "run the scalar reference" — the
// scalar path never routes through a pointer, so it stays inlinable.
//
// Telemetry: every packed-GEMM entry call records which kernel family served
// it (dispatch_count), the analogue of gemm_pool_dispatches() for the
// threading layer.
#pragma once

#include <cstdint>

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {
namespace simd {

enum class Level : int { Scalar = 0, Avx2 = 1 };

using MicroKernelF32 = void (*)(index_t kc, const float* ap, const float* bp, float alpha,
                                float* c0, index_t ldc, index_t mr, index_t nr);
using MicroKernelF64 = void (*)(index_t kc, const double* ap, const double* bp, double alpha,
                                double* c0, index_t ldc, index_t mr, index_t nr);
using RoundBufferFn = void (*)(const float* src, float* dst, index_t n);
using EcSplitBufferFn = void (*)(const float* src, float* head, float* tail, index_t n,
                                 float scale);

/// Resolved kernel family. A null entry means "no vector kernel — run the
/// scalar reference inline".
struct KernelTable {
  MicroKernelF32 gemm_f32 = nullptr;
  MicroKernelF64 gemm_f64 = nullptr;
  RoundBufferFn round_fp16 = nullptr;
  RoundBufferFn round_tf32 = nullptr;
  EcSplitBufferFn ec_split_fp16 = nullptr;
  EcSplitBufferFn ec_split_tf32 = nullptr;
  Level level = Level::Scalar;
  const char* name = "scalar";
};

/// The process-wide table, resolved and cached at first use.
const KernelTable& kernels() noexcept;

/// Table in effect for the calling context right now: the all-scalar table
/// while any ScalarKernelScope is alive, kernels() otherwise.
const KernelTable& active_kernels() noexcept;

Level active_level() noexcept;
const char* active_level_name() noexcept;
/// Human-readable reason for the resolved level ("auto-detected",
/// "TCEVD_SIMD=off", "bitwise self-check failed", ...).
const char* active_level_reason() noexcept;

/// True when the running CPU reports AVX2 + F16C.
bool cpu_supports_avx2() noexcept;
/// True when this binary contains the AVX2 kernel family at all.
bool compiled_with_avx2() noexcept;

/// Process-wide count of packed-GEMM dispatches served by `level` since
/// start. One dispatch == one gemm_packed call, not one micro-tile.
std::uint64_t dispatch_count(Level level) noexcept;

/// RAII guard forcing the scalar reference kernels process-wide while alive
/// (pool workers look the table up per tile, so they must see the caller's
/// force and it cannot be thread-local — unlike abft::AbftScope, whose
/// choice the calling thread hands to its workers in the tile context).
/// Nestable; used by the bench baseline rows and the SIMD-vs-scalar bitwise
/// tests.
class ScalarKernelScope {
 public:
  ScalarKernelScope() noexcept;
  ~ScalarKernelScope();
  ScalarKernelScope(const ScalarKernelScope&) = delete;
  ScalarKernelScope& operator=(const ScalarKernelScope&) = delete;
};

/// True while any ScalarKernelScope is alive.
bool scalar_kernels_forced() noexcept;

namespace detail {

/// Pure resolution policy, unit-testable without process state: decide the
/// level from the TCEVD_SIMD value (nullptr == unset), CPU capability, and
/// the self-check verdict. `reason` receives a static string.
Level resolve_level(const char* env_value, bool cpu_avx2, bool selfcheck_ok,
                    const char** reason) noexcept;

/// Bump the per-level dispatch counter (one per packed-GEMM entry call).
void record_dispatch(Level level) noexcept;

/// Re-run resolution (re-reads TCEVD_SIMD, re-probes, re-self-checks).
/// Test-only: callers must guarantee no GEMM is concurrently in flight.
void refresh_for_testing();

}  // namespace detail
}  // namespace simd
}  // namespace blas
}  // namespace tcevd
