// Transpose-aware packed GEMM pipeline with fused per-element transforms.
//
// One BLIS-style blocked kernel serves every op(A)/op(B) combination: the
// packing routines read straight through the transpose, so C = op(A)·op(B)
// never materializes an intermediate matrix. Packing also applies a
// per-element PackTransform functor, which is how the tensor-core emulation
// fuses operand rounding (fp16 / tf32 / EC head–tail splitting) into the one
// pass it already makes over the operands — see src/tensorcore/tc_gemm.cpp
// and ec_tcgemm.cpp.
//
// Threading: the macro-tile loop fans out over disjoint C tiles on gemm_pool()
// via ThreadPool::try_broadcast (allocation-free), subject to the policy in
// gemm_threading.hpp. Packing stays on the calling thread; workers only read
// the packed panels (the broadcast handshake provides the happens-before
// edges). Because tiles are disjoint and the per-tile fp32/fp64 accumulation
// order is untouched, pooled results are bitwise-identical to serial ones.
//
// Allocation discipline: pack buffers are thread_local and sized once at
// first use, so a steady-state call performs zero heap allocations whether it
// runs serial or pooled. The arenas are 64-byte aligned (AlignedVector) so
// the SIMD micro-kernels can use aligned vector loads on the packed panels.
//
// SIMD: the micro-kernels route through simd::active_kernels() — a runtime
// dispatch table resolved once from TCEVD_SIMD / cpuid / a bitwise
// self-check (src/blas/simd_dispatch.hpp). The scalar reference lives in
// gemm_microkernel_scalar.hpp; any vector kernel the table installs is
// bitwise-identical to it, so nothing downstream can observe which family
// ran except the dispatch_count telemetry.
//
// ABFT (see src/blas/abft.hpp): when an AbftScope is active, every C
// micro-tile is verified against a column-checksum invariant computed from
// the packed A panel and recomputed in place on mismatch — detect, locate,
// recompute — before it is applied to C. The ABFT tile path accumulates into
// a private buffer holding exactly the value the direct path would have
// added, so clean results are bitwise-identical with ABFT on or off.
//
// These entry points do NOT touch the FlopCounter — callers (blas::gemm,
// tc_gemm, ec_tcgemm, tc_syr2k) account for their own logical flops.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/common/aligned.hpp"
#include "src/common/fault.hpp"
#include "src/common/thread_pool.hpp"

namespace tcevd {
namespace blas {

/// Default PackTransform: elements pass through untouched.
struct IdentityTransform {
  template <typename T>
  T operator()(T v) const {
    return v;
  }
};

namespace packed {

// Cache-blocking parameters (BLIS-style). The register-tile shape kMR x kNR
// lives in gemm_microkernel_scalar.hpp next to the kernels it defines. A
// packs into MR-row panels, B into NR-column panels, k-major within each
// panel, so the micro-kernel streams contiguous memory with an MR x NR
// accumulator in registers; MC/KC/NC keep the packed panels cache-resident.
inline constexpr index_t kMC = 128;
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 1024;

inline constexpr std::size_t kApackElems = static_cast<std::size_t>(kMC + kMR) * kKC;
inline constexpr std::size_t kBpackElems = static_cast<std::size_t>(kKC) * (kNC + kNR);

/// Thread-local pack storage, sized once per thread at first use. The second
/// pair (a2/b2) backs the dual-operand kernels (EC head–tail split packing,
/// the syr2k product pair). The arenas are 64-byte aligned: the AVX2 kernels
/// aligned-load the packed A panels, legal because every panel/micro-panel
/// offset into the arena is a multiple of kMR elements.
template <typename T>
struct PackBuffers {
  AlignedVector<T> a, b, a2, b2;
  PackBuffers() : a(kApackElems), b(kBpackElems), a2(kApackElems), b2(kBpackElems) {
    TCEVD_CHECK(reinterpret_cast<std::uintptr_t>(a.data()) % kKernelAlignment == 0 &&
                    reinterpret_cast<std::uintptr_t>(b.data()) % kKernelAlignment == 0 &&
                    reinterpret_cast<std::uintptr_t>(a2.data()) % kKernelAlignment == 0 &&
                    reinterpret_cast<std::uintptr_t>(b2.data()) % kKernelAlignment == 0,
                "pack arenas must be 64-byte aligned for the SIMD kernels");
  }
};

// The panel-offset argument above: (kMR * sizeof(T)) must divide the arena
// alignment, or offsets p * kMR * kc would break the aligned-load contract.
static_assert(kKernelAlignment % (static_cast<std::size_t>(kMR) * sizeof(double)) == 0,
              "packed A panel offsets must preserve vector alignment");

template <typename T>
PackBuffers<T>& pack_buffers() {
  thread_local PackBuffers<T> bufs;
  return bufs;
}

// --- ABFT column checksums -------------------------------------------------

/// Per-micro-panel checksum capacity: mtiles <= kMC/kMR panels, kc <= kKC
/// k-steps each. Checksums carry a plain and an absolute-value sum (the
/// latter scales the floating-point comparison tolerance).
inline constexpr std::size_t kAcsumElems =
    static_cast<std::size_t>(kMC / kMR) * kKC;

/// Thread-local checksum storage, allocated lazily on a thread's first ABFT
/// GEMM (non-ABFT callers never touch it). The second pair backs the
/// dual-A-operand pair kernel (tc_syr2k).
struct AbftBuffers {
  std::vector<double> sa, sa_abs, sa2, sa2_abs;
  AbftBuffers()
      : sa(kAcsumElems), sa_abs(kAcsumElems), sa2(kAcsumElems), sa2_abs(kAcsumElems) {}
};

inline AbftBuffers& abft_buffers() {
  thread_local AbftBuffers bufs;
  return bufs;
}

/// Row-sum checksum vector of a packed A block: sa[p*kc + k] sums the kMR
/// lanes of micro-panel p at k-step k (zero-padded lanes contribute zero),
/// sa_abs the absolute values. Reads the freshly packed, cache-resident
/// panel, so the sweep rides the pack's memory traffic the way the fused
/// rounding transform rides the operand read.
template <typename T>
void compute_a_checksums(const T* buf, index_t mc, index_t kc, double* sa,
                         double* sa_abs) {
  const index_t mtiles = (mc + kMR - 1) / kMR;
  for (index_t p = 0; p < mtiles; ++p) {
    const T* panel = buf + p * kMR * kc;
    double* s = sa + p * kc;
    double* sabs = sa_abs + p * kc;
    for (index_t k = 0; k < kc; ++k) {
      const T* col = panel + k * kMR;
      double sum = 0.0;
      double asum = 0.0;
      for (index_t r = 0; r < kMR; ++r) {
        const double v = static_cast<double>(col[r]);
        sum += v;
        asum += std::abs(v);
      }
      s[k] = sum;
      sabs[k] = asum;
    }
  }
}

/// The injected "corrupted tile" bit damage (fault site gemm.tile_corrupt):
/// flip the sign bit and walk the exponent field up by 10 (down when that
/// would overflow past the finite range), with a magnitude floor of 2^10.
/// Deterministic and always a large *finite* change — at least ~2^10 in
/// absolute terms and at least ~2^10 relative to the original value — so the
/// corruption reliably breaches the end-to-end residual gate without
/// poisoning the pipeline with Inf/NaN (a raw high-exponent bit flip can
/// produce either a negligible perturbation or an infinity, both of which
/// make fault-injection tests flaky).
template <typename T>
inline void corrupt_value(T& v) noexcept {
  if constexpr (sizeof(T) == 4) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::uint32_t exp = (bits >> 23) & 0xFFu;
    if (exp == 0)
      bits = 0x44800000u;  // zero/denormal -> 1024.0f
    else if (exp <= 244)
      bits = (bits ^ 0x80000000u) + (std::uint32_t{10} << 23);
    else
      bits = (bits ^ 0x80000000u) - (std::uint32_t{10} << 23);
    std::memcpy(&v, &bits, sizeof(bits));
    if (v > -1024.0f && v < 1024.0f) v = v < 0.0f ? -1024.0f : 1024.0f;
  } else {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::uint64_t exp = (bits >> 52) & 0x7FFull;
    if (exp == 0)
      bits = 0x4090000000000000ull;  // zero/denormal -> 1024.0
    else if (exp <= 2036)
      bits = (bits ^ 0x8000000000000000ull) + (std::uint64_t{10} << 52);
    else
      bits = (bits ^ 0x8000000000000000ull) - (std::uint64_t{10} << 52);
    std::memcpy(&v, &bits, sizeof(bits));
    if (v > -1024.0 && v < 1024.0) v = v < 0.0 ? -1024.0 : 1024.0;
  }
}

/// Safety factor on the analytic fp accumulation bound. False positives only
/// cost a redundant (bitwise-identical) tile recompute, never correctness.
inline constexpr double kAbftSafety = 8.0;

/// Tolerance for one column's checksum comparison: the micro-kernel
/// accumulates kc products in T precision and the tile sums <= kMR of them,
/// so the drift between the double-precision expected sum and the actual
/// tile column sum is bounded by ~(kc + kMR) * eps_T * (sum of |terms|).
template <typename T>
inline double abft_tolerance(index_t kc, double abs_scale) noexcept {
  return kAbftSafety * static_cast<double>(std::numeric_limits<T>::epsilon()) *
             (static_cast<double>(kc) + static_cast<double>(kMR)) * abs_scale +
         1e-300;
}

/// Column-checksum verification of one accumulated tile (kMR-ld buffer
/// holding fl(alpha*acc)): for every column j,
///   sum_i tile(i, j)  ?=  alpha * sum_k sa(k) * bp(k, j).
template <typename T>
bool tile_checksum_ok(const T* tile, index_t mr, index_t nr, index_t kc, const T* bp,
                      T alpha, const double* sa, const double* sa_abs) {
  const double al = static_cast<double>(alpha);
  const double al_abs = std::abs(al);
  for (index_t jj = 0; jj < nr; ++jj) {
    double expect = 0.0;
    double scale = 0.0;
    for (index_t k = 0; k < kc; ++k) {
      const double bv = static_cast<double>(bp[k * kNR + jj]);
      expect += sa[k] * bv;
      scale += sa_abs[k] * std::abs(bv);
    }
    expect *= al;
    scale *= al_abs;
    double actual = 0.0;
    const T* tcol = tile + jj * kMR;
    for (index_t ii = 0; ii < mr; ++ii) actual += static_cast<double>(tcol[ii]);
    if (std::abs(actual - expect) > abft_tolerance<T>(kc, scale)) return false;
  }
  return true;
}

/// Pair-kernel variant: tile holds fl(alpha*(acc1+acc2)), so the expected
/// column sum combines both products' checksums.
template <typename T>
bool tile_checksum_ok_pair(const T* tile, index_t mr, index_t nr, index_t kc,
                           const T* bp1, const T* bp2, T alpha, const double* sa1,
                           const double* sa1_abs, const double* sa2,
                           const double* sa2_abs) {
  const double al = static_cast<double>(alpha);
  const double al_abs = std::abs(al);
  for (index_t jj = 0; jj < nr; ++jj) {
    double expect = 0.0;
    double scale = 0.0;
    for (index_t k = 0; k < kc; ++k) {
      const double b1 = static_cast<double>(bp1[k * kNR + jj]);
      const double b2 = static_cast<double>(bp2[k * kNR + jj]);
      expect += sa1[k] * b1 + sa2[k] * b2;
      scale += sa1_abs[k] * std::abs(b1) + sa2_abs[k] * std::abs(b2);
    }
    expect *= al;
    scale *= al_abs;
    double actual = 0.0;
    const T* tcol = tile + jj * kMR;
    for (index_t ii = 0; ii < mr; ++ii) actual += static_cast<double>(tcol[ii]);
    // The pair kernel carries two accumulators per k-step, so double the
    // single-product accumulation bound.
    if (std::abs(actual - expect) > 2.0 * abft_tolerance<T>(kc, scale)) return false;
  }
  return true;
}

// --- Pack transforms: batch detection --------------------------------------
//
// A PackTransform may expose, next to its per-element operator(), a batch
// form `f.apply(src, dst, n)` (or `split.apply(src, head, tail, n)`) that
// maps a contiguous run in one call — the Tensor Core rounding transforms
// vectorize theirs (src/tensorcore/tc_convert.hpp). Packing feeds it every
// contiguous source run it walks; strided destinations go through a small
// aligned stack staging buffer (the source read is still one contiguous
// sweep, which is where the vector win is).

template <typename F, typename T, typename = void>
struct HasBatchApply : std::false_type {};
template <typename F, typename T>
struct HasBatchApply<F, T,
                     std::void_t<decltype(std::declval<const F&>().apply(
                         std::declval<const T*>(), std::declval<T*>(), index_t{}))>>
    : std::true_type {};

template <typename F, typename T, typename = void>
struct HasBatchSplit : std::false_type {};
template <typename F, typename T>
struct HasBatchSplit<F, T,
                     std::void_t<decltype(std::declval<const F&>().apply(
                         std::declval<const T*>(), std::declval<T*>(), std::declval<T*>(),
                         index_t{}))>> : std::true_type {};

/// op(A)(i0:i0+mc, k0:k0+kc) -> MR-row panels, k-major, f applied per element.
/// TA=false reads columns of A contiguously; TA=true walks columns of A as
/// rows of op(A) (lane-outer, k-inner) so the source reads stay contiguous.
template <bool TA, typename T, typename F>
void pack_a_block(ConstMatrixView<T> a, index_t i0, index_t k0, index_t mc, index_t kc,
                  T* buf, const F& f) {
  for (index_t p = 0; p < mc; p += kMR) {
    const index_t mr = std::min(kMR, mc - p);
    if constexpr (!TA) {
      for (index_t k = 0; k < kc; ++k) {
        const T* col = &a(i0 + p, k0 + k);
        T* dst = buf + k * kMR;
        if constexpr (HasBatchApply<F, T>::value) {
          f.apply(col, dst, mr);
        } else {
          for (index_t r = 0; r < mr; ++r) dst[r] = f(col[r]);
        }
        for (index_t r = mr; r < kMR; ++r) dst[r] = T{};
      }
    } else {
      for (index_t r = 0; r < mr; ++r) {
        const T* col = &a(k0, i0 + p + r);  // column of A == row of op(A)
        if constexpr (HasBatchApply<F, T>::value) {
          alignas(kKernelAlignment) T tmp[kKC];
          f.apply(col, tmp, kc);
          for (index_t k = 0; k < kc; ++k) buf[k * kMR + r] = tmp[k];
        } else {
          for (index_t k = 0; k < kc; ++k) buf[k * kMR + r] = f(col[k]);
        }
      }
      for (index_t r = mr; r < kMR; ++r)
        for (index_t k = 0; k < kc; ++k) buf[k * kMR + r] = T{};
    }
    buf += kMR * kc;
  }
}

/// op(B)(k0:k0+kc, j0:j0+nc) -> NR-column panels, k-major, f applied per
/// element. TB=true reads rows of op(B) as columns of B contiguously.
template <bool TB, typename T, typename F>
void pack_b_block(ConstMatrixView<T> b, index_t k0, index_t j0, index_t kc, index_t nc,
                  T* buf, const F& f) {
  for (index_t q = 0; q < nc; q += kNR) {
    const index_t nr = std::min(kNR, nc - q);
    if constexpr (!TB && HasBatchApply<F, T>::value) {
      // Columns of B are contiguous along k: transform each whole column into
      // a staging buffer, then scatter into the k-major panel.
      for (index_t cidx = 0; cidx < nr; ++cidx) {
        alignas(kKernelAlignment) T tmp[kKC];
        f.apply(&b(k0, j0 + q + cidx), tmp, kc);
        for (index_t k = 0; k < kc; ++k) buf[k * kNR + cidx] = tmp[k];
      }
      for (index_t cidx = nr; cidx < kNR; ++cidx)
        for (index_t k = 0; k < kc; ++k) buf[k * kNR + cidx] = T{};
    } else {
      for (index_t k = 0; k < kc; ++k) {
        T* dst = buf + k * kNR;
        index_t cidx = 0;
        if constexpr (!TB) {
          for (; cidx < nr; ++cidx) dst[cidx] = f(b(k0 + k, j0 + q + cidx));
        } else if constexpr (HasBatchApply<F, T>::value) {
          f.apply(&b(j0 + q, k0 + k), dst, nr);  // column of B == row of op(B)
          cidx = nr;
        } else {
          const T* col = &b(j0 + q, k0 + k);  // column of B == row of op(B)
          for (; cidx < nr; ++cidx) dst[cidx] = f(col[cidx]);
        }
        for (; cidx < kNR; ++cidx) dst[cidx] = T{};
      }
    }
    buf += kNR * kc;
  }
}

/// Dual-output B pack: one pass over op(B) fills a head panel and a tail
/// panel via split(v, head, tail). This is the EC-TC fusion — the head/tail
/// decomposition is computed once per source element instead of once per
/// materialized copy.
template <bool TB, typename T, typename F>
void pack_b_block_split(ConstMatrixView<T> b, index_t k0, index_t j0, index_t kc,
                        index_t nc, T* bufh, T* buft, const F& split) {
  for (index_t q = 0; q < nc; q += kNR) {
    const index_t nr = std::min(kNR, nc - q);
    if constexpr (!TB && HasBatchSplit<F, T>::value) {
      for (index_t cidx = 0; cidx < nr; ++cidx) {
        alignas(kKernelAlignment) T tmph[kKC];
        alignas(kKernelAlignment) T tmpt[kKC];
        split.apply(&b(k0, j0 + q + cidx), tmph, tmpt, kc);
        for (index_t k = 0; k < kc; ++k) {
          bufh[k * kNR + cidx] = tmph[k];
          buft[k * kNR + cidx] = tmpt[k];
        }
      }
      for (index_t cidx = nr; cidx < kNR; ++cidx)
        for (index_t k = 0; k < kc; ++k) {
          bufh[k * kNR + cidx] = T{};
          buft[k * kNR + cidx] = T{};
        }
    } else {
      for (index_t k = 0; k < kc; ++k) {
        T* dh = bufh + k * kNR;
        T* dt = buft + k * kNR;
        index_t cidx = 0;
        if constexpr (!TB) {
          for (; cidx < nr; ++cidx) split(b(k0 + k, j0 + q + cidx), dh[cidx], dt[cidx]);
        } else if constexpr (HasBatchSplit<F, T>::value) {
          split.apply(&b(j0 + q, k0 + k), dh, dt, nr);
          cidx = nr;
        } else {
          const T* col = &b(j0 + q, k0 + k);
          for (; cidx < nr; ++cidx) split(col[cidx], dh[cidx], dt[cidx]);
        }
        for (; cidx < kNR; ++cidx) {
          dh[cidx] = T{};
          dt[cidx] = T{};
        }
      }
    }
    bufh += kNR * kc;
    buft += kNR * kc;
  }
}

/// acc(MR x NR) += sum_k apanel(:, k) bpanel(k, :); then C += alpha * acc.
/// Routes float/double through the runtime-dispatched kernel table (bitwise
/// twins of the scalar reference); everything else runs the scalar reference
/// directly.
template <typename T>
inline void micro_kernel(index_t kc, const T* ap, const T* bp, T alpha, T* c0, index_t ldc,
                         index_t mr, index_t nr) {
  if constexpr (std::is_same_v<T, float>) {
    if (const auto fn = simd::active_kernels().gemm_f32) {
      fn(kc, ap, bp, alpha, c0, ldc, mr, nr);
      return;
    }
  } else if constexpr (std::is_same_v<T, double>) {
    if (const auto fn = simd::active_kernels().gemm_f64) {
      fn(kc, ap, bp, alpha, c0, ldc, mr, nr);
      return;
    }
  }
  micro_kernel_scalar(kc, ap, bp, alpha, c0, ldc, mr, nr);
}

/// Paired variant (see micro_kernel_pair_scalar for the accumulation shape
/// and the syr2k symmetry argument). Same dispatch rule as micro_kernel.
template <typename T>
inline void micro_kernel_pair(index_t kc, const T* ap1, const T* bp1, const T* ap2,
                              const T* bp2, T alpha, T* c0, index_t ldc, index_t mr,
                              index_t nr) {
  if constexpr (std::is_same_v<T, float>) {
    if (const auto fn = simd::active_kernels().gemm_pair_f32) {
      fn(kc, ap1, bp1, ap2, bp2, alpha, c0, ldc, mr, nr);
      return;
    }
  } else if constexpr (std::is_same_v<T, double>) {
    if (const auto fn = simd::active_kernels().gemm_pair_f64) {
      fn(kc, ap1, bp1, ap2, bp2, alpha, c0, ldc, mr, nr);
      return;
    }
  }
  micro_kernel_pair_scalar(kc, ap1, bp1, ap2, bp2, alpha, c0, ldc, mr, nr);
}

/// Fan `ntiles` independent bodies out on gemm_pool() when `pooled`, falling
/// back to the calling thread when the pool is busy (another broadcast is in
/// flight) or pooling is disabled. Returns true when the pool actually ran it.
inline bool dispatch_tiles(long ntiles, bool pooled, void (*fn)(void*, long), void* ctx) {
  if (pooled && gemm_pool().try_broadcast(ntiles, fn, ctx)) {
    blas::detail::count_gemm_pool_dispatch();
    return true;
  }
  for (long i = 0; i < ntiles; ++i) fn(ctx, i);
  return false;
}

// Tile-loop contexts are transform-free plain structs: packing already ran on
// the calling thread, workers only read packed panels and write disjoint C
// tiles. Living on the caller's stack is safe — try_broadcast blocks until
// every index completes.

template <typename T>
struct TileCtx {
  const T* apack;
  const T* bpack;
  T alpha;
  T* cbase;  // &c(i0, j0)
  index_t ldc;
  index_t mc, nc, kc;
  index_t mtiles;
};

template <typename T>
void run_tile(void* vctx, long idx) {
  const auto* ctx = static_cast<const TileCtx<T>*>(vctx);
  const index_t ir = (static_cast<index_t>(idx) % ctx->mtiles) * kMR;
  const index_t jr = (static_cast<index_t>(idx) / ctx->mtiles) * kNR;
  const index_t mr = std::min(kMR, ctx->mc - ir);
  const index_t nr = std::min(kNR, ctx->nc - jr);
  const T* ap = ctx->apack + (ir / kMR) * ctx->kc * kMR;
  const T* bp = ctx->bpack + (jr / kNR) * ctx->kc * kNR;
  micro_kernel(ctx->kc, ap, bp, ctx->alpha, ctx->cbase + ir + jr * ctx->ldc, ctx->ldc, mr,
               nr);
  // Post-micro-kernel corruption injection: with ABFT off nothing checks the
  // tile, and the bad value flows into the result (exactly the silent fault
  // the end-to-end verification tier exists to catch).
  if (fault::should_fire(fault::Site::GemmTileCorrupt))
    corrupt_value(*(ctx->cbase + ir + jr * ctx->ldc));
}

/// Split-B tile: one A panel against head and tail B panels, into two
/// disjoint accumulator matrices (c0 += A·Bh, c1 += A·Bt). Each accumulator's
/// order matches its own standalone gemm exactly.
template <typename T>
struct SplitTileCtx {
  const T* apack;
  const T* bpackh;
  const T* bpackt;
  T* c0base;
  index_t ldc0;
  T* c1base;
  index_t ldc1;
  index_t mc, nc, kc;
  index_t mtiles;
};

template <typename T>
void run_split_tile(void* vctx, long idx) {
  const auto* ctx = static_cast<const SplitTileCtx<T>*>(vctx);
  const index_t ir = (static_cast<index_t>(idx) % ctx->mtiles) * kMR;
  const index_t jr = (static_cast<index_t>(idx) / ctx->mtiles) * kNR;
  const index_t mr = std::min(kMR, ctx->mc - ir);
  const index_t nr = std::min(kNR, ctx->nc - jr);
  const T* ap = ctx->apack + (ir / kMR) * ctx->kc * kMR;
  const index_t poff = (jr / kNR) * ctx->kc * kNR;
  micro_kernel(ctx->kc, ap, ctx->bpackh + poff, T{1},
               ctx->c0base + ir + jr * ctx->ldc0, ctx->ldc0, mr, nr);
  micro_kernel(ctx->kc, ap, ctx->bpackt + poff, T{1},
               ctx->c1base + ir + jr * ctx->ldc1, ctx->ldc1, mr, nr);
  if (fault::should_fire(fault::Site::GemmTileCorrupt))
    corrupt_value(*(ctx->c0base + ir + jr * ctx->ldc0));
}

template <typename T>
struct PairTileCtx {
  const T* apack1;
  const T* bpack1;
  const T* apack2;
  const T* bpack2;
  T alpha;
  T* cbase;
  index_t ldc;
  index_t mc, nc, kc;
  index_t mtiles;
};

template <typename T>
void run_nt_pair_tile(void* vctx, long idx) {
  const auto* ctx = static_cast<const PairTileCtx<T>*>(vctx);
  const index_t ir = (static_cast<index_t>(idx) % ctx->mtiles) * kMR;
  const index_t jr = (static_cast<index_t>(idx) / ctx->mtiles) * kNR;
  const index_t mr = std::min(kMR, ctx->mc - ir);
  const index_t nr = std::min(kNR, ctx->nc - jr);
  const index_t aoff = (ir / kMR) * ctx->kc * kMR;
  const index_t boff = (jr / kNR) * ctx->kc * kNR;
  micro_kernel_pair(ctx->kc, ctx->apack1 + aoff, ctx->bpack1 + boff, ctx->apack2 + aoff,
                    ctx->bpack2 + boff, ctx->alpha, ctx->cbase + ir + jr * ctx->ldc,
                    ctx->ldc, mr, nr);
  if (fault::should_fire(fault::Site::GemmTileCorrupt))
    corrupt_value(*(ctx->cbase + ir + jr * ctx->ldc));
}

// --- ABFT tile runners -----------------------------------------------------
//
// Each runner accumulates its tile into a private kMR x kNR buffer holding
// exactly fl(alpha*acc) — the value the direct runner would have added to C —
// verifies it against the packed-A checksum vector, recomputes in place on a
// mismatch (same packed panels, same accumulation order: the recompute is
// bitwise the uncorrupted tile), and only then applies it to C. The injected
// gemm.tile_corrupt flip lands on the private tile after the micro-kernel,
// modeling a corrupted C tile before anything downstream consumed it.

template <typename T>
struct AbftTileCtx {
  const T* apack;
  const T* bpack;
  T alpha;
  T* cbase;
  index_t ldc;
  index_t mc, nc, kc;
  index_t mtiles;
  const double* sa;
  const double* sa_abs;
  index_t gi0, gj0;  ///< global C coordinates of this macro block
  abft::CallStats* stats;
};

template <typename T>
void run_tile_abft(void* vctx, long idx) {
  const auto* ctx = static_cast<const AbftTileCtx<T>*>(vctx);
  const index_t ir = (static_cast<index_t>(idx) % ctx->mtiles) * kMR;
  const index_t jr = (static_cast<index_t>(idx) / ctx->mtiles) * kNR;
  const index_t mr = std::min(kMR, ctx->mc - ir);
  const index_t nr = std::min(kNR, ctx->nc - jr);
  const T* ap = ctx->apack + (ir / kMR) * ctx->kc * kMR;
  const T* bp = ctx->bpack + (jr / kNR) * ctx->kc * kNR;
  const double* sa = ctx->sa + (ir / kMR) * ctx->kc;
  const double* sa_abs = ctx->sa_abs + (ir / kMR) * ctx->kc;

  T tile[kNR * kMR] = {};
  micro_kernel(ctx->kc, ap, bp, ctx->alpha, tile, kMR, mr, nr);
  if (fault::should_fire(fault::Site::GemmTileCorrupt)) corrupt_value(tile[0]);
  if (!tile_checksum_ok(tile, mr, nr, ctx->kc, bp, ctx->alpha, sa, sa_abs)) {
    std::fill(tile, tile + kNR * kMR, T{});
    micro_kernel(ctx->kc, ap, bp, ctx->alpha, tile, kMR, mr, nr);
    ctx->stats->record_detection(ctx->gi0 + ir, ctx->gj0 + jr);
  }
  T* cc0 = ctx->cbase + ir + jr * ctx->ldc;
  for (index_t jj = 0; jj < nr; ++jj) {
    T* cc = cc0 + jj * ctx->ldc;
    const T* tcol = tile + jj * kMR;
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += tcol[ii];
  }
}

template <typename T>
struct AbftSplitTileCtx {
  const T* apack;
  const T* bpackh;
  const T* bpackt;
  T* c0base;
  index_t ldc0;
  T* c1base;
  index_t ldc1;
  index_t mc, nc, kc;
  index_t mtiles;
  const double* sa;
  const double* sa_abs;
  index_t gi0, gj0;
  abft::CallStats* stats;
};

template <typename T>
void run_split_tile_abft(void* vctx, long idx) {
  const auto* ctx = static_cast<const AbftSplitTileCtx<T>*>(vctx);
  const index_t ir = (static_cast<index_t>(idx) % ctx->mtiles) * kMR;
  const index_t jr = (static_cast<index_t>(idx) / ctx->mtiles) * kNR;
  const index_t mr = std::min(kMR, ctx->mc - ir);
  const index_t nr = std::min(kNR, ctx->nc - jr);
  const T* ap = ctx->apack + (ir / kMR) * ctx->kc * kMR;
  const index_t poff = (jr / kNR) * ctx->kc * kNR;
  const double* sa = ctx->sa + (ir / kMR) * ctx->kc;
  const double* sa_abs = ctx->sa_abs + (ir / kMR) * ctx->kc;

  const T* bps[2] = {ctx->bpackh + poff, ctx->bpackt + poff};
  T* cbases[2] = {ctx->c0base + ir + jr * ctx->ldc0, ctx->c1base + ir + jr * ctx->ldc1};
  const index_t ldcs[2] = {ctx->ldc0, ctx->ldc1};
  for (int s = 0; s < 2; ++s) {
    T tile[kNR * kMR] = {};
    micro_kernel(ctx->kc, ap, bps[s], T{1}, tile, kMR, mr, nr);
    if (s == 0 && fault::should_fire(fault::Site::GemmTileCorrupt)) corrupt_value(tile[0]);
    if (!tile_checksum_ok(tile, mr, nr, ctx->kc, bps[s], T{1}, sa, sa_abs)) {
      std::fill(tile, tile + kNR * kMR, T{});
      micro_kernel(ctx->kc, ap, bps[s], T{1}, tile, kMR, mr, nr);
      ctx->stats->record_detection(ctx->gi0 + ir, ctx->gj0 + jr);
    }
    for (index_t jj = 0; jj < nr; ++jj) {
      T* cc = cbases[s] + jj * ldcs[s];
      const T* tcol = tile + jj * kMR;
      for (index_t ii = 0; ii < mr; ++ii) cc[ii] += tcol[ii];
    }
  }
}

template <typename T>
struct AbftPairTileCtx {
  const T* apack1;
  const T* bpack1;
  const T* apack2;
  const T* bpack2;
  T alpha;
  T* cbase;
  index_t ldc;
  index_t mc, nc, kc;
  index_t mtiles;
  const double* sa1;
  const double* sa1_abs;
  const double* sa2;
  const double* sa2_abs;
  index_t gi0, gj0;
  abft::CallStats* stats;
};

template <typename T>
void run_nt_pair_tile_abft(void* vctx, long idx) {
  const auto* ctx = static_cast<const AbftPairTileCtx<T>*>(vctx);
  const index_t ir = (static_cast<index_t>(idx) % ctx->mtiles) * kMR;
  const index_t jr = (static_cast<index_t>(idx) / ctx->mtiles) * kNR;
  const index_t mr = std::min(kMR, ctx->mc - ir);
  const index_t nr = std::min(kNR, ctx->nc - jr);
  const index_t aoff = (ir / kMR) * ctx->kc * kMR;
  const index_t boff = (jr / kNR) * ctx->kc * kNR;
  const index_t soff = (ir / kMR) * ctx->kc;

  T tile[kNR * kMR] = {};
  micro_kernel_pair(ctx->kc, ctx->apack1 + aoff, ctx->bpack1 + boff, ctx->apack2 + aoff,
                    ctx->bpack2 + boff, ctx->alpha, tile, kMR, mr, nr);
  if (fault::should_fire(fault::Site::GemmTileCorrupt)) corrupt_value(tile[0]);
  if (!tile_checksum_ok_pair(tile, mr, nr, ctx->kc, ctx->bpack1 + boff,
                             ctx->bpack2 + boff, ctx->alpha, ctx->sa1 + soff,
                             ctx->sa1_abs + soff, ctx->sa2 + soff, ctx->sa2_abs + soff)) {
    std::fill(tile, tile + kNR * kMR, T{});
    micro_kernel_pair(ctx->kc, ctx->apack1 + aoff, ctx->bpack1 + boff,
                      ctx->apack2 + aoff, ctx->bpack2 + boff, ctx->alpha, tile, kMR, mr,
                      nr);
    ctx->stats->record_detection(ctx->gi0 + ir, ctx->gj0 + jr);
  }
  T* cc0 = ctx->cbase + ir + jr * ctx->ldc;
  for (index_t jj = 0; jj < nr; ++jj) {
    T* cc = cc0 + jj * ctx->ldc;
    const T* tcol = tile + jj * kMR;
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += tcol[ii];
  }
}

/// Scale C by beta in place (beta == 0 overwrites, never reads).
template <typename T>
void prescale(T beta, MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  for (index_t j = 0; j < n; ++j) {
    T* cj = m > 0 ? &c(0, j) : nullptr;
    if (beta == T{}) {
      for (index_t i = 0; i < m; ++i) cj[i] = T{};
    } else if (beta != T{1}) {
      for (index_t i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
}

template <bool TA, bool TB, typename T, typename FA, typename FB>
void gemm_packed_impl(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
                      index_t m, index_t n, index_t k, const FA& fa, const FB& fb,
                      abft::CallStats* abft_stats) {
  PackBuffers<T>& bufs = pack_buffers<T>();
  const bool pooled = blas::detail::use_gemm_pool(m, n, k);
  AbftBuffers* ab = abft_stats != nullptr ? &abft_buffers() : nullptr;

  for (index_t j0 = 0; j0 < n; j0 += kNC) {
    const index_t nc = std::min(kNC, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kKC) {
      const index_t kc = std::min(kKC, k - k0);
      pack_b_block<TB>(b, k0, j0, kc, nc, bufs.b.data(), fb);
      for (index_t i0 = 0; i0 < m; i0 += kMC) {
        const index_t mc = std::min(kMC, m - i0);
        pack_a_block<TA>(a, i0, k0, mc, kc, bufs.a.data(), fa);
        const index_t mtiles = (mc + kMR - 1) / kMR;
        const long ntiles = static_cast<long>(mtiles) * ((nc + kNR - 1) / kNR);
        if (abft_stats == nullptr) {
          TileCtx<T> ctx{bufs.a.data(), bufs.b.data(), alpha, &c(i0, j0), c.ld(),
                         mc,            nc,            kc,    mtiles};
          dispatch_tiles(ntiles, pooled, &run_tile<T>, &ctx);
        } else {
          compute_a_checksums(bufs.a.data(), mc, kc, ab->sa.data(), ab->sa_abs.data());
          AbftTileCtx<T> ctx{bufs.a.data(), bufs.b.data(), alpha,
                             &c(i0, j0),    c.ld(),        mc,
                             nc,            kc,            mtiles,
                             ab->sa.data(), ab->sa_abs.data(),
                             i0,            j0,            abft_stats};
          dispatch_tiles(ntiles, pooled, &run_tile_abft<T>, &ctx);
          abft_stats->checked += ntiles;
        }
      }
    }
  }
}

template <bool TA, bool TB, typename T, typename FA, typename FSplit>
void gemm_packed_split_b_impl(ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c0,
                              MatrixView<T> c1, index_t m, index_t n, index_t k,
                              const FA& fa, const FSplit& split,
                              abft::CallStats* abft_stats) {
  PackBuffers<T>& bufs = pack_buffers<T>();
  const bool pooled = blas::detail::use_gemm_pool(m, n, k);
  AbftBuffers* ab = abft_stats != nullptr ? &abft_buffers() : nullptr;

  for (index_t j0 = 0; j0 < n; j0 += kNC) {
    const index_t nc = std::min(kNC, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kKC) {
      const index_t kc = std::min(kKC, k - k0);
      pack_b_block_split<TB>(b, k0, j0, kc, nc, bufs.b.data(), bufs.b2.data(), split);
      for (index_t i0 = 0; i0 < m; i0 += kMC) {
        const index_t mc = std::min(kMC, m - i0);
        pack_a_block<TA>(a, i0, k0, mc, kc, bufs.a.data(), fa);
        const index_t mtiles = (mc + kMR - 1) / kMR;
        const long ntiles = static_cast<long>(mtiles) * ((nc + kNR - 1) / kNR);
        if (abft_stats == nullptr) {
          SplitTileCtx<T> ctx{bufs.a.data(), bufs.b.data(), bufs.b2.data(),
                              &c0(i0, j0),   c0.ld(),       &c1(i0, j0),
                              c1.ld(),       mc,            nc,
                              kc,            mtiles};
          dispatch_tiles(ntiles, pooled, &run_split_tile<T>, &ctx);
        } else {
          compute_a_checksums(bufs.a.data(), mc, kc, ab->sa.data(), ab->sa_abs.data());
          AbftSplitTileCtx<T> ctx{bufs.a.data(), bufs.b.data(), bufs.b2.data(),
                                  &c0(i0, j0),   c0.ld(),       &c1(i0, j0),
                                  c1.ld(),       mc,            nc,
                                  kc,            mtiles,        ab->sa.data(),
                                  ab->sa_abs.data(), i0,        j0,
                                  abft_stats};
          dispatch_tiles(ntiles, pooled, &run_split_tile_abft<T>, &ctx);
          abft_stats->checked += 2 * ntiles;  // head and tail product per tile
        }
      }
    }
  }
}

}  // namespace packed

/// C = alpha * op(A) * op(B) + beta * C through the packed pipeline, with
/// fa/fb applied per element of A/B during packing. All four trans
/// combinations run the same micro-kernel with zero intermediate matrices.
/// Does not count flops — callers own their FlopCounter accounting.
template <typename T, typename FA = IdentityTransform, typename FB = IdentityTransform>
void gemm_packed(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, T beta, MatrixView<T> c, const FA& fa = FA{},
                 const FB& fb = FB{}) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t ka = (transa == Trans::No) ? a.cols() : a.rows();
  const index_t ma = (transa == Trans::No) ? a.rows() : a.cols();
  const index_t kb = (transb == Trans::No) ? b.rows() : b.cols();
  const index_t nb = (transb == Trans::No) ? b.cols() : b.rows();
  TCEVD_CHECK(ma == m && nb == n && ka == kb, "gemm shape mismatch");
  if (m == 0 || n == 0) return;
  packed::prescale(beta, c);
  if (ka == 0 || alpha == T{}) return;
  simd::detail::record_dispatch(simd::active_level());

  abft::CallStats stats;
  abft::CallStats* sp = abft::enabled() ? &stats : nullptr;
  if (transa == Trans::No && transb == Trans::No)
    packed::gemm_packed_impl<false, false>(alpha, a, b, c, m, n, ka, fa, fb, sp);
  else if (transa == Trans::Yes && transb == Trans::No)
    packed::gemm_packed_impl<true, false>(alpha, a, b, c, m, n, ka, fa, fb, sp);
  else if (transa == Trans::No && transb == Trans::Yes)
    packed::gemm_packed_impl<false, true>(alpha, a, b, c, m, n, ka, fa, fb, sp);
  else
    packed::gemm_packed_impl<true, true>(alpha, a, b, c, m, n, ka, fa, fb, sp);
  if (sp != nullptr) abft::finish_call(stats, "gemm");
}

/// EC-TC first sweep: C0 = op(A)·head(op(B)) and C1 = op(A)·tail(op(B)) in
/// ONE pass over B — split(v, head, tail) runs once per B element while
/// packing. Both products accumulate exactly as their standalone gemms would,
/// so results are bitwise-identical to materializing head/tail copies first.
/// Overwrites C0 and C1. Does not count flops.
template <typename T, typename FA, typename FSplit>
void gemm_packed_split_b(Trans transa, Trans transb, ConstMatrixView<T> a,
                         ConstMatrixView<T> b, MatrixView<T> c0, MatrixView<T> c1,
                         const FA& fa, const FSplit& split) {
  const index_t m = c0.rows();
  const index_t n = c0.cols();
  const index_t ka = (transa == Trans::No) ? a.cols() : a.rows();
  const index_t ma = (transa == Trans::No) ? a.rows() : a.cols();
  const index_t kb = (transb == Trans::No) ? b.rows() : b.cols();
  const index_t nb = (transb == Trans::No) ? b.cols() : b.rows();
  TCEVD_CHECK(ma == m && nb == n && ka == kb, "gemm shape mismatch");
  TCEVD_CHECK(c1.rows() == m && c1.cols() == n, "split gemm accumulator shape mismatch");
  if (m == 0 || n == 0) return;
  packed::prescale(T{}, c0);
  packed::prescale(T{}, c1);
  if (ka == 0) return;
  simd::detail::record_dispatch(simd::active_level());

  abft::CallStats stats;
  abft::CallStats* sp = abft::enabled() ? &stats : nullptr;
  if (transa == Trans::No && transb == Trans::No)
    packed::gemm_packed_split_b_impl<false, false>(a, b, c0, c1, m, n, ka, fa, split, sp);
  else if (transa == Trans::Yes && transb == Trans::No)
    packed::gemm_packed_split_b_impl<true, false>(a, b, c0, c1, m, n, ka, fa, split, sp);
  else if (transa == Trans::No && transb == Trans::Yes)
    packed::gemm_packed_split_b_impl<false, true>(a, b, c0, c1, m, n, ka, fa, split, sp);
  else
    packed::gemm_packed_split_b_impl<true, true>(a, b, c0, c1, m, n, ka, fa, split, sp);
  if (sp != nullptr) abft::finish_call(stats, "gemm.split_b");
}

/// C += alpha * (A1·B1ᵀ + A2·B2ᵀ) with the paired micro-kernel (both
/// accumulators carried per k-step, summed on the final add). tc_syr2k's
/// packed path: A1/A2 and B1/B2 get fa/fb applied during packing. The caller
/// prescales C. Does not count flops.
template <typename T, typename FA, typename FB>
void gemm_packed_nt_pair(T alpha, ConstMatrixView<T> a1, ConstMatrixView<T> b1,
                         ConstMatrixView<T> a2, ConstMatrixView<T> b2, MatrixView<T> c,
                         const FA& fa, const FB& fb) {
  using namespace packed;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a1.cols();
  TCEVD_CHECK(a1.rows() == m && a2.rows() == m && a2.cols() == k,
              "pair gemm A shape mismatch");
  TCEVD_CHECK(b1.rows() == n && b1.cols() == k && b2.rows() == n && b2.cols() == k,
              "pair gemm B shape mismatch");
  if (m == 0 || n == 0 || k == 0 || alpha == T{}) return;
  simd::detail::record_dispatch(simd::active_level());

  PackBuffers<T>& bufs = pack_buffers<T>();
  const bool pooled = blas::detail::use_gemm_pool(m, n, k);
  abft::CallStats stats;
  abft::CallStats* sp = abft::enabled() ? &stats : nullptr;
  packed::AbftBuffers* ab = sp != nullptr ? &packed::abft_buffers() : nullptr;

  for (index_t j0 = 0; j0 < n; j0 += kNC) {
    const index_t nc = std::min(kNC, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kKC) {
      const index_t kc = std::min(kKC, k - k0);
      pack_b_block<true>(b1, k0, j0, kc, nc, bufs.b.data(), fb);
      pack_b_block<true>(b2, k0, j0, kc, nc, bufs.b2.data(), fb);
      for (index_t i0 = 0; i0 < m; i0 += kMC) {
        const index_t mc = std::min(kMC, m - i0);
        pack_a_block<false>(a1, i0, k0, mc, kc, bufs.a.data(), fa);
        pack_a_block<false>(a2, i0, k0, mc, kc, bufs.a2.data(), fa);
        const index_t mtiles = (mc + kMR - 1) / kMR;
        const long ntiles = static_cast<long>(mtiles) * ((nc + kNR - 1) / kNR);
        if (sp == nullptr) {
          PairTileCtx<T> ctx{bufs.a.data(), bufs.b.data(), bufs.a2.data(), bufs.b2.data(),
                             alpha,         &c(i0, j0),    c.ld(),         mc,
                             nc,            kc,            mtiles};
          dispatch_tiles(ntiles, pooled, &run_nt_pair_tile<T>, &ctx);
        } else {
          packed::compute_a_checksums(bufs.a.data(), mc, kc, ab->sa.data(),
                                      ab->sa_abs.data());
          packed::compute_a_checksums(bufs.a2.data(), mc, kc, ab->sa2.data(),
                                      ab->sa2_abs.data());
          packed::AbftPairTileCtx<T> ctx{bufs.a.data(),  bufs.b.data(),
                                         bufs.a2.data(), bufs.b2.data(),
                                         alpha,          &c(i0, j0),
                                         c.ld(),         mc,
                                         nc,             kc,
                                         mtiles,         ab->sa.data(),
                                         ab->sa_abs.data(), ab->sa2.data(),
                                         ab->sa2_abs.data(), i0,
                                         j0,             sp};
          dispatch_tiles(ntiles, pooled, &packed::run_nt_pair_tile_abft<T>, &ctx);
          sp->checked += ntiles;
        }
      }
    }
  }
  if (sp != nullptr) abft::finish_call(stats, "syr2k");
}

}  // namespace blas
}  // namespace tcevd
