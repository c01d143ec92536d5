#include "src/blas/simd_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/simd_kernels_avx2.hpp"
#include "src/common/half.hpp"

namespace tcevd {
namespace blas {
namespace simd {

namespace {

struct Resolution {
  KernelTable table;
  const char* reason = "not yet resolved";
};

std::mutex g_resolve_mutex;
Resolution g_resolution;
std::atomic<bool> g_resolved{false};
std::atomic<std::uint64_t> g_dispatch_counts[2] = {{0}, {0}};
std::atomic<int> g_scalar_force{0};

// The all-null table active_kernels() returns while a ScalarKernelScope is
// alive: null entries mean "run the inline scalar reference".
const KernelTable g_scalar_table{};

#ifdef TCEVD_HAVE_AVX2

// Deterministic value streams for the self-check probes. Plain LCG; the
// mantissas are effectively random, which is exactly what makes the probes
// FMA-sensitive: fl(fl(a*b)+c) != fl(a*b+c) for roughly half of random
// inputs, so a contracted (vfmadd) kernel cannot survive the comparison.
std::uint32_t lcg_next(std::uint32_t& s) noexcept {
  s = s * 1664525u + 1013904223u;
  return s;
}

float lcg_f32(std::uint32_t& s) noexcept {
  return static_cast<float>((lcg_next(s) >> 8) & 0xffffu) / 16384.0f - 2.0f;
}

double lcg_f64(std::uint32_t& s) noexcept {
  return static_cast<double>((lcg_next(s) >> 8) & 0xffffu) / 16384.0 - 2.0;
}

constexpr index_t kProbeMaxKc = 64;
constexpr index_t kProbeKcs[] = {1, 7, 64};
constexpr index_t kProbeMrs[] = {1, 5, 8};
constexpr index_t kProbeNrs[] = {1, 3, 8};

template <typename T>
bool check_micro_kernels(void (*vec)(index_t, const T*, const T*, T, T*, index_t, index_t,
                                     index_t),
                         T (*draw)(std::uint32_t&)) {
  using packed::kMR;
  using packed::kNR;
  alignas(64) T ap[kProbeMaxKc * kMR];
  alignas(64) T bp[kProbeMaxKc * kNR];
  std::uint32_t seed = 0xc0ffee11u;
  for (auto& v : ap) v = draw(seed);
  for (auto& v : bp) v = draw(seed);
  const T alphas[] = {T{1}, T{-0.75}};
  T cbase[kMR * kNR];
  T cref[kMR * kNR];
  T cvec[kMR * kNR];
  for (auto& v : cbase) v = draw(seed);
  for (const index_t kc : kProbeKcs) {
    for (const index_t mr : kProbeMrs) {
      for (const index_t nr : kProbeNrs) {
        for (const T alpha : alphas) {
          // Comparing the full kMR x kNR footprint (ldc == kMR) also proves
          // the vector kernel leaves rows/columns past mr/nr untouched.
          std::memcpy(cref, cbase, sizeof cbase);
          std::memcpy(cvec, cbase, sizeof cbase);
          packed::micro_kernel_scalar(kc, ap, bp, alpha, cref, kMR, mr, nr);
          vec(kc, ap, bp, alpha, cvec, kMR, mr, nr);
          if (std::memcmp(cref, cvec, sizeof cref) != 0) return false;
        }
      }
    }
  }
  return true;
}

bool check_convert_kernels() {
  // Specials first (fp16 boundaries, subnormal thresholds, inf, default
  // qNaN), then LCG patterns whose exponents sweep 2^-31 .. 2^16 so the
  // fp16 subnormal and overflow regions both get dense random coverage.
  constexpr index_t kN = 1024 + 13;  // odd tail exercises the remainder path
  float src[kN];
  index_t i = 0;
  const float inf = __builtin_inff();
  for (const float v :
       {0.0f, -0.0f, 1.0f, -1.0f, 1.5f, 65504.0f, -65504.0f, 65519.5f, 65520.0f, -65520.0f,
        65536.0f, 1e30f, 6.103515625e-05f /* 2^-14 */, 3.0517578125e-05f /* 2^-15 */,
        5.960464477539063e-08f /* 2^-24 */, 2.9802322387695312e-08f /* 2^-25 */, 4.5e-08f,
        2.8e-08f, 1e-38f, inf, -inf, __builtin_nanf("")}) {
    src[i++] = v;
  }
  std::uint32_t seed = 0xdecade01u;
  for (; i < kN; ++i) {
    const std::uint32_t sign = (lcg_next(seed) & 1u) << 31;
    const std::uint32_t exp = 96u + (lcg_next(seed) % 48u);
    const std::uint32_t mant = lcg_next(seed) & 0x007fffffu;
    std::uint32_t bits = sign | (exp << 23) | mant;
    std::memcpy(&src[i], &bits, sizeof bits);
  }

  float ref[kN];
  float vec[kN];
  float ref_tail[kN];
  float vec_tail[kN];
  const float scale = 2048.0f;

  for (index_t j = 0; j < kN; ++j) ref[j] = round_to_half(src[j]);
  avx2::round_fp16_buffer(src, vec, kN);
  if (std::memcmp(ref, vec, sizeof ref) != 0) return false;
  std::memcpy(vec, src, sizeof vec);  // in-place form
  avx2::round_fp16_buffer(vec, vec, kN);
  if (std::memcmp(ref, vec, sizeof ref) != 0) return false;

  for (index_t j = 0; j < kN; ++j) ref[j] = round_to_tf32(src[j]);
  avx2::round_tf32_buffer(src, vec, kN);
  if (std::memcmp(ref, vec, sizeof ref) != 0) return false;

  for (index_t j = 0; j < kN; ++j) {
    const float h = round_to_half(src[j]);
    ref[j] = h;
    ref_tail[j] = round_to_half(scale * (src[j] - h));
  }
  avx2::ec_split_fp16_buffer(src, vec, vec_tail, kN, scale);
  if (std::memcmp(ref, vec, sizeof ref) != 0) return false;
  if (std::memcmp(ref_tail, vec_tail, sizeof ref_tail) != 0) return false;

  for (index_t j = 0; j < kN; ++j) {
    const float h = round_to_tf32(src[j]);
    ref[j] = h;
    ref_tail[j] = round_to_tf32(scale * (src[j] - h));
  }
  avx2::ec_split_tf32_buffer(src, vec, vec_tail, kN, scale);
  if (std::memcmp(ref, vec, sizeof ref) != 0) return false;
  if (std::memcmp(ref_tail, vec_tail, sizeof ref_tail) != 0) return false;

  return true;
}

bool run_avx2_selfcheck() {
  return check_micro_kernels<float>(&avx2::micro_kernel_f32, &lcg_f32) &&
         check_micro_kernels<double>(&avx2::micro_kernel_f64, &lcg_f64) &&
         check_convert_kernels();
}

#endif  // TCEVD_HAVE_AVX2

Resolution resolve_now() {
  const char* env = std::getenv("TCEVD_SIMD");
  const bool cpu = cpu_supports_avx2();
  bool selfcheck_ok = false;
  const bool env_forces_scalar =
      env != nullptr && (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0);
#ifdef TCEVD_HAVE_AVX2
  if (cpu && !env_forces_scalar) selfcheck_ok = run_avx2_selfcheck();
#else
  (void)env_forces_scalar;
#endif
  Resolution r;
  r.table.level = detail::resolve_level(env, cpu, selfcheck_ok, &r.reason);
#ifdef TCEVD_HAVE_AVX2
  if (r.table.level == Level::Avx2) {
    r.table.gemm_f32 = &avx2::micro_kernel_f32;
    r.table.gemm_f64 = &avx2::micro_kernel_f64;
    r.table.round_fp16 = &avx2::round_fp16_buffer;
    r.table.round_tf32 = &avx2::round_tf32_buffer;
    r.table.ec_split_fp16 = &avx2::ec_split_fp16_buffer;
    r.table.ec_split_tf32 = &avx2::ec_split_tf32_buffer;
    r.table.name = "avx2";
  }
#endif
  return r;
}

}  // namespace

const KernelTable& kernels() noexcept {
  if (!g_resolved.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(g_resolve_mutex);
    if (!g_resolved.load(std::memory_order_relaxed)) {
      g_resolution = resolve_now();
      g_resolved.store(true, std::memory_order_release);
    }
  }
  return g_resolution.table;
}

const KernelTable& active_kernels() noexcept {
  if (g_scalar_force.load(std::memory_order_relaxed) > 0) return g_scalar_table;
  return kernels();
}

Level active_level() noexcept { return active_kernels().level; }

const char* active_level_name() noexcept { return active_kernels().name; }

const char* active_level_reason() noexcept {
  if (g_scalar_force.load(std::memory_order_relaxed) > 0) return "ScalarKernelScope active";
  kernels();  // force resolution so the reason is meaningful
  return g_resolution.reason;
}

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

bool compiled_with_avx2() noexcept {
#ifdef TCEVD_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

std::uint64_t dispatch_count(Level level) noexcept {
  return g_dispatch_counts[static_cast<int>(level)].load(std::memory_order_relaxed);
}

ScalarKernelScope::ScalarKernelScope() noexcept {
  g_scalar_force.fetch_add(1, std::memory_order_relaxed);
}

ScalarKernelScope::~ScalarKernelScope() {
  g_scalar_force.fetch_sub(1, std::memory_order_relaxed);
}

bool scalar_kernels_forced() noexcept {
  return g_scalar_force.load(std::memory_order_relaxed) > 0;
}

namespace detail {

Level resolve_level(const char* env_value, bool cpu_avx2, bool selfcheck_ok,
                    const char** reason) noexcept {
  const bool compiled = compiled_with_avx2();
  if (env_value != nullptr && *env_value != '\0') {
    if (std::strcmp(env_value, "off") == 0 || std::strcmp(env_value, "scalar") == 0) {
      *reason = "TCEVD_SIMD=off";
      return Level::Scalar;
    }
    if (std::strcmp(env_value, "avx2") == 0) {
      if (!compiled) {
        *reason = "TCEVD_SIMD=avx2 but binary built without the AVX2 family";
        return Level::Scalar;
      }
      if (!cpu_avx2) {
        *reason = "TCEVD_SIMD=avx2 but CPU lacks AVX2+F16C";
        return Level::Scalar;
      }
      if (!selfcheck_ok) {
        *reason = "TCEVD_SIMD=avx2 but the bitwise self-check failed";
        return Level::Scalar;
      }
      *reason = "TCEVD_SIMD=avx2";
      return Level::Avx2;
    }
    if (std::strcmp(env_value, "auto") != 0) {
      // Unrecognized value: fall through to auto-detection rather than
      // silently changing numerics-relevant behaviour on a typo.
      *reason = "unrecognized TCEVD_SIMD value; auto-detected";
      if (compiled && cpu_avx2 && selfcheck_ok) return Level::Avx2;
      return Level::Scalar;
    }
  }
  if (!compiled) {
    *reason = "binary built without the AVX2 family";
    return Level::Scalar;
  }
  if (!cpu_avx2) {
    *reason = "CPU lacks AVX2+F16C";
    return Level::Scalar;
  }
  if (!selfcheck_ok) {
    *reason = "bitwise self-check failed; pinned to scalar reference";
    return Level::Scalar;
  }
  *reason = "auto-detected AVX2 (bitwise self-check passed)";
  return Level::Avx2;
}

void record_dispatch(Level level) noexcept {
  g_dispatch_counts[static_cast<int>(level)].fetch_add(1, std::memory_order_relaxed);
}

void refresh_for_testing() {
  std::lock_guard<std::mutex> lock(g_resolve_mutex);
  g_resolution = resolve_now();
  g_resolved.store(true, std::memory_order_release);
}

}  // namespace detail
}  // namespace simd
}  // namespace blas
}  // namespace tcevd
