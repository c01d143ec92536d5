// Packed transpose-aware GEMM pipeline (src/blas/gemm_packed.hpp): every
// trans combination against a naive reference at odd/prime/edge shapes,
// parallel-vs-serial bitwise equality, the gemm_pool stand-down contract,
// bitwise equality of the fused-rounding tc_gemm / ec_tcgemm paths against
// the old materialize-rounded-copies formulation, and the SIMD kernel
// family: dispatch policy (TCEVD_SIMD / cpuid / self-check), SIMD-vs-scalar
// bitwise identity across the full pipeline, the vectorized convert
// kernels, and the pack-arena alignment contract. Label: gemmfast.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_packed.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/common/aligned.hpp"
#include "src/common/fault.hpp"
#include "src/common/half.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensorcore/ec_tcgemm.hpp"
#include "src/tensorcore/tc_convert.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

/// Naive dense reference: C = alpha op(A) op(B) + beta C.
template <typename T>
void ref_gemm(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
              T beta, MatrixView<T> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) {
        const T av = (ta == Trans::No) ? a(i, l) : a(l, i);
        const T bv = (tb == Trans::No) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
}

template <typename T>
Matrix<T> random_mat(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(m, n);
  fill_normal(rng, a.view());
  return a;
}

/// Every element bitwise-equal (EXPECT_EQ catches NaN mismatches too).
template <typename T>
void expect_bitwise_equal(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      ASSERT_EQ(a(i, j), b(i, j)) << "mismatch at (" << i << ", " << j << ")";
}

struct GemmCase {
  Trans ta, tb;
  index_t m, n, k;
};

class PackedGemmTest : public ::testing::TestWithParam<GemmCase> {};

template <typename T>
void check_against_reference(const GemmCase& p, double tol) {
  const index_t am = (p.ta == Trans::No) ? p.m : p.k;
  const index_t an = (p.ta == Trans::No) ? p.k : p.m;
  const index_t bm = (p.tb == Trans::No) ? p.k : p.n;
  const index_t bn = (p.tb == Trans::No) ? p.n : p.k;
  auto a = random_mat<T>(am, an, 1);
  auto b = random_mat<T>(bm, bn, 2);
  auto c = random_mat<T>(p.m, p.n, 3);
  auto c_ref = c;
  blas::gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c.view());
  ref_gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c_ref.view());
  EXPECT_LT(test::rel_diff<T>(c.view(), c_ref.view()), tol);
}

TEST_P(PackedGemmTest, MatchesReferenceDouble) { check_against_reference<double>(GetParam(), 1e-12); }
TEST_P(PackedGemmTest, MatchesReferenceFloat) { check_against_reference<float>(GetParam(), 5e-4); }

// Shapes chosen to straddle every blocking boundary: MR=8/NR=8 remainders
// (odd/prime), MC=128 and KC=256 crossings, plus m=1 / n=1 / k=0 edges.
std::vector<GemmCase> all_combo_cases() {
  const std::vector<std::array<index_t, 3>> shapes = {
      {1, 1, 1},  {1, 37, 17},  {37, 1, 17},    {37, 17, 0},
      {7, 5, 3},  {13, 17, 11}, {97, 61, 37},   {131, 67, 259},
      {257, 5, 3}, {130, 4, 256}, {8, 129, 300},
  };
  const std::vector<std::pair<Trans, Trans>> combos = {
      {Trans::No, Trans::No},
      {Trans::No, Trans::Yes},
      {Trans::Yes, Trans::No},
      {Trans::Yes, Trans::Yes},
  };
  std::vector<GemmCase> cases;
  for (const auto& tr : combos)
    for (const auto& s : shapes) cases.push_back({tr.first, tr.second, s[0], s[1], s[2]});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombosOddShapes, PackedGemmTest,
                         ::testing::ValuesIn(all_combo_cases()));

// ---------------------------------------------------------------------------
// Parallel-vs-serial bitwise equality and the thread-ownership contract.
// ---------------------------------------------------------------------------

TEST(GemmPoolDeterminism, PooledBitwiseIdenticalToSerial) {
  // 2*m*n*k well above the pooling floor, shape straddling every block edge.
  const index_t m = 311, n = 203, k = 277;
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const index_t am = (ta == Trans::No) ? m : k;
      const index_t an = (ta == Trans::No) ? k : m;
      const index_t bm = (tb == Trans::No) ? k : n;
      const index_t bn = (tb == Trans::No) ? n : k;
      auto a = random_mat<float>(am, an, 4);
      auto b = random_mat<float>(bm, bn, 5);
      auto c_pooled = random_mat<float>(m, n, 6);
      auto c_serial = c_pooled;
      const auto before = blas::gemm_pool_dispatches();
      blas::gemm<float>(ta, tb, 1.5f, a.view(), b.view(), 0.25f, c_pooled.view());
      EXPECT_GT(blas::gemm_pool_dispatches(), before)
          << "large gemm on the main thread should fan out on gemm_pool";
      {
        blas::SerialGemmScope serial;
        blas::gemm<float>(ta, tb, 1.5f, a.view(), b.view(), 0.25f, c_serial.view());
      }
      expect_bitwise_equal<float>(c_pooled.view(), c_serial.view());
    }
}

TEST(GemmPoolPolicy, SerialScopeStandsDown) {
  const index_t n = 160;  // 2n^3 ~ 8.2 Mflop: above the pooling floor
  auto a = random_mat<float>(n, n, 7);
  auto b = random_mat<float>(n, n, 8);
  Matrix<float> c(n, n);
  const auto before = blas::gemm_pool_dispatches();
  {
    blas::SerialGemmScope serial;
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  }
  EXPECT_EQ(blas::gemm_pool_dispatches(), before);
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  EXPECT_GT(blas::gemm_pool_dispatches(), before);
}

TEST(GemmPoolPolicy, NestedCallsUnderPoolWorkersStandDown) {
  // GEMMs issued from inside ANY ThreadPool worker must take the serial tile
  // loop — the batch/overlap pools own the parallelism at their level.
  const index_t n = 160;
  auto a = random_mat<float>(n, n, 9);
  auto b = random_mat<float>(n, n, 10);
  ThreadPool pool(2);
  const auto before = blas::gemm_pool_dispatches();
  for (int t = 0; t < 4; ++t)
    pool.submit([&] {
      Matrix<float> c(n, n);
      blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    });
  pool.wait_idle();
  EXPECT_EQ(blas::gemm_pool_dispatches(), before)
      << "nested gemm fanned out on gemm_pool from a pool worker";
}

TEST(GemmPoolPolicy, TinyGemmsStaySerial) {
  auto a = random_mat<float>(16, 16, 11);
  auto b = random_mat<float>(16, 16, 12);
  Matrix<float> c(16, 16);
  const auto before = blas::gemm_pool_dispatches();
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  EXPECT_EQ(blas::gemm_pool_dispatches(), before);
}

// ---------------------------------------------------------------------------
// Fused-rounding TC paths bitwise-equal to the old materializing paths.
// ---------------------------------------------------------------------------

/// The old tc_gemm formulation: materialize op(X) rounded to prec, then one
/// plain fp32 GEMM.
Matrix<float> rounded_op(Trans trans, ConstMatrixView<float> x, tc::TcPrecision prec) {
  const index_t rows = trans == Trans::No ? x.rows() : x.cols();
  const index_t cols = trans == Trans::No ? x.cols() : x.rows();
  Matrix<float> out(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i)
      out(i, j) = tc::round_operand(trans == Trans::No ? x(i, j) : x(j, i), prec);
  return out;
}

TEST(FusedRounding, TcGemmBitwiseEqualToMaterializedPath) {
  const index_t m = 70, n = 53, k = 300;
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32})
    for (Trans ta : {Trans::No, Trans::Yes})
      for (Trans tb : {Trans::No, Trans::Yes}) {
        const index_t am = (ta == Trans::No) ? m : k;
        const index_t an = (ta == Trans::No) ? k : m;
        const index_t bm = (tb == Trans::No) ? k : n;
        const index_t bn = (tb == Trans::No) ? n : k;
        auto a = random_mat<float>(am, an, 13);
        auto b = random_mat<float>(bm, bn, 14);
        auto c_fused = random_mat<float>(m, n, 15);
        auto c_ref = c_fused;
        tc::tc_gemm(ta, tb, 1.25f, a.view(), b.view(), -0.5f, c_fused.view(), prec);
        Matrix<float> ar = rounded_op(ta, a.view(), prec);
        Matrix<float> br = rounded_op(tb, b.view(), prec);
        blas::gemm<float>(Trans::No, Trans::No, 1.25f, ar.view(), br.view(), -0.5f,
                          c_ref.view());
        expect_bitwise_equal<float>(c_fused.view(), c_ref.view());
      }
}

/// The old ec_tcgemm formulation: materialize op(A)/op(B), ec_split each into
/// head + scaled residual, run three plain GEMMs, combine in fp32.
void ec_reference(Trans ta, Trans tb, float alpha, ConstMatrixView<float> a,
                  ConstMatrixView<float> b, float beta, MatrixView<float> c,
                  tc::TcPrecision prec) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  Matrix<float> ax(m, k), bx(k, n);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) ax(i, j) = (ta == Trans::No) ? a(i, j) : a(j, i);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) bx(i, j) = (tb == Trans::No) ? b(i, j) : b(j, i);
  Matrix<float> ah(m, k), da(m, k), bh(k, n), db(k, n);
  tc::ec_split(ax.view(), ah.view(), da.view(), prec);
  tc::ec_split(bx.view(), bh.view(), db.view(), prec);
  Matrix<float> c0(m, n), c1(m, n);
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, ah.view(), bh.view(), 0.0f, c0.view());
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, ah.view(), db.view(), 0.0f, c1.view());
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, da.view(), bh.view(), 1.0f, c1.view());
  const float inv_s = 1.0f / tc::kEcScale;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      c(i, j) = alpha * (c0(i, j) + c1(i, j) * inv_s) +
                ((beta == 0.0f) ? 0.0f : beta * c(i, j));
}

TEST(FusedRounding, EcTcGemmBitwiseEqualToMaterializedPath) {
  const index_t m = 37, n = 29, k = 281;
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const index_t am = (ta == Trans::No) ? m : k;
      const index_t an = (ta == Trans::No) ? k : m;
      const index_t bm = (tb == Trans::No) ? k : n;
      const index_t bn = (tb == Trans::No) ? n : k;
      auto a = random_mat<float>(am, an, 16);
      auto b = random_mat<float>(bm, bn, 17);
      auto c_fused = random_mat<float>(m, n, 18);
      auto c_ref = c_fused;
      ASSERT_TRUE(
          tc::ec_tcgemm(ta, tb, 1.1f, a.view(), b.view(), 0.6f, c_fused.view()).ok());
      ec_reference(ta, tb, 1.1f, a.view(), b.view(), 0.6f, c_ref.view(),
                   tc::TcPrecision::Fp16);
      expect_bitwise_equal<float>(c_fused.view(), c_ref.view());
    }
}

// ---------------------------------------------------------------------------
// ABFT on the EC-TC products: three packed GEMMs per ec_tcgemm call.
// ---------------------------------------------------------------------------

// Crosses the kMC and kKC block edges and is large enough to fan out.
constexpr index_t kEcM = 150, kEcN = 70, kEcK = 300;

Matrix<float> ec_operand(Trans trans, index_t rows, index_t cols, std::uint64_t seed) {
  return trans == Trans::No ? random_mat<float>(rows, cols, seed)
                            : random_mat<float>(cols, rows, seed);
}

TEST(EcTcAbft, CheckedSweepsAreBitwiseEqualToUncheckedForEveryOpPair) {
  // Micro-tiles of one call: every macro block's tile grid, summed.
  namespace packed = blas::packed;
  std::uint64_t tiles = 0;
  for (index_t i0 = 0; i0 < kEcM; i0 += packed::kMC) {
    const index_t mc = std::min(packed::kMC, kEcM - i0);
    tiles += static_cast<std::uint64_t>((mc + packed::kMR - 1) / packed::kMR) *
             ((kEcN + packed::kNR - 1) / packed::kNR);
  }
  tiles *= (kEcK + packed::kKC - 1) / packed::kKC;

  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes}) {
      auto a = ec_operand(ta, kEcM, kEcK, 61);
      auto b = ec_operand(tb, kEcK, kEcN, 62);
      auto c_plain = random_mat<float>(kEcM, kEcN, 63);
      auto c_checked = c_plain;
      ASSERT_TRUE(tc::ec_tcgemm(ta, tb, 0.9f, a.view(), b.view(), -0.4f, c_plain.view()).ok());
      const auto checked0 = blas::abft::tiles_checked();
      const auto detected0 = blas::abft::tiles_detected();
      {
        blas::abft::AbftScope abft;
        ASSERT_TRUE(
            tc::ec_tcgemm(ta, tb, 0.9f, a.view(), b.view(), -0.4f, c_checked.view()).ok());
      }
      // Three products, each checking every tile.
      EXPECT_EQ(blas::abft::tiles_checked() - checked0, 3 * tiles);
      EXPECT_EQ(blas::abft::tiles_detected(), detected0);
      expect_bitwise_equal<float>(c_checked.view(), c_plain.view());
    }
}

TEST(EcTcAbft, CorruptedTileIsDetectedAndRestored) {
  fault::disarm_all();
  auto a = ec_operand(Trans::Yes, kEcM, kEcK, 64);
  auto b = ec_operand(Trans::No, kEcK, kEcN, 65);
  auto c_ref = random_mat<float>(kEcM, kEcN, 66);
  auto c = c_ref;
  ASSERT_TRUE(
      tc::ec_tcgemm(Trans::Yes, Trans::No, 1.1f, a.view(), b.view(), 0.5f, c_ref.view()).ok());

  const auto detected0 = blas::abft::tiles_detected();
  recovery::Scope scope;
  {
    blas::abft::AbftScope abft;
    fault::arm(fault::Site::GemmTileCorrupt, 1);
    ASSERT_TRUE(
        tc::ec_tcgemm(Trans::Yes, Trans::No, 1.1f, a.view(), b.view(), 0.5f, c.view()).ok());
  }
  const int fired = fault::fired(fault::Site::GemmTileCorrupt);
  fault::disarm_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(blas::abft::tiles_detected(), detected0 + 1);
  const RecoveryLog log = scope.take();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].site, "blas.abft");
  expect_bitwise_equal<float>(c.view(), c_ref.view());
}

// ---------------------------------------------------------------------------
// SIMD dispatch: resolution policy, env override, telemetry.
// ---------------------------------------------------------------------------

namespace simd = blas::simd;

TEST(SimdDispatch, ResolveLevelPolicy) {
  const bool compiled = simd::compiled_with_avx2();
  const char* reason = nullptr;
  // Forced off always wins.
  EXPECT_EQ(simd::detail::resolve_level("off", true, true, &reason), simd::Level::Scalar);
  EXPECT_STREQ(reason, "TCEVD_SIMD=off");
  EXPECT_EQ(simd::detail::resolve_level("scalar", true, true, &reason),
            simd::Level::Scalar);
  // Requested avx2 still requires CPU support AND a passing self-check.
  EXPECT_EQ(simd::detail::resolve_level("avx2", false, true, &reason),
            simd::Level::Scalar);
  EXPECT_EQ(simd::detail::resolve_level("avx2", true, false, &reason),
            simd::Level::Scalar);
  EXPECT_EQ(simd::detail::resolve_level("avx2", true, true, &reason),
            compiled ? simd::Level::Avx2 : simd::Level::Scalar);
  // Auto (unset, empty, "auto", or a typo) detects, never trusts blindly.
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto", "bogus"}) {
    EXPECT_EQ(simd::detail::resolve_level(env, true, true, &reason),
              compiled ? simd::Level::Avx2 : simd::Level::Scalar);
    EXPECT_EQ(simd::detail::resolve_level(env, false, true, &reason),
              simd::Level::Scalar);
    EXPECT_EQ(simd::detail::resolve_level(env, true, false, &reason),
              simd::Level::Scalar);
  }
}

TEST(SimdDispatch, ActiveLevelMatchesEnvironment) {
  // This test runs under several CI legs with different TCEVD_SIMD values:
  // assert the resolved level is consistent with whatever is set right now.
  const char* env = std::getenv("TCEVD_SIMD");
  const bool capable = simd::compiled_with_avx2() && simd::cpu_supports_avx2();
  const simd::Level lvl = simd::kernels().level;
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0)) {
    EXPECT_EQ(lvl, simd::Level::Scalar) << simd::active_level_reason();
  } else {
    EXPECT_EQ(lvl, capable ? simd::Level::Avx2 : simd::Level::Scalar)
        << simd::active_level_reason();
  }
  EXPECT_STREQ(simd::kernels().name,
               simd::kernels().level == simd::Level::Avx2 ? "avx2" : "scalar");
}

TEST(SimdDispatch, RefreshHonorsEnvOverride) {
  const char* saved = std::getenv("TCEVD_SIMD");
  const std::string saved_copy = saved != nullptr ? saved : "";

  ::setenv("TCEVD_SIMD", "off", 1);
  simd::detail::refresh_for_testing();
  EXPECT_EQ(simd::kernels().level, simd::Level::Scalar);
  EXPECT_EQ(simd::kernels().gemm_f32, nullptr);
  EXPECT_STREQ(simd::active_level_reason(), "TCEVD_SIMD=off");

  ::setenv("TCEVD_SIMD", "avx2", 1);
  simd::detail::refresh_for_testing();
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) {
    EXPECT_EQ(simd::kernels().level, simd::Level::Avx2) << simd::active_level_reason();
    EXPECT_NE(simd::kernels().gemm_f32, nullptr);
    EXPECT_NE(simd::kernels().round_fp16, nullptr);
  } else {
    EXPECT_EQ(simd::kernels().level, simd::Level::Scalar);
  }

  if (saved != nullptr)
    ::setenv("TCEVD_SIMD", saved_copy.c_str(), 1);
  else
    ::unsetenv("TCEVD_SIMD");
  simd::detail::refresh_for_testing();
}

TEST(SimdDispatch, ScalarKernelScopeForcesScalarAndCountsDispatches) {
  auto a = random_mat<float>(24, 24, 31);
  auto b = random_mat<float>(24, 24, 32);
  Matrix<float> c(24, 24);

  const simd::Level resolved = simd::kernels().level;
  const auto before = simd::dispatch_count(resolved);
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  EXPECT_EQ(simd::dispatch_count(resolved), before + 1)
      << "each packed-GEMM entry call records one dispatch at the active level";

  {
    simd::ScalarKernelScope scope;
    EXPECT_TRUE(simd::scalar_kernels_forced());
    EXPECT_EQ(simd::active_level(), simd::Level::Scalar);
    EXPECT_EQ(simd::active_kernels().gemm_f32, nullptr);
    const auto scalar_before = simd::dispatch_count(simd::Level::Scalar);
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    EXPECT_EQ(simd::dispatch_count(simd::Level::Scalar), scalar_before + 1);
  }
  EXPECT_FALSE(simd::scalar_kernels_forced());
  EXPECT_EQ(simd::active_level(), resolved);
}

// ---------------------------------------------------------------------------
// SIMD vs scalar: bitwise identity across the whole pipeline. When the
// resolved level is already Scalar (TCEVD_SIMD=off leg, non-AVX2 host) these
// compare scalar against scalar and pass vacuously — the AVX2 legs are where
// they bite.
// ---------------------------------------------------------------------------

template <typename T>
void check_simd_vs_scalar_gemm(const GemmCase& p) {
  const index_t am = (p.ta == Trans::No) ? p.m : p.k;
  const index_t an = (p.ta == Trans::No) ? p.k : p.m;
  const index_t bm = (p.tb == Trans::No) ? p.k : p.n;
  const index_t bn = (p.tb == Trans::No) ? p.n : p.k;
  auto a = random_mat<T>(am, an, 41);
  auto b = random_mat<T>(bm, bn, 42);
  auto c_simd = random_mat<T>(p.m, p.n, 43);
  auto c_scalar = c_simd;
  blas::gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c_simd.view());
  {
    simd::ScalarKernelScope scope;
    blas::gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c_scalar.view());
  }
  expect_bitwise_equal<T>(c_simd.view(), c_scalar.view());
}

TEST_P(PackedGemmTest, SimdBitwiseEqualsScalarFloat) {
  check_simd_vs_scalar_gemm<float>(GetParam());
}
TEST_P(PackedGemmTest, SimdBitwiseEqualsScalarDouble) {
  check_simd_vs_scalar_gemm<double>(GetParam());
}

TEST(SimdVsScalar, PooledSimdBitwiseEqualsSerialScalar) {
  // Crossing SIMD x threading: pooled AVX2 against serial forced-scalar.
  const index_t m = 311, n = 203, k = 277;
  auto a = random_mat<float>(m, k, 44);
  auto b = random_mat<float>(k, n, 45);
  auto c_pooled = random_mat<float>(m, n, 46);
  auto c_serial = c_pooled;
  blas::gemm<float>(Trans::No, Trans::No, 1.5f, a.view(), b.view(), 0.25f,
                    c_pooled.view());
  {
    simd::ScalarKernelScope scope;
    blas::SerialGemmScope serial;
    blas::gemm<float>(Trans::No, Trans::No, 1.5f, a.view(), b.view(), 0.25f,
                      c_serial.view());
  }
  expect_bitwise_equal<float>(c_pooled.view(), c_serial.view());
}

TEST(SimdVsScalar, AbftPathBitwiseEqualsScalar) {
  // The ABFT tile path (private tile accumulate + checksum verify) must also
  // be kernel-agnostic: same result with the checksummed pipeline on either
  // kernel family.
  const index_t m = 131, n = 67, k = 259;
  auto a = random_mat<float>(m, k, 47);
  auto b = random_mat<float>(k, n, 48);
  auto c_simd = random_mat<float>(m, n, 49);
  auto c_scalar = c_simd;
  {
    blas::abft::AbftScope abft;
    blas::gemm<float>(Trans::No, Trans::No, 1.2f, a.view(), b.view(), -0.3f,
                      c_simd.view());
  }
  {
    blas::abft::AbftScope abft;
    simd::ScalarKernelScope scope;
    blas::gemm<float>(Trans::No, Trans::No, 1.2f, a.view(), b.view(), -0.3f,
                      c_scalar.view());
  }
  expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
}

TEST(SimdVsScalar, TensorCorePathsBitwiseEqualScalar) {
  // tc_gemm (fused rounding) and ec_tcgemm (head and tail products): each
  // through the dispatched kernels vs forced scalar.
  const index_t m = 70, n = 53, k = 300;
  auto a = random_mat<float>(m, k, 51);
  auto b = random_mat<float>(k, n, 52);
  auto bt = random_mat<float>(n, k, 58);
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32}) {
    auto c_simd = random_mat<float>(m, n, 53);
    auto c_scalar = c_simd;
    tc::tc_gemm(Trans::No, Trans::Yes, 1.25f, a.view(), bt.view(), -0.5f,
                c_simd.view(), prec);
    {
      simd::ScalarKernelScope scope;
      tc::tc_gemm(Trans::No, Trans::Yes, 1.25f, a.view(), bt.view(), -0.5f,
                  c_scalar.view(), prec);
    }
    expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
  }
  {
    auto c_simd = random_mat<float>(m, n, 54);
    auto c_scalar = c_simd;
    ASSERT_TRUE(tc::ec_tcgemm(Trans::No, Trans::No, 1.1f, a.view(), b.view(), 0.6f,
                              c_simd.view())
                    .ok());
    {
      simd::ScalarKernelScope scope;
      ASSERT_TRUE(tc::ec_tcgemm(Trans::No, Trans::No, 1.1f, a.view(), b.view(), 0.6f,
                                c_scalar.view())
                      .ok());
    }
    expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
  }
}

// ---------------------------------------------------------------------------
// Convert kernels: dispatched round/split buffers bitwise-equal to the
// scalar reference over boundary values and random exponent sweeps.
// ---------------------------------------------------------------------------

std::vector<float> convert_probe_values() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> vals = {
      0.0f,       -0.0f,     1.0f,     -1.0f,   1.5f,
      65504.0f,   -65504.0f, 65519.5f, 65520.0f, -65520.0f,
      65536.0f,   1e30f,     6.103515625e-05f /* 2^-14 */,
      3.0517578125e-05f /* 2^-15: fp16 subnormal */,
      5.960464477539063e-08f /* 2^-24: smallest fp16 subnormal */,
      2.9802322387695312e-08f /* 2^-25: RNE threshold to zero */,
      4.5e-08f,   2.8e-08f,  1e-38f,   inf,     -inf,
      std::numeric_limits<float>::quiet_NaN()};
  std::uint32_t s = 0xabcd1234u;
  for (int i = 0; i < 2048; ++i) {
    s = s * 1664525u + 1013904223u;
    const std::uint32_t sign = (s & 1u) << 31;
    const std::uint32_t exp = 96u + ((s >> 8) % 48u);  // 2^-31 .. 2^16
    s = s * 1664525u + 1013904223u;
    std::uint32_t bits = sign | (exp << 23) | (s & 0x007fffffu);
    float v;
    std::memcpy(&v, &bits, sizeof v);
    vals.push_back(v);
  }
  return vals;
}

void expect_bits_equal(const std::vector<float>& a, const std::vector<float>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ab, bb;
    std::memcpy(&ab, &a[i], sizeof ab);
    std::memcpy(&bb, &b[i], sizeof bb);
    ASSERT_EQ(ab, bb) << what << " diverges at index " << i << " (input-dependent)";
  }
}

TEST(SimdConvert, RoundBufferBitwiseEqualsScalarReference) {
  const std::vector<float> src = convert_probe_values();
  const index_t n = static_cast<index_t>(src.size());
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32}) {
    std::vector<float> ref(src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
      ref[i] = tc::round_operand(src[i], prec);
    std::vector<float> out(src.size());
    tc::round_buffer(src.data(), out.data(), n, prec);
    expect_bits_equal(ref, out, "round_buffer");
    // In-place form (round_matrix uses it).
    std::vector<float> inplace = src;
    tc::round_buffer(inplace.data(), inplace.data(), n, prec);
    expect_bits_equal(ref, inplace, "round_buffer in-place");
  }
}

TEST(SimdConvert, EcSplitBufferBitwiseEqualsScalarReference) {
  const std::vector<float> src = convert_probe_values();
  const index_t n = static_cast<index_t>(src.size());
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32}) {
    std::vector<float> ref_h(src.size()), ref_t(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float h = tc::round_operand(src[i], prec);
      ref_h[i] = h;
      ref_t[i] = tc::round_operand(tc::kEcScale * (src[i] - h), prec);
    }
    std::vector<float> out_h(src.size()), out_t(src.size());
    tc::ec_split_buffer(src.data(), out_h.data(), out_t.data(), n, tc::kEcScale, prec);
    expect_bits_equal(ref_h, out_h, "ec_split head");
    expect_bits_equal(ref_t, out_t, "ec_split tail");
  }
}

// ---------------------------------------------------------------------------
// Alignment contract: the pack arenas (and anything AlignedVector-backed)
// must start on a 64-byte boundary or the SIMD aligned loads fault.
// ---------------------------------------------------------------------------

template <typename T>
bool is_kernel_aligned(const T* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kKernelAlignment == 0;
}

TEST(PackAlignment, ThreadLocalArenasAre64ByteAligned) {
  auto& bf = blas::packed::pack_buffers<float>();
  EXPECT_TRUE(is_kernel_aligned(bf.a.data()));
  EXPECT_TRUE(is_kernel_aligned(bf.b.data()));
  auto& bd = blas::packed::pack_buffers<double>();
  EXPECT_TRUE(is_kernel_aligned(bd.a.data()));
  EXPECT_TRUE(is_kernel_aligned(bd.b.data()));
}

TEST(PackAlignment, AlignedVectorAlwaysAligned) {
  // Odd sizes and regrowth must preserve the alignment guarantee.
  for (std::size_t n : {1u, 3u, 17u, 63u, 64u, 65u, 1000u, 4097u}) {
    AlignedVector<float> vf(n);
    EXPECT_TRUE(is_kernel_aligned(vf.data())) << "float n=" << n;
    AlignedVector<double> vd(n);
    EXPECT_TRUE(is_kernel_aligned(vd.data())) << "double n=" << n;
    vf.resize(3 * n + 1);
    EXPECT_TRUE(is_kernel_aligned(vf.data())) << "float regrown n=" << n;
  }
}

}  // namespace
}  // namespace tcevd
