// Bulge chasing band -> tridiagonal on compact band storage: the plain
// serial sweep loop, and the wavefront schedule of the same driver, which is
// pinned BITWISE-equal to the serial loop (band, d, e and accumulated Q) for
// every shape and lane count — the parallel schedule only commutes rotation
// pairs with disjoint footprints (docs/ALGORITHMS.md §14), so any arithmetic
// divergence is a scheduler bug, not roundoff.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/evd.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/band_storage.hpp"
#include "src/tensorcore/engine.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

template <typename T>
Matrix<T> random_band(index_t n, index_t bw, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<T>(a.view(), bw);
  return a;
}

template <typename T>
sbr::BandMatrix<T> compact(const Matrix<T>& a, index_t bw) {
  return sbr::BandMatrix<T>::from_full(ConstMatrixView<T>(a.view()), bw);
}

/// Serial chase of `band` (no pool): the plain sweep loop.
template <typename T>
bulge::BulgeResult<T> serial_chase(sbr::BandMatrix<T>& band, MatrixView<T>* q = nullptr) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  return bulge::bulge_chase_band<T>(ctx, band, q);
}

template <typename T>
bool same_bits(T x, T y) {
  return std::memcmp(&x, &y, sizeof(T)) == 0;
}

template <typename T>
void expect_same_tridiagonal(const bulge::BulgeResult<T>& want,
                             const bulge::BulgeResult<T>& got) {
  ASSERT_EQ(want.d.size(), got.d.size());
  ASSERT_EQ(want.e.size(), got.e.size());
  for (std::size_t i = 0; i < want.d.size(); ++i)
    EXPECT_TRUE(same_bits(want.d[i], got.d[i])) << "d[" << i << "]";
  for (std::size_t i = 0; i < want.e.size(); ++i)
    EXPECT_TRUE(same_bits(want.e[i], got.e[i])) << "e[" << i << "]";
}

/// The band's stored entries (bulge slot included), bit for bit.
template <typename T>
void expect_same_band(const sbr::BandMatrix<T>& want, const sbr::BandMatrix<T>& got) {
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.bandwidth(), got.bandwidth());
  const index_t n = want.size();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < std::min(n, j + want.bandwidth() + 2); ++i)
      ASSERT_TRUE(same_bits(want.get(i, j), got.get(i, j))) << "band(" << i << "," << j << ")";
}

template <typename T>
void expect_same_matrix(const Matrix<T>& want, const Matrix<T>& got) {
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i)
      ASSERT_TRUE(same_bits(want(i, j), got(i, j))) << "Q(" << i << "," << j << ")";
}

/// The tridiagonal (d, e) as a full matrix.
template <typename T>
Matrix<T> tridiagonal(const bulge::BulgeResult<T>& r) {
  const index_t n = static_cast<index_t>(r.d.size());
  Matrix<T> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = r.d[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = r.e[static_cast<std::size_t>(i)];
      t(i, i + 1) = r.e[static_cast<std::size_t>(i)];
    }
  }
  return t;
}

class BulgeTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(BulgeTest, ReducesToTridiagonalPreservingSpectrum) {
  const auto [n, bw] = GetParam();
  auto a = random_band<double>(n, bw, 100 + n + bw);
  auto band = compact(a, bw);
  auto res = serial_chase(band);

  // The band is now exactly tridiagonal, the bulge slot included.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 2; i < std::min(n, j + bw + 2); ++i)
      EXPECT_EQ(band.get(i, j), 0.0) << "(" << i << ", " << j << ")";

  // Spectrum preserved: compare against a full double tridiagonalization of
  // the band matrix.
  auto d = res.d;
  auto e = res.e;
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  Matrix<double> ad = a;
  std::vector<double> dd, ee, tau;
  lapack::sytrd(ad.view(), dd, ee, tau);
  ASSERT_TRUE(lapack::sterf(dd, ee).ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], dd[static_cast<std::size_t>(i)], 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BulgeTest,
                         ::testing::Values(std::make_tuple<index_t, index_t>(30, 2),
                                           std::make_tuple<index_t, index_t>(64, 8),
                                           std::make_tuple<index_t, index_t>(100, 16),
                                           std::make_tuple<index_t, index_t>(65, 7),
                                           std::make_tuple<index_t, index_t>(40, 39),   // full
                                           std::make_tuple<index_t, index_t>(50, 1)));  // noop

TEST(Bulge, AccumulatesQ) {
  const index_t n = 60, bw = 6;
  auto a = random_band<double>(n, bw, 7);
  auto band = compact(a, bw);
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  auto res = serial_chase(band, &qv);

  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-12 * n);

  // Q^T A Q == T (the tridiagonal result).
  Matrix<double> t1(n, n), t2(n, n);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), a.view(), 0.0, t1.view());
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t1.view(), q.view(), 0.0, t2.view());
  auto t = tridiagonal(res);
  EXPECT_LT(test::rel_diff<double>(t2.view(), t.view()), 1e-12);
}

TEST(Bulge, TridiagonalInputUntouched) {
  const index_t n = 25;
  auto a = random_band<double>(n, 1, 9);
  auto band = compact(a, 1);
  auto res = serial_chase(band);
  EXPECT_EQ(test::rel_diff<double>(band.to_full().view(), a.view()), 0.0);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<std::size_t>(i)], a(i, i));
}

TEST(Bulge, FloatPrecisionStable) {
  const index_t n = 120, bw = 12;
  auto a = random_band<float>(n, bw, 11);
  auto band = compact(a, bw);
  auto res = serial_chase(band);
  auto d = res.d;
  auto e = res.e;
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  // Double-precision reference spectrum of the same band matrix.
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  std::vector<double> dd, ee, tau;
  lapack::sytrd(ad.view(), dd, ee, tau);
  ASSERT_TRUE(lapack::sterf(dd, ee).ok());
  double scale = 0.0;
  for (double v : dd) scale = std::max(scale, std::abs(v));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], dd[static_cast<std::size_t>(i)], 1e-4 * scale);
}

TEST(Bulge, DiagonalMatrixIsFixedPoint) {
  const index_t n = 20;
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = static_cast<double>(i);
  auto band = compact(a, 5);
  auto res = serial_chase(band);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<std::size_t>(i)], double(i));
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_EQ(res.e[static_cast<std::size_t>(i)], 0.0);
}

// ---------------------------------------------------------------------------
// Wavefront schedule: bitwise equality with the plain serial loop.
// ---------------------------------------------------------------------------

/// One shared pool for the whole binary: 7 workers + the broadcasting caller
/// = up to 8 lanes, capped per case through bulge_chase_band's max_lanes.
ThreadPool& bulge_test_pool() {
  static ThreadPool pool(7);
  return pool;
}

/// Chase copies of the same band serially and on `lanes` lanes of `pool`;
/// require bit-exact agreement of (d, e), the chased band and, when
/// requested, the accumulated Q.
template <typename T>
void expect_wavefront_bitwise(index_t n, index_t bw, bool with_q, ThreadPool* pool, int lanes,
                              std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " bw=" << bw << " with_q=" << with_q
                                    << " lanes=" << lanes);
  const auto a = random_band<T>(n, bw, seed);

  auto serial = compact(a, bw);
  Matrix<T> q_serial(n, n), q_wave(n, n);
  set_identity(q_serial.view());
  set_identity(q_wave.view());
  auto qs = q_serial.view();
  const auto ref = serial_chase<T>(serial, with_q ? &qs : nullptr);

  tc::Fp32Engine eng;
  Context ctx(eng);
  auto wave = compact(a, bw);
  auto qw = q_wave.view();
  const auto got = bulge::bulge_chase_band<T>(ctx, wave, with_q ? &qw : nullptr, pool, lanes);

  expect_same_tridiagonal(ref, got);
  expect_same_band(serial, wave);
  if (with_q) expect_same_matrix(q_serial, q_wave);
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
}

class BulgeWavefrontBitwise : public ::testing::TestWithParam<index_t> {};

// Edge/odd/prime/pow2 sizes x bandwidths (1 = no-op, 2 = the DBR narrow-band
// shape, 3, 8, n-1 = full) x lane counts {1, 2, 8}, with and without Q.
TEST_P(BulgeWavefrontBitwise, MatchesSerialAcrossBandwidthsAndLanes) {
  const index_t n = GetParam();
  std::vector<index_t> bws = {1, 2, 3, 8};
  if (n > 1) bws.push_back(n - 1);
  std::uint64_t seed = 1000 + static_cast<std::uint64_t>(n);
  for (index_t bw : bws) {
    if (bw < 1 || bw > std::max<index_t>(n - 1, 1)) continue;
    const index_t b = std::min(bw, std::max<index_t>(n - 1, 0));  // n = 1 has no band
    for (int lanes : {1, 2, 8}) {
      expect_wavefront_bitwise<double>(n, b, /*with_q=*/false, &bulge_test_pool(), lanes, seed);
      expect_wavefront_bitwise<double>(n, b, /*with_q=*/true, &bulge_test_pool(), lanes, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulgeWavefrontBitwise,
                         ::testing::Values<index_t>(1, 2, 3, 7, 64, 129, 257));

/// Whether the gap-2 rule lets sweep block 1 start while block 0 is still
/// running at diagonal distance d (the longest sweeps, so the likeliest
/// pair). Block 1's first wavestep needs min(len, chunk + 2) eliminations of
/// sweep kSweepBlock - 1, which trails block 0's wavesteps by
/// 2 (kSweepBlock - 1) eliminations.
bool blocks_overlap(index_t n, index_t d) {
  const index_t last = bulge::kSweepBlock - 1;  // block 0's last sweep
  if (last + 1 + d >= n) return false;          // a single block
  const index_t chunk = std::max<index_t>(1, bulge::kTileRows / d);
  const index_t stagger = 2 * last;
  const index_t len = (n - 1 - last) / d;
  const index_t need = std::min((n - 2 - last) / d, chunk) + 2;
  if (need >= len) return false;  // block 1 waits for the whole sweep
  // The wavestep that publishes `need` must not be the one that ends it.
  const index_t h = (need + stagger + chunk - 1) / chunk * chunk;
  return h - stagger < len;
}

// Sweep blocks that run at the same time. Most diagonals of the grid above
// are too short for blocks_overlap and run their blocks one after another;
// on these shapes every diagonal overlaps, so the gap-2 rule over compact
// windows (the k = 0 column s - 1 included) carries the output. Q is 16 rows
// of random entries: its rows are independent, so a short Q checks the
// column order as an n x n one would, without the n^3 cost.
TEST(BulgeWavefront, OverlappingSweepBlocksMatchSerialBitwise) {
  std::uint64_t seed = 600;
  for (const auto& [n, bw] : {std::pair<index_t, index_t>{521, 2}, {521, 8}, {1031, 16},
                              {1031, 32}}) {
    for (index_t d = bw; d >= 2; --d) ASSERT_TRUE(blocks_overlap(n, d)) << "n=" << n << " d=" << d;
    const auto a = random_band<double>(n, bw, ++seed);
    Matrix<double> q0(16, n);
    Rng rng(seed);
    fill_normal(rng, q0.view());
    for (bool with_q : {false, true}) {
      auto serial = compact(a, bw);
      Matrix<double> q_serial = q0;
      auto qs = q_serial.view();
      const auto ref = serial_chase<double>(serial, with_q ? &qs : nullptr);
      for (int lanes : {2, 8}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " bw=" << bw << " with_q=" << with_q
                                          << " lanes=" << lanes);
        tc::Fp32Engine eng;
        Context ctx(eng);
        auto wave = compact(a, bw);
        Matrix<double> q_wave = q0;
        auto qw = q_wave.view();
        const auto got = bulge::bulge_chase_band<double>(ctx, wave, with_q ? &qw : nullptr,
                                                         &bulge_test_pool(), lanes);
        expect_same_tridiagonal(ref, got);
        expect_same_band(serial, wave);
        if (with_q) expect_same_matrix(q_serial, q_wave);
      }
    }
  }
}

TEST(BulgeWavefront, FloatMatchesSerialBitwise) {
  expect_wavefront_bitwise<float>(129, 8, /*with_q=*/true, &bulge_test_pool(), 0, 42);
  expect_wavefront_bitwise<float>(257, 2, /*with_q=*/true, &bulge_test_pool(), 0, 43);
  expect_wavefront_bitwise<float>(300, 32, /*with_q=*/false, &bulge_test_pool(), 4, 44);
}

// No pool at all, whatever the lane cap: the plain loop on the calling
// thread, which checks nothing out of the arena — unlike the wavefront,
// whose progress vector lives there.
TEST(BulgeWavefront, NullPoolRunsInline) {
  const auto a = random_band<double>(64, 8, 5);
  tc::Fp32Engine eng;
  Context inline_ctx(eng), pooled_ctx(eng);
  auto inline_band = compact(a, 8), pooled_band = compact(a, 8);
  const auto inline_res = bulge::bulge_chase_band<double>(inline_ctx, inline_band, nullptr,
                                                          nullptr, 8);
  const auto pooled_res = bulge::bulge_chase_band<double>(pooled_ctx, pooled_band, nullptr,
                                                          &bulge_test_pool(), 8);
  EXPECT_EQ(inline_ctx.workspace().high_water_mark(), 0u);
  EXPECT_GT(pooled_ctx.workspace().high_water_mark(), 0u);
  expect_same_tridiagonal(inline_res, pooled_res);
}

// A pool busy with another broadcast declines the fan-out; the caller then
// drains the whole wavefront schedule itself, still the serial sequence.
TEST(BulgeWavefront, BusyPoolDrainsTheScheduleInline) {
  struct Hold {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
  } hold;
  ThreadPool pool(2);
  std::thread holder([&] {
    (void)pool.try_broadcast(
        1,
        [](void* ctx, long) {
          auto* h = static_cast<Hold*>(ctx);
          h->started.store(true);
          while (!h->release.load()) std::this_thread::yield();
        },
        &hold);
  });
  while (!hold.started.load()) std::this_thread::yield();
  expect_wavefront_bitwise<double>(97, 8, /*with_q=*/true, &pool, 3, 78);
  hold.release.store(true);
  holder.join();
}

// Both instantiations attribute their time to the one "bulge.chase" stage.
TEST(BulgeWavefront, ContextOverloadsRecordStageForBothPrecisions) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  {
    auto band = compact(random_band<double>(40, 4, 3), 4);
    (void)bulge::bulge_chase_band<double>(ctx, band);
  }
  {
    auto band = compact(random_band<float>(40, 4, 3), 4);
    (void)bulge::bulge_chase_band<float>(ctx, band, nullptr, &bulge_test_pool());
  }
  long calls = 0;
  for (const auto& s : ctx.telemetry().stages())
    if (s.name == "bulge.chase") calls += s.calls;
  EXPECT_EQ(calls, 2);
}

// A chase on lanes records one "bulge.chase" span per call, nothing per
// diagonal.
TEST(BulgeWavefront, RecordsWavefrontStages) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto band = compact(random_band<double>(64, 8, 13), 8);
  (void)bulge::bulge_chase_band<double>(ctx, band, nullptr, &bulge_test_pool());
  EXPECT_GT(ctx.telemetry().stage_seconds("bulge.chase"), 0.0);
  ASSERT_EQ(ctx.telemetry().stages().size(), 1u);
  EXPECT_EQ(ctx.telemetry().stages()[0].calls, 1);
}

// The bulge_threads routing shim: 1 = serial, >= 2 = up to that many lanes
// on the shared gemm pool, 0 = auto — all bitwise-identical to the serial
// loop, Q included, with or without Q.
TEST(BulgeWavefront, AutoRouteIsBitwiseInvariant) {
  const index_t n = 80, bw = 8;
  auto a = random_band<float>(n, bw, 31);
  tc::Fp32Engine eng;

  Matrix<float> q_ref(n, n);
  set_identity(q_ref.view());
  auto qr = q_ref.view();
  auto with_q_band = compact(a, bw);
  const auto with_q_ref = serial_chase<float>(with_q_band, &qr);
  auto values_band = compact(a, bw);
  const auto values_ref = serial_chase<float>(values_band);

  for (int threads : {0, 1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "bulge_threads = " << threads);
    Context ctx(eng);
    Matrix<float> q(n, n);
    set_identity(q.view());
    auto qv = q.view();
    expect_same_tridiagonal(with_q_ref,
                            bulge::bulge_chase_auto<float>(ctx, a.view(), bw, &qv, threads));
    expect_same_matrix(q_ref, q);
    expect_same_tridiagonal(values_ref,
                            bulge::bulge_chase_auto<float>(ctx, a.view(), bw, nullptr, threads));
  }
}

// The auto route (bulge_threads = 0) takes gemm_pool()'s lanes only for a
// vectors chase from kAutoLanesMinN up. A lane chase checks its progress
// vector out of the arena; the plain loop checks out nothing. Q is one row
// (the route asks whether Q is accumulated, not how tall it is) and the band
// is narrow, so the test stays cheap.
TEST(BulgeWavefront, AutoRouteTakesLanesOnlyForVectorsFromTheCrossover) {
  const index_t bw = 2;
  const bool pool_has_workers = gemm_pool().size() > 0;
  tc::Fp32Engine eng;
  for (index_t n : {bulge::kAutoLanesMinN - 1, bulge::kAutoLanesMinN}) {
    const auto a = random_band<float>(n, bw, 91);
    Matrix<float> q(1, n);
    auto qv = q.view();
    for (bool with_q : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " with_q=" << with_q);
      Context ctx(eng);
      (void)bulge::bulge_chase_auto<float>(ctx, a.view(), bw, with_q ? &qv : nullptr, 0);
      const bool lanes = with_q && n >= bulge::kAutoLanesMinN && pool_has_workers;
      EXPECT_EQ(ctx.workspace().high_water_mark() > 0, lanes);
    }
  }
}

// A SerialGemmScope keeps the chase on the calling thread even where the
// auto route would take lanes, and a forced lane count says why it could not.
TEST(BulgeWavefront, SerialGemmScopeKeepsTheChaseOnTheCallingThread) {
  const index_t n = bulge::kAutoLanesMinN, bw = 2;
  auto a = random_band<float>(n, bw, 91);
  Matrix<float> q(1, n);
  auto qv = q.view();
  tc::Fp32Engine eng;
  blas::SerialGemmScope serial;
  for (int threads : {0, 4}) {
    SCOPED_TRACE(::testing::Message() << "bulge_threads = " << threads);
    Context ctx(eng);
    recovery::Scope notes;
    (void)bulge::bulge_chase_auto<float>(ctx, a.view(), bw, &qv, threads);
    EXPECT_EQ(ctx.workspace().high_water_mark(), 0u) << "the chase took lanes";
    const RecoveryLog log = notes.take();
    const bool downgrade_noted = log.size() == 1 && log[0].site == "evd.second_stage" &&
                                 log[0].action.find("SerialGemmScope") != std::string::npos;
    EXPECT_EQ(downgrade_noted, threads >= 2);
  }
}

// Accumulating Q never changes the chase: a vectors solve reduces its band
// to bitwise the tridiagonal of a values-only solve, on any lane count.
TEST(BulgeWavefront, WithQMatchesValuesOnlyTridiagonalBitwise) {
  const index_t n = 200, bw = 16;
  auto a = random_band<float>(n, bw, 51);
  tc::Fp32Engine eng;
  for (int threads : {0, 1, 4}) {
    SCOPED_TRACE(::testing::Message() << "bulge_threads = " << threads);
    Context ctx(eng);
    Matrix<float> q(n, n);
    set_identity(q.view());
    auto qv = q.view();
    const auto values = bulge::bulge_chase_auto<float>(ctx, a.view(), bw, nullptr, threads);
    const auto vectors = bulge::bulge_chase_auto<float>(ctx, a.view(), bw, &qv, threads);
    expect_same_tridiagonal(values, vectors);
  }
}

// The route copies the band into compact storage with and without Q: the
// full-storage input is left as it was, every call records one
// "bulge.chase", and the spectrum is the band's.
TEST(BulgeWavefront, CompactRouteLeavesInputAndRecordsItsStage) {
  const index_t n = 300, bw = 8;
  const auto a = random_band<double>(n, bw, 41);
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto work = a;
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  auto got = bulge::bulge_chase_auto<double>(ctx, work.view(), bw, nullptr, 0);
  (void)bulge::bulge_chase_auto<double>(ctx, work.view(), bw, &qv, 4);
  EXPECT_EQ(frobenius_diff<double>(work.view(), a.view()), 0.0)
      << "the chase wrote to the full-storage band";
  long calls = 0;
  for (const auto& s : ctx.telemetry().stages()) {
    if (s.name == "bulge.chase") calls += s.calls;
  }
  EXPECT_EQ(calls, 2);

  auto d = got.d, e = got.e;
  ASSERT_TRUE(lapack::steqr<double>(d, e, nullptr).ok());
  const auto ref = *evd::reference_eigenvalues(a.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-10 * n)
        << i;
}

// Regression for the silent-serialization bug: an explicit bulge_threads >= 2
// that cannot engage the wavefront (narrow band, tiny matrix, or a caller
// under a SerialGemmScope) used to fall back to a serial chase with no
// trace. It must note the downgrade at site "evd.second_stage" — and still
// produce bitwise-identical output.
TEST(BulgeWavefront, ForcedThreadsThatCannotEngageNoteTheDowngrade) {
  const index_t n = 16, bw = 1;  // bandwidth < 2: the wavefront can never engage
  auto a = random_band<float>(n, bw, 77);
  tc::Fp32Engine eng;

  Context serial_ctx(eng);
  auto serial_work = a;
  auto serial = bulge::bulge_chase_auto<float>(serial_ctx, serial_work.view(), bw,
                                               nullptr, /*bulge_threads=*/1);

  Context ctx(eng);
  auto work = a;
  recovery::Scope scope;
  auto forced = bulge::bulge_chase_auto<float>(ctx, work.view(), bw, nullptr,
                                               /*bulge_threads=*/4);
  RecoveryLog log = scope.take();
  bool noted = false;
  for (const RecoveryEvent& ev : log)
    if (ev.site == "evd.second_stage" &&
        ev.action.find("serial") != std::string::npos &&
        ev.action.find("bulge_threads = 4") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted) << "forced-but-ineligible lanes must note the serial downgrade";

  ASSERT_EQ(serial.d.size(), forced.d.size());
  for (std::size_t i = 0; i < serial.d.size(); ++i) EXPECT_EQ(serial.d[i], forced.d[i]);

  // An engageable forced request (bw >= 2, main thread), with or without Q,
  // must NOT note.
  const index_t n2 = 64, bw2 = 8;
  auto b = random_band<float>(n2, bw2, 78);
  Matrix<float> q(n2, n2);
  set_identity(q.view());
  auto qv = q.view();
  Context ctx2(eng);
  recovery::Scope scope2;
  (void)bulge::bulge_chase_auto<float>(ctx2, b.view(), bw2, &qv, /*bulge_threads=*/4);
  (void)bulge::bulge_chase_auto<float>(ctx2, b.view(), bw2, nullptr, /*bulge_threads=*/4);
  for (const RecoveryEvent& ev : scope2.take())
    EXPECT_NE(ev.site, "evd.second_stage") << ev.action;
  EXPECT_GT(ctx2.telemetry().stage_seconds("bulge.chase"), 0.0);
}

}  // namespace
}  // namespace tcevd
