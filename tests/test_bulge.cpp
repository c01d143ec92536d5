// Bulge chasing band -> tridiagonal: the serial reference chase and the
// wavefront-parallel engine, which is pinned BITWISE-equal to serial (d, e,
// and accumulated Q) for every shape, thread count, and blocking choice —
// the parallel schedule only commutes rotation pairs with disjoint
// footprints (DESIGN.md §14), so any arithmetic divergence is a scheduler
// bug, not roundoff.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/service.hpp"
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

class BulgeTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(BulgeTest, ReducesToTridiagonalPreservingSpectrum) {
  const auto [n, bw] = GetParam();
  auto a = random_band<double>(n, bw, 100 + n + bw);
  auto work = a;
  auto res = bulge::bulge_chase<double>(work.view(), bw, nullptr);

  // Work matrix is now exactly tridiagonal.
  EXPECT_EQ(sbr::band_violation<double>(work.view(), 1), 0.0);

  // Spectrum preserved: compare against direct bisection on the band matrix
  // via full tridiagonalization in double.
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
  auto work = a;
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  (void)bulge::bulge_chase<double>(work.view(), bw, &qv);

  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-12 * n);

  // Q^T A Q == T (the tridiagonal result).
  Matrix<double> t1(n, n), t2(n, n);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), a.view(), 0.0, t1.view());
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t1.view(), q.view(), 0.0, t2.view());
  EXPECT_LT(test::rel_diff<double>(t2.view(), work.view()), 1e-12);
}

TEST(Bulge, TridiagonalInputUntouched) {
  const index_t n = 25;
  auto a = random_band<double>(n, 1, 9);
  auto work = a;
  auto res = bulge::bulge_chase<double>(work.view(), 1, nullptr);
  EXPECT_LT(test::rel_diff<double>(work.view(), a.view()), 1e-15);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<std::size_t>(i)], a(i, i));
}

TEST(Bulge, FloatPrecisionStable) {
  const index_t n = 120, bw = 12;
  auto a = random_band<float>(n, bw, 11);
  auto work = a;
  auto res = bulge::bulge_chase<float>(work.view(), bw, nullptr);
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
  auto res = bulge::bulge_chase<double>(a.view(), 5, nullptr);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<std::size_t>(i)], double(i));
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_EQ(res.e[static_cast<std::size_t>(i)], 0.0);
}

// ---------------------------------------------------------------------------
// Wavefront engine: bitwise equality with the serial reference.
// ---------------------------------------------------------------------------

/// Run the serial chase and the wavefront chase on copies of the same band
/// matrix and require element-exact agreement of the tridiagonal (d, e), the
/// chased matrix, and (when requested) the accumulated Q.
template <typename T>
void expect_wavefront_bitwise(index_t n, index_t bw, bool with_q,
                              const bulge::WavefrontOptions& wopt, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " bw=" << bw << " with_q=" << with_q
                                    << " lanes=" << wopt.max_lanes
                                    << " block=" << wopt.sweep_block
                                    << " tile_rows=" << wopt.tile_rows);
  auto a = random_band<T>(n, bw, seed);

  auto serial = a;
  Matrix<T> q_serial(n, n), q_wave(n, n);
  set_identity(q_serial.view());
  set_identity(q_wave.view());
  auto qs = q_serial.view();
  auto ref = bulge::bulge_chase<T>(serial.view(), bw, with_q ? &qs : nullptr);

  tc::Fp32Engine eng;
  Context ctx(eng);
  auto wave = a;
  auto qw = q_wave.view();
  auto got = bulge::bulge_chase_wavefront<T>(ctx, wave.view(), bw,
                                             with_q ? &qw : nullptr, wopt);

  ASSERT_EQ(ref.d.size(), got.d.size());
  ASSERT_EQ(ref.e.size(), got.e.size());
  for (std::size_t i = 0; i < ref.d.size(); ++i) EXPECT_EQ(ref.d[i], got.d[i]) << "d[" << i << "]";
  for (std::size_t i = 0; i < ref.e.size(); ++i) EXPECT_EQ(ref.e[i], got.e[i]) << "e[" << i << "]";
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(serial(i, j), wave(i, j)) << "A(" << i << "," << j << ")";
      if (with_q) {
        EXPECT_EQ(q_serial(i, j), q_wave(i, j)) << "Q(" << i << "," << j << ")";
      }
    }
}

/// One shared pool for the whole binary: 7 workers + the broadcasting caller
/// = up to 8 lanes, capped per-case via WavefrontOptions::max_lanes.
ThreadPool& bulge_test_pool() {
  static ThreadPool pool(7);
  return pool;
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
    for (int lanes : {1, 2, 8}) {
      bulge::WavefrontOptions wopt;
      wopt.pool = &bulge_test_pool();
      wopt.max_lanes = lanes;
      expect_wavefront_bitwise<double>(n, bw, /*with_q=*/false, wopt, seed);
      expect_wavefront_bitwise<double>(n, bw, /*with_q=*/true, wopt, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulgeWavefrontBitwise,
                         ::testing::Values<index_t>(1, 2, 3, 7, 64, 129, 257));

TEST(BulgeWavefront, FloatMatchesSerialBitwise) {
  bulge::WavefrontOptions wopt;
  wopt.pool = &bulge_test_pool();
  expect_wavefront_bitwise<float>(129, 8, /*with_q=*/true, wopt, 42);
  expect_wavefront_bitwise<float>(257, 2, /*with_q=*/true, wopt, 43);
}

// Output must be invariant under every cache-blocking choice: the sweep-set
// size and tile height only reshape the schedule, never the rotation values
// or any conflicting pair's order.
TEST(BulgeWavefront, BlockingChoicesDoNotChangeOutput) {
  for (index_t sweep_block : {index_t{1}, index_t{2}, index_t{5}, index_t{32}}) {
    for (index_t tile_rows : {index_t{1}, index_t{64}, index_t{192}}) {
      bulge::WavefrontOptions wopt;
      wopt.pool = &bulge_test_pool();
      wopt.sweep_block = sweep_block;
      wopt.tile_rows = tile_rows;
      expect_wavefront_bitwise<double>(129, 3, /*with_q=*/true, wopt, 77);
      expect_wavefront_bitwise<double>(97, 8, /*with_q=*/false, wopt, 78);
    }
  }
}

// No pool at all: the caller drains every sweep-block inline — still the
// exact serial rotation sequence.
TEST(BulgeWavefront, NullPoolRunsInline) {
  bulge::WavefrontOptions wopt;  // pool == nullptr
  expect_wavefront_bitwise<double>(64, 8, /*with_q=*/true, wopt, 5);
}

// The double Context overload must exist and attribute its time to the
// "bulge.chase" telemetry stage (regression: it used to be float-only, so
// double reference pipelines lost stage attribution).
TEST(BulgeWavefront, ContextOverloadsRecordStageForBothPrecisions) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  {
    auto a = random_band<double>(40, 4, 3);
    (void)bulge::bulge_chase(ctx, a.view(), 4, nullptr);
  }
  {
    auto a = random_band<float>(40, 4, 3);
    (void)bulge::bulge_chase(ctx, a.view(), 4, nullptr);
  }
  const auto& stages = ctx.telemetry().stages();
  long calls = 0;
  for (const auto& s : stages)
    if (s.name == "bulge.chase") calls += s.calls;
  EXPECT_EQ(calls, 2);
}

TEST(BulgeWavefront, RecordsWavefrontStages) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto a = random_band<double>(64, 8, 13);
  bulge::WavefrontOptions wopt;
  wopt.pool = &bulge_test_pool();
  (void)bulge::bulge_chase_wavefront<double>(ctx, a.view(), 8, nullptr, wopt);
  EXPECT_GT(ctx.telemetry().stage_seconds("bulge.chase.wavefront"), 0.0);
  // One fan-out window per peeled diagonal: d = 8 .. 2.
  for (const auto& s : ctx.telemetry().stages()) {
    if (s.name == "bulge.chase.sweep") {
      EXPECT_EQ(s.calls, 7);
    }
  }
}

// The bulge_threads routing shim with Q: 1 = serial, >= 2 = forced
// wavefront on the shared gemm pool — all bitwise-identical, Q included.
// Without Q every setting takes the compact band chase, so the output equals
// sbr::bulge_chase_band on the same band whatever bulge_threads says.
TEST(BulgeWavefront, AutoRouteIsBitwiseInvariant) {
  const index_t n = 80, bw = 8;  // n < kAutoWavefrontMinN: auto stays serial
  auto a = random_band<float>(n, bw, 31);
  tc::Fp32Engine eng;

  auto expect_same = [&](const bulge::BulgeResult<float>& want,
                         const bulge::BulgeResult<float>& got, int threads) {
    ASSERT_EQ(want.d.size(), got.d.size());
    ASSERT_EQ(want.e.size(), got.e.size());
    for (std::size_t i = 0; i < want.d.size(); ++i)
      EXPECT_EQ(want.d[i], got.d[i]) << "bulge_threads = " << threads << ", d[" << i << "]";
    for (std::size_t i = 0; i < want.e.size(); ++i)
      EXPECT_EQ(want.e[i], got.e[i]) << "bulge_threads = " << threads << ", e[" << i << "]";
  };

  Matrix<float> q_ref(n, n);
  set_identity(q_ref.view());
  auto ref_work = a;
  auto qr = q_ref.view();
  const auto with_q_ref = bulge::bulge_chase<float>(ref_work.view(), bw, &qr);

  bulge::BulgeResult<float> values_ref;
  auto band = sbr::BandMatrix<float>::from_full(ConstMatrixView<float>(a.view()), bw);
  sbr::bulge_chase_band(band, values_ref.d, values_ref.e);

  for (int threads : {0, 1, 2, 8}) {
    Context ctx(eng);
    auto work = a;
    Matrix<float> q(n, n);
    set_identity(q.view());
    auto qv = q.view();
    expect_same(with_q_ref,
                bulge::bulge_chase_auto<float>(ctx, work.view(), bw, &qv, threads), threads);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(q(i, j), q_ref(i, j)) << "bulge_threads = " << threads;

    auto values_work = a;
    expect_same(values_ref,
                bulge::bulge_chase_auto<float>(ctx, values_work.view(), bw, nullptr, threads),
                threads);
  }
}

// Without Q the route copies the band into compact storage: the full-storage
// input is left as it was, and the time lands under "bulge.chase.compact",
// never under the full-storage stages.
TEST(BulgeWavefront, CompactRouteLeavesInputAndRecordsItsStage) {
  const index_t n = 300, bw = 8;  // large enough for the auto wavefront with Q
  auto a = random_band<double>(n, bw, 41);
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto work = a;
  auto got = bulge::bulge_chase_auto<double>(ctx, work.view(), bw, nullptr, 0);
  ASSERT_EQ(got.d.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(frobenius_diff<double>(work.view(), a.view()), 0.0)
      << "the compact route wrote to the full-storage band";
  long compact_calls = 0;
  for (const auto& s : ctx.telemetry().stages()) {
    if (s.name == "bulge.chase.compact") compact_calls += s.calls;
    EXPECT_NE(s.name, "bulge.chase.wavefront");
    EXPECT_NE(s.name, "bulge.chase");
  }
  EXPECT_EQ(compact_calls, 1);

  // Same spectrum as the full-storage chase, to roundoff.
  auto serial_work = a;
  auto serial = bulge::bulge_chase<double>(serial_work.view(), bw);
  auto d1 = got.d, e1 = got.e, d2 = serial.d, e2 = serial.e;
  ASSERT_TRUE(lapack::steqr<double>(d1, e1, nullptr).ok());
  ASSERT_TRUE(lapack::steqr<double>(d2, e2, nullptr).ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d1[static_cast<std::size_t>(i)], d2[static_cast<std::size_t>(i)], 1e-10 * n)
        << i;
}

// Regression for the silent-serialization bug: an explicit bulge_threads >= 2
// that cannot engage the wavefront (no Q, narrow band, tiny matrix, or a
// caller that is already a pool worker) used to fall back to a serial chase
// with no trace. It must now note the downgrade at site "evd.second_stage" —
// and still produce bitwise-identical output.
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

  // An engageable forced request (Q accumulated, bw >= 2, main thread) must
  // NOT note.
  const index_t n2 = 64, bw2 = 8;
  auto b = random_band<float>(n2, bw2, 78);
  Matrix<float> q(n2, n2);
  set_identity(q.view());
  auto qv = q.view();
  Context ctx2(eng);
  recovery::Scope scope2;
  (void)bulge::bulge_chase_auto<float>(ctx2, b.view(), bw2, &qv, /*bulge_threads=*/4);
  for (const RecoveryEvent& ev : scope2.take())
    EXPECT_NE(ev.site, "evd.second_stage") << ev.action;
  EXPECT_GT(ctx2.telemetry().stage_seconds("bulge.chase.wavefront"), 0.0);
}

// The downgrade is also visible end-to-end: an EvdService runner IS a pool
// thread, so an explicit lane request on a vectors solve serializes there —
// with the note surfaced in the request's recovery log.
TEST(BulgeWavefront, ForcedThreadsUnderServiceRunnerNoteTheDowngrade) {
  std::vector<Matrix<float>> mats;
  mats.push_back(test::random_symmetric<float>(64, 79));
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  ropt.evd.bulge_threads = 4;
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_TRUE(res[0].status.ok()) << res[0].status.to_string();
  bool noted = false;
  for (const RecoveryEvent& ev : res[0].recovery)
    if (ev.site == "evd.second_stage" &&
        ev.action.find("thread-pool worker") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted) << "lane request serialized on a pool worker without a note";
}

}  // namespace
}  // namespace tcevd
