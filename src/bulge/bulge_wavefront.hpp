// Bulge chasing: symmetric band -> tridiagonal, the second stage of the
// two-stage tridiagonalization (the paper calls MAGMA's implementation; this
// is the classic Givens-rotation scheme of Schwarz/Rutishauser).
//
// The bandwidth is peeled one diagonal at a time: eliminating an entry on the
// outermost diagonal with a Givens rotation creates a single bulge one place
// outside the band, which is chased down and off the matrix in strides of the
// current bandwidth. Cost is O(n^2 b) flops, which is why the paper keeps the
// SBR bandwidth b modest. Like MAGMA's second stage, the chase runs on
// compact O(n b) band storage (sbr::BandMatrix).
//
// One driver serves every two-stage solve, with or without Q. On one lane it
// runs the plain sweep loop. On more lanes it pipelines the sweeps of each
// diagonal as an anti-diagonal wavefront on a ThreadPool (Rodríguez-Sánchez
// et al., arXiv 1709.00302; Ringoot et al., arXiv 2510.12705): consecutive
// sweeps form blocks that one lane advances together (cache blocking), and
// elimination k of sweep s runs once sweep s-1 has applied min(len(s-1), k+3)
// eliminations — the gap-2 rule, tracked in a per-sweep progress vector.
// docs/ALGORITHMS.md §14 proves that every pair of rotations the rule leaves
// unordered touches disjoint band entries and Q columns, so the output — the
// chased band, (d, e) and Q — is bitwise the plain loop's for every pool and
// lane count. The test suite pins this.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/sbr/band_storage.hpp"

namespace tcevd {
class Context;
class ThreadPool;
}  // namespace tcevd

namespace tcevd::bulge {

template <typename T>
struct BulgeResult {
  std::vector<T> d;  ///< diagonal of the tridiagonal form
  std::vector<T> e;  ///< subdiagonal
};

/// Chase `band` to tridiagonal in place and return its (d, e). If `q` is
/// non-null it must have n columns; every rotation is applied to it on the
/// right (pass the SBR's Q to keep the full similarity transform). Lanes fan
/// out on `pool`, at most `max_lanes` of them (0: pool size + 1, the caller
/// included). No pool, one lane, or a diagonal with a single sweep block runs
/// on the calling thread; a busy pool (try_broadcast declined) makes the
/// caller drain the schedule itself. The output never depends on any of
/// this. The progress vector lives in the context's workspace arena, so
/// steady-state calls allocate only (d, e); the elapsed time lands on the
/// context telemetry under "bulge.chase".
template <typename T>
BulgeResult<T> bulge_chase_band(Context& ctx, sbr::BandMatrix<T>& band,
                                MatrixView<T>* q = nullptr, ThreadPool* pool = nullptr,
                                int max_lanes = 0);

extern template BulgeResult<float> bulge_chase_band<float>(Context&, sbr::BandMatrix<float>&,
                                                           MatrixView<float>*, ThreadPool*, int);
extern template BulgeResult<double> bulge_chase_band<double>(Context&,
                                                             sbr::BandMatrix<double>&,
                                                             MatrixView<double>*, ThreadPool*,
                                                             int);

/// The wavefront's schedule constants; the output depends on neither.
/// kSweepBlock consecutive sweeps form a block that one lane advances
/// together (cache blocking); each sweep advances kTileRows band rows per
/// wavestep, so at diagonal distance d it applies and publishes
/// max(1, kTileRows / d) eliminations at a time.
inline constexpr index_t kSweepBlock = 8;
inline constexpr index_t kTileRows = 192;

/// Upper bound on the context-workspace bytes bulge_chase_band checks out
/// for an n x n problem on more than one lane (its per-sweep progress
/// vector). Add this to lwork-style reservations alongside
/// evd/sbr workspace_query.
std::size_t wavefront_workspace_bytes(index_t n);

/// Smallest n for which the auto route (bulge_threads == 0) runs lanes when
/// Q is accumulated: the chase-stage crossover on a 4-core host
/// (EXPERIMENTS.md, "One compact chase": at n = 768 the serial chase still
/// won; at n = 1024 four lanes did). End to end at n = 1024 lanes led in 7
/// of 10 pairs by less than the spread, so it is unverified there.
inline constexpr index_t kAutoLanesMinN = 1024;

/// The solve drivers' entry point: copies the band of `a` (full storage,
/// bandwidth `bw`) into compact storage and chases it with bulge_chase_band,
/// applying every rotation to `q` when it is non-null. Only the lane count
/// depends on EvdOptions::bulge_threads: 1 runs serially, k >= 2 allows up
/// to k lanes on gemm_pool(), and 0 uses gemm_pool()'s lanes only when Q is
/// accumulated and n >= kAutoLanesMinN. Inside a blas::SerialGemmScope —
/// every EvdService runner holds one, since the runners are the parallelism —
/// the chase stays on the calling thread at every setting. An explicit
/// k >= 2 that cannot engage (SerialGemmScope, bandwidth < 2 or n <= 2) runs
/// serially and notes the downgrade at recovery site "evd.second_stage".
/// Output never depends on bulge_threads.
template <typename T>
BulgeResult<T> bulge_chase_auto(Context& ctx, ConstMatrixView<T> a, index_t bw,
                                MatrixView<T>* q, int bulge_threads);

extern template BulgeResult<float> bulge_chase_auto<float>(Context&, ConstMatrixView<float>,
                                                           index_t, MatrixView<float>*, int);
extern template BulgeResult<double> bulge_chase_auto<double>(Context&,
                                                             ConstMatrixView<double>, index_t,
                                                             MatrixView<double>*, int);

}  // namespace tcevd::bulge
