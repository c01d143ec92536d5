// Wavefront-parallel, cache-blocked bulge chasing.
//
// The serial chase (bulge_chasing.hpp) runs the sweeps of each diagonal one
// after another; this driver pipelines them. Consecutive sweeps are grouped
// into blocked sweep-sets (cache blocking: one lane advances a whole set
// through a band tile before the tile leaves cache), the band is cut into
// row tiles, and sweep s+1 enters a tile region as soon as sweep s has
// cleared it — the classic anti-diagonal wavefront of Rodríguez-Sánchez et
// al. (arXiv 1709.00302) and Ringoot et al. (arXiv 2510.12705), mapped onto
// the shared ThreadPool via the allocation-free try_broadcast fan-out.
//
// Dependency tracking is a per-sweep progress vector: progress[s] counts the
// chase eliminations of sweep s already applied at the current diagonal.
// Elimination k of sweep s may run once progress[s-1] >= min(len(s-1), k+3)
// — the gap-2 rule. DESIGN.md §14 proves that every pair of rotation
// applications this rule leaves unordered touches disjoint matrix entries,
// so ANY schedule respecting it — any lane count, block size, or tile height
// — applies the exact serial rotation sequence to every memory location and
// the output (tridiagonal d/e AND accumulated Q) is bitwise-equal to
// bulge_chase for every thread count. The test suite pins this.
#pragma once

#include <cstddef>

#include "src/bulge/bulge_chasing.hpp"
#include "src/common/matrix.hpp"

namespace tcevd {
class Context;
class ThreadPool;
}  // namespace tcevd

namespace tcevd::bulge {

struct WavefrontOptions {
  /// Pool to fan lanes out on (e.g. &gemm_pool()). nullptr, a busy pool
  /// (try_broadcast declined), or a caller that is itself a pool worker all
  /// fall back to the caller draining every sweep-block inline — same
  /// rotations, same output, no deadlock.
  ThreadPool* pool = nullptr;
  /// Consecutive sweeps advanced together by one lane (cache blocking).
  /// Clamped to [1, kMaxSweepBlock]. Output does not depend on it.
  index_t sweep_block = 8;
  /// Band rows a sweep advances per wavestep (the tile height); the chunk of
  /// eliminations published at once is max(1, tile_rows / d). Output does
  /// not depend on it.
  index_t tile_rows = 192;
  /// Cap on broadcast lanes; 0 means pool size + 1 (the caller participates).
  int max_lanes = 0;
};

/// Upper bound on the context-workspace bytes bulge_chase_wavefront checks
/// out for an n x n problem (its per-sweep progress vector). Add this to
/// lwork-style reservations alongside evd/sbr workspace_query.
std::size_t wavefront_workspace_bytes(index_t n);

/// Hard cap on WavefrontOptions::sweep_block (per-lane stack state is sized
/// by it).
inline constexpr index_t kMaxSweepBlock = 32;

/// Reduce symmetric band `a` (full storage, bandwidth `bw`) to tridiagonal,
/// bitwise-equal to bulge_chase(a, bw, q) for every pool /
/// lane count / blocking choice. Elapsed time lands on the context telemetry
/// under "bulge.chase.wavefront" (total) and "bulge.chase.sweep" (summed
/// per-diagonal fan-out windows). Progress state lives in the context
/// workspace arena — steady-state calls allocate nothing.
template <typename T>
BulgeResult<T> bulge_chase_wavefront(Context& ctx, MatrixView<T> a, index_t bw,
                                     MatrixView<T>* q = nullptr,
                                     const WavefrontOptions& opt = {});

extern template BulgeResult<float> bulge_chase_wavefront<float>(
    Context&, MatrixView<float>, index_t, MatrixView<float>*, const WavefrontOptions&);
extern template BulgeResult<double> bulge_chase_wavefront<double>(
    Context&, MatrixView<double>, index_t, MatrixView<double>*, const WavefrontOptions&);

/// Smallest n the auto route (bulge_threads == 0) considers worth fanning
/// out: below this the per-diagonal broadcast join overhead beats the win.
inline constexpr index_t kAutoWavefrontMinN = 256;

/// Routing shim for the solver drivers: the one place the second stage's
/// storage and threading are chosen. Without Q (q == nullptr, a values-only
/// solve) the band is copied into compact O(n*b) storage and chased by
/// sbr::bulge_chase_band, serially and leaving `a` untouched; the stage is
/// memory-bound, and the compact chase beat the full-storage wavefront in
/// whole values-only solves (EXPERIMENTS.md). Its time lands on the context
/// telemetry under "bulge.chase.compact". With Q, EvdOptions::bulge_threads
/// decides: 1 forces the serial chase, >= 2 forces the wavefront on
/// gemm_pool() capped at that many lanes, anything else picks the wavefront
/// automatically when the problem is big enough (kAutoWavefrontMinN), the
/// band is chaseable (bw >= 2), and the caller is not itself a pool worker
/// (EvdService runners are the parallelism — fanning out under them would
/// only add spin overhead). An explicit bulge_threads >= 2 that cannot
/// engage notes the downgrade at recovery site "evd.second_stage". Output
/// never depends on bulge_threads: both full-storage chases apply the same
/// rotations bit for bit, and every chase without Q is compact.
template <typename T>
BulgeResult<T> bulge_chase_auto(Context& ctx, MatrixView<T> a, index_t bw,
                                MatrixView<T>* q, int bulge_threads);

extern template BulgeResult<float> bulge_chase_auto<float>(Context&, MatrixView<float>,
                                                           index_t, MatrixView<float>*, int);
extern template BulgeResult<double> bulge_chase_auto<double>(Context&, MatrixView<double>,
                                                             index_t, MatrixView<double>*,
                                                             int);

}  // namespace tcevd::bulge
