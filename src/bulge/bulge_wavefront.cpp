#include "src/bulge/bulge_wavefront.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <new>
#include <string>
#include <type_traits>

#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"

namespace tcevd::bulge {

namespace {

/// Two-sided Givens rotation in the (i, i+1) plane on compact band storage.
/// `dmax` is the largest live distance (current bandwidth + the bulge slot);
/// entries beyond it are structural zeros and are neither read nor written.
template <typename T>
void rotate_band(sbr::BandMatrix<T>& a, index_t i, T c, T s, index_t dmax) {
  const index_t n = a.size();
  const index_t j = i + 1;

  // Columns k < i: rows i and j of column k (j - k <= dmax bounds k).
  for (index_t k = (j > dmax) ? j - dmax : 0; k < i; ++k) {
    T& aik = a.at(i, k);
    T& ajk = a.at(j, k);
    const T t1 = aik;
    const T t2 = ajk;
    aik = c * t1 + s * t2;
    ajk = -s * t1 + c * t2;
  }

  // The 2x2 diagonal block.
  {
    const T aii = a.at(i, i);
    const T ajj = a.at(j, j);
    const T aji = a.at(j, i);
    a.at(i, i) = c * c * aii + T{2} * c * s * aji + s * s * ajj;
    a.at(j, j) = s * s * aii - T{2} * c * s * aji + c * c * ajj;
    a.at(j, i) = (c * c - s * s) * aji + c * s * (ajj - aii);
  }

  // Rows k > j: columns i and j of row k (k - i <= dmax bounds k).
  for (index_t k = j + 1, khi = std::min(n, i + dmax + 1); k < khi; ++k) {
    T& aki = a.at(k, i);
    T& akj = a.at(k, j);
    const T t1 = aki;
    const T t2 = akj;
    aki = c * t1 + s * t2;
    akj = -s * t1 + c * t2;
  }
}

/// Right-multiply q by the rotation in the plane (i, i+1), over every row.
template <typename T>
void rotate_q(MatrixView<T> q, index_t i, T c, T s) {
  T* qi = &q(0, i);
  T* qj = &q(0, i + 1);
  for (index_t k = 0; k < q.rows(); ++k) {
    const T t1 = qi[k];
    const T t2 = qj[k];
    qi[k] = c * t1 + s * t2;
    qj[k] = -s * t1 + c * t2;
  }
}

/// Number of eliminations of sweep `s` at diagonal distance `d`: the bulge
/// lands at rows s + d, s + 2d, ... while they stay below n.
index_t sweep_length(index_t n, index_t d, index_t s) { return (n - 1 - s) / d; }

/// Elimination k of sweep s at diagonal distance d. k == 0 zeroes the
/// outer-diagonal entry (s + d, s); every later k zeroes the bulge the
/// previous elimination pushed d rows further down. (d, s, k) fixes every
/// touched entry, so drivers need no per-sweep state beyond k.
template <typename T>
void chase_elim(sbr::BandMatrix<T>& a, MatrixView<T>* q, index_t d, index_t s, index_t k) {
  const index_t tcol = (k == 0) ? s : s + k * d - 1;
  const index_t row = s + (k + 1) * d;
  const T g = a.at(row, tcol);
  if (g != T{}) {
    const T f = a.at(row - 1, tcol);
    const T h = std::hypot(f, g);
    const T c = f / h;
    const T sn = g / h;
    // Live distances: current band d plus the bulge one beyond.
    rotate_band(a, row - 1, c, sn, d + 1);
    a.at(row, tcol) = T{};
    if (q != nullptr) rotate_q(*q, row - 1, c, sn);
  }
}

// Shared state of one diagonal's fan-out. One instance lives on the
// broadcasting caller's stack; lanes reach it through the try_broadcast ctx
// pointer. Sweep blocks are claimed off `next_block` in ascending ticket
// order — a lane finishes its whole block before claiming another, so the
// lane holding the minimum unfinished block only ever waits on progress of a
// block that is finished or actively advancing (deadlock-free by induction).
template <typename T>
struct ChaseShared {
  sbr::BandMatrix<T>* a = nullptr;
  MatrixView<T>* q = nullptr;
  index_t n = 0;
  index_t d = 0;
  index_t nsweeps = 0;
  index_t chunk = 1;  // eliminations advanced and published per wavestep
  index_t nblocks = 0;
  std::atomic<index_t>* progress = nullptr;  // per-sweep eliminations done
  std::atomic<index_t> next_block{0};
};

// Run every elimination of sweep block `b` (sweeps s0 .. s0+nb-1), staggered
// so sweep j trails sweep j-1 by two eliminations — exactly the gap the
// dependency rule needs, so within the block ordering holds by program
// order and only the block's FIRST sweep ever waits on the progress vector
// (on the last sweep of the previous block, published chunk by chunk: blocks
// pipeline instead of serializing).
template <typename T>
void run_block(ChaseShared<T>& st, index_t b) {
  const index_t s0 = b * kSweepBlock;
  const index_t nb = std::min(kSweepBlock, st.nsweeps - s0);
  index_t len[kSweepBlock];
  index_t done[kSweepBlock];
  for (index_t j = 0; j < nb; ++j) {
    len[j] = sweep_length(st.n, st.d, s0 + j);
    done[j] = 0;
  }
  const index_t prev_len = (s0 > 0) ? sweep_length(st.n, st.d, s0 - 1) : 0;
  for (index_t h = st.chunk;; h += st.chunk) {
    bool all_done = true;
    for (index_t j = 0; j < nb; ++j) {
      const index_t stagger = 2 * j;
      const index_t target = std::min(len[j], h > stagger ? h - stagger : index_t{0});
      if (target > done[j]) {
        if (j == 0 && s0 > 0) {
          // Gap-2 rule: elimination k needs progress[s0-1] >= min(prev_len,
          // k+3); covering k = target-1 covers the whole chunk.
          const index_t need = std::min(prev_len, target + 2);
          int backoff = 0;
          while (st.progress[s0 - 1].load(std::memory_order_acquire) < need) {
            spin_wait_hint(backoff);
          }
        }
        for (index_t k = done[j]; k < target; ++k) chase_elim(*st.a, st.q, st.d, s0 + j, k);
        done[j] = target;
        // Release: the next block's acquire spin on this sweep must see every
        // band/Q write up to elimination target-1.
        st.progress[s0 + j].store(target, std::memory_order_release);
      }
      if (done[j] < len[j]) all_done = false;
    }
    if (all_done) return;
  }
}

template <typename T>
void lane(ChaseShared<T>& st) {
  for (;;) {
    const index_t b = st.next_block.fetch_add(1, std::memory_order_relaxed);
    if (b >= st.nblocks) return;
    run_block(st, b);
  }
}

template <typename T>
void lane_trampoline(void* ctx, long /*lane_index*/) {
  lane(*static_cast<ChaseShared<T>*>(ctx));
}

/// Chase diagonal distances bw .. 2 on `lanes` lanes of `pool`.
template <typename T>
void chase_wavefront(Context& ctx, sbr::BandMatrix<T>& a, MatrixView<T>* q, ThreadPool& pool,
                     long lanes) {
  const index_t n = a.size();
  Workspace::Scope scope(ctx.workspace());
  static_assert(std::is_trivially_destructible_v<std::atomic<index_t>>,
                "progress vector is rewound by Scope, never destroyed");
  void* raw = ctx.workspace().alloc_bytes(static_cast<std::size_t>(n) *
                                          sizeof(std::atomic<index_t>));
  auto* progress = static_cast<std::atomic<index_t>*>(raw);
  for (index_t i = 0; i < n; ++i) new (progress + i) std::atomic<index_t>(0);

  for (index_t d = a.bandwidth(); d >= 2; --d) {
    const index_t nsweeps = n - d;
    for (index_t s = 0; s < nsweeps; ++s) progress[s].store(0, std::memory_order_relaxed);

    ChaseShared<T> st;
    st.a = &a;
    st.q = q;
    st.n = n;
    st.d = d;
    st.nsweeps = nsweeps;
    st.chunk = std::max<index_t>(1, kTileRows / d);
    st.nblocks = (nsweeps + kSweepBlock - 1) / kSweepBlock;
    st.progress = progress;

    const long nlanes = std::min<long>(lanes, static_cast<long>(st.nblocks));
    // Declined or a single block: the caller drains every block in ticket
    // order; each wait then sees an already-final progress value, so the
    // path is wait-free and applies the same rotation sequence.
    if (nlanes < 2 || !pool.try_broadcast(nlanes, &lane_trampoline<T>, &st)) lane(st);
  }
}

}  // namespace

std::size_t wavefront_workspace_bytes(index_t n) {
  const std::size_t count = static_cast<std::size_t>(n > 0 ? n : 1);
  return count * sizeof(std::atomic<index_t>) + Workspace::kAlignment;
}

template <typename T>
BulgeResult<T> bulge_chase_band(Context& ctx, sbr::BandMatrix<T>& band, MatrixView<T>* q,
                                ThreadPool* pool, int max_lanes) {
  const index_t n = band.size();
  if (q) TCEVD_CHECK(q->cols() == n, "bulge_chase_band Q must have n columns");
  StageTimer stage(ctx.telemetry(), "bulge.chase");

  long lanes = 1;
  if (pool != nullptr) {
    lanes = static_cast<long>(pool->size()) + 1;  // the caller steals blocks too
    if (max_lanes > 0) lanes = std::min<long>(lanes, max_lanes);
  }
  if (band.bandwidth() >= 2 && n > 2) {
    if (lanes > 1) {
      chase_wavefront(ctx, band, q, *pool, lanes);
    } else {
      // The plain sweep loop: the serial order the wavefront reproduces.
      for (index_t d = band.bandwidth(); d >= 2; --d)
        for (index_t s = 0; s + d < n; ++s)
          for (index_t k = 0, len = sweep_length(n, d, s); k < len; ++k)
            chase_elim(band, q, d, s, k);
    }
  }
  // Bandwidth <= 1 (the DBR narrow-band case) is already tridiagonal: the
  // second stage is this extraction.
  BulgeResult<T> out;
  band.extract_tridiagonal(out.d, out.e);
  return out;
}

template BulgeResult<float> bulge_chase_band<float>(Context&, sbr::BandMatrix<float>&,
                                                    MatrixView<float>*, ThreadPool*, int);
template BulgeResult<double> bulge_chase_band<double>(Context&, sbr::BandMatrix<double>&,
                                                      MatrixView<double>*, ThreadPool*, int);

template <typename T>
BulgeResult<T> bulge_chase_auto(Context& ctx, ConstMatrixView<T> a, index_t bw,
                                MatrixView<T>* q, int bulge_threads) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "bulge_chase_auto requires a square matrix");
  TCEVD_CHECK(bw >= 1, "bulge_chase_auto bandwidth must be >= 1");
  const bool forced = bulge_threads >= 2;
  const bool eligible = bulge_threads != 1 && bw >= 2 && n > 2 && !blas::gemm_serial_forced();
  if (forced && !eligible) {
    // Say why the requested lanes never lit up, so perf-knob users can see it.
    const char* why = blas::gemm_serial_forced()
                          ? "a SerialGemmScope is open on the calling thread"
                      : bw < 2 ? "the band is too narrow (bandwidth < 2)"
                               : "the matrix is too small (n <= 2)";
    recovery::note("evd.second_stage",
                   "bulge_threads = " + std::to_string(bulge_threads) +
                       " requested but the wavefront cannot engage: " + why +
                       "; running a serial chase (bulge_threads never changes the output)");
  }
  const bool lanes = eligible && (forced || (q != nullptr && n >= kAutoLanesMinN));
  auto band = sbr::BandMatrix<T>::from_full(a, std::min(bw, std::max<index_t>(n - 1, 0)));
  return bulge_chase_band<T>(ctx, band, q, lanes ? &gemm_pool() : nullptr,
                             forced ? bulge_threads : 0);
}

template BulgeResult<float> bulge_chase_auto<float>(Context&, ConstMatrixView<float>, index_t,
                                                    MatrixView<float>*, int);
template BulgeResult<double> bulge_chase_auto<double>(Context&, ConstMatrixView<double>,
                                                      index_t, MatrixView<double>*, int);

}  // namespace tcevd::bulge
