#include "src/bulge/bulge_wavefront.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <string>
#include <type_traits>

#include "src/common/context.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/band_storage.hpp"

namespace tcevd::bulge {

namespace {

// Shared state of one diagonal's fan-out. One instance lives on the
// broadcasting caller's stack; lanes reach it through the try_broadcast ctx
// pointer. Sweep-blocks are claimed off `next_block` in ascending ticket
// order — a lane finishes its whole block before claiming another, so the
// lane holding the minimum unfinished block only ever waits on progress of a
// block that is finished or actively advancing (deadlock-free by induction).
template <typename T>
struct ChaseShared {
  MatrixView<T> a;
  MatrixView<T>* q = nullptr;
  index_t n = 0;
  index_t d = 0;
  index_t nsweeps = 0;
  index_t block = 1;   // sweeps per block (<= kMaxSweepBlock)
  index_t chunk = 1;   // eliminations advanced+published per wavestep
  index_t nblocks = 0;
  std::atomic<index_t>* progress = nullptr;  // per-sweep eliminations done
  std::atomic<index_t> next_block{0};
};

// Run every elimination of sweep-block `b` (sweeps s0 .. s0+nb-1), staggered
// so sweep j trails sweep j-1 by two eliminations — exactly the gap the
// dependency rule needs, so within the block ordering holds by program
// order and only the block's FIRST sweep ever waits on the progress vector
// (on the last sweep of the previous block, published chunk-by-chunk: blocks
// pipeline instead of serializing).
template <typename T>
void run_block(ChaseShared<T>& st, index_t b) {
  const index_t s0 = b * st.block;
  const index_t nb = std::min(st.block, st.nsweeps - s0);
  index_t len[kMaxSweepBlock];
  index_t done[kMaxSweepBlock];
  for (index_t j = 0; j < nb; ++j) {
    len[j] = detail::sweep_length(st.n, st.d, s0 + j);
    done[j] = 0;
  }
  const index_t prev_len = (s0 > 0) ? detail::sweep_length(st.n, st.d, s0 - 1) : 0;
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
        for (index_t k = done[j]; k < target; ++k) {
          detail::chase_elim(st.a, st.q, st.n, st.d, s0 + j, k);
        }
        done[j] = target;
        // Release: the next block's acquire spin on this sweep must see every
        // matrix/Q write up to elimination target-1.
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

}  // namespace

std::size_t wavefront_workspace_bytes(index_t n) {
  const std::size_t count = static_cast<std::size_t>(n > 0 ? n : 1);
  return count * sizeof(std::atomic<index_t>) + Workspace::kAlignment;
}

template <typename T>
BulgeResult<T> bulge_chase_wavefront(Context& ctx, MatrixView<T> a, index_t bw,
                                     MatrixView<T>* q, const WavefrontOptions& opt) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "bulge_chase_wavefront requires a square matrix");
  TCEVD_CHECK(bw >= 1, "bulge_chase_wavefront bandwidth must be >= 1");
  if (q) TCEVD_CHECK(q->cols() == n, "bulge_chase_wavefront Q must have n columns");

  Timer total;
  Workspace::Scope scope(ctx.workspace());

  static_assert(std::is_trivially_destructible_v<std::atomic<index_t>>,
                "progress vector is rewound by Scope, never destroyed");
  std::atomic<index_t>* progress = nullptr;
  if (n > 0) {
    void* raw = ctx.workspace().alloc_bytes(static_cast<std::size_t>(n) *
                                            sizeof(std::atomic<index_t>));
    progress = static_cast<std::atomic<index_t>*>(raw);
    for (index_t i = 0; i < n; ++i) new (progress + i) std::atomic<index_t>(0);
  }

  const index_t block = std::clamp<index_t>(opt.sweep_block, 1, kMaxSweepBlock);
  for (index_t d = std::min(bw, n - 1); d >= 2; --d) {
    Timer fanout;
    const index_t nsweeps = n - d;
    for (index_t s = 0; s < nsweeps; ++s) progress[s].store(0, std::memory_order_relaxed);

    ChaseShared<T> st;
    st.a = a;
    st.q = q;
    st.n = n;
    st.d = d;
    st.nsweeps = nsweeps;
    st.block = block;
    st.chunk = std::max<index_t>(1, opt.tile_rows / d);
    st.nblocks = (nsweeps + block - 1) / block;
    st.progress = progress;

    bool pooled = false;
    if (opt.pool != nullptr && st.nblocks > 1 && !ThreadPool::on_worker_thread()) {
      long nlanes = static_cast<long>(opt.pool->size()) + 1;  // caller steals too
      if (opt.max_lanes > 0) nlanes = std::min<long>(nlanes, opt.max_lanes);
      nlanes = std::min<long>(nlanes, static_cast<long>(st.nblocks));
      if (nlanes > 1) {
        pooled = opt.pool->try_broadcast(nlanes, &lane_trampoline<T>, &st);
      }
    }
    // Declined / serial: the caller drains every block in ticket order; each
    // wait sees an already-final progress value, so the path is wait-free and
    // applies the identical rotation sequence.
    if (!pooled) lane(st);
    ctx.telemetry().record_stage("bulge.chase.sweep", fanout.seconds());
  }

  ctx.telemetry().record_stage("bulge.chase.wavefront", total.seconds());
  BulgeResult<T> out;
  sbr::extract_tridiag<T>(a, out.d, out.e);
  return out;
}

template BulgeResult<float> bulge_chase_wavefront<float>(Context&, MatrixView<float>, index_t,
                                                         MatrixView<float>*,
                                                         const WavefrontOptions&);
template BulgeResult<double> bulge_chase_wavefront<double>(Context&, MatrixView<double>,
                                                           index_t, MatrixView<double>*,
                                                           const WavefrontOptions&);

template <typename T>
BulgeResult<T> bulge_chase_auto(Context& ctx, MatrixView<T> a, index_t bw,
                                MatrixView<T>* q, int bulge_threads) {
  const index_t n = a.rows();
  const bool forced = bulge_threads >= 2;
  const bool eligible = q != nullptr && bulge_threads != 1 && bw >= 2 && n > 2 &&
                        !ThreadPool::on_worker_thread();
  if (forced && !eligible) {
    // An explicit lane request that cannot engage used to serialize without
    // a trace; say why the lanes never lit up so perf-knob users can see it.
    const char* why = q == nullptr ? "no Q is accumulated, so the band is chased in "
                                     "compact storage"
                      : ThreadPool::on_worker_thread()
                          ? "the caller is already a thread-pool worker (nested "
                            "parallelism stays serial)"
                      : bw < 2 ? "the band is too narrow (bandwidth < 2)"
                               : "the matrix is too small (n <= 2)";
    recovery::note("evd.second_stage",
                   "bulge_threads = " + std::to_string(bulge_threads) +
                       " requested but the wavefront cannot engage: " + why +
                       "; running a serial chase (bulge_threads never changes the output)");
  }
  if (q == nullptr) {
    Timer timer;
    auto band = sbr::BandMatrix<T>::from_full(ConstMatrixView<T>(a),
                                              std::min(bw, std::max<index_t>(n - 1, 0)));
    BulgeResult<T> out;
    sbr::bulge_chase_band(band, out.d, out.e);
    ctx.telemetry().record_stage("bulge.chase.compact", timer.seconds());
    return out;
  }
  if (eligible && (forced || n >= kAutoWavefrontMinN)) {
    WavefrontOptions wopt;
    wopt.pool = &gemm_pool();
    if (forced) wopt.max_lanes = bulge_threads;
    return bulge_chase_wavefront<T>(ctx, a, bw, q, wopt);
  }
  return bulge_chase(ctx, a, bw, q);
}

template BulgeResult<float> bulge_chase_auto<float>(Context&, MatrixView<float>, index_t,
                                                    MatrixView<float>*, int);
template BulgeResult<double> bulge_chase_auto<double>(Context&, MatrixView<double>, index_t,
                                                      MatrixView<double>*, int);

}  // namespace tcevd::bulge
