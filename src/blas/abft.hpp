// ABFT (algorithm-based fault tolerance) for the packed GEMM pipeline.
//
// When ABFT is enabled, the packed GEMM kernel (gemm_packed — and therefore
// blas::gemm, tc_gemm and ec_tcgemm on top of it) verifies each C micro-tile
// it produces against a column-checksum invariant:
//
//     sum_i C_tile(i, j)  ==  alpha * sum_k sa(k) * Bpanel(k, j),
//     where sa(k) = sum_i Apanel(i, k)
//
// The checksum vector sa is computed while the A panel is packed (the packed
// panel is still L1-resident, so the extra read rides the pack sweep the way
// the fp16-rounding transform does), and the per-tile comparison costs
// O(kc·nr) against the micro-kernel's O(kc·mr·nr) — about 1/mr of the tile's
// arithmetic. A mismatch beyond the floating-point tolerance means the tile
// was corrupted after its micro-kernel ran (bad memory, a racy worker, an
// injected gemm.tile_corrupt fault): the tile is detected, located by its
// global C coordinates, and recomputed serially in fp32 from the still-live
// packed panels — detect -> locate -> recompute. Recomputation replays the
// exact fp32 accumulation order, so a recovered GEMM is bitwise-identical to
// a fault-free one.
//
// Detection never changes clean results: in ABFT mode each tile is
// accumulated into a private buffer holding exactly fl(alpha*acc) — the same
// value the direct path adds to C — so ABFT on/off is bitwise-identical.
//
// Enabling is per thread (AbftScope, a nestable thread-local depth): the
// thread that calls a GEMM decides whether its tiles are checked, and the
// pool workers that run those tiles follow that choice. A solve with
// EvdOptions::abft holds one scope on its own thread from start to finish,
// so one request's ABFT never reaches another request's GEMMs on another
// thread. Detections are aggregated per top-level GEMM call and surfaced on
// the calling thread's recovery scope at site "blas.abft", plus monotone
// process counters for tests and telemetry.
#pragma once

#include <atomic>
#include <cstdint>

#include "src/common/matrix.hpp"

namespace tcevd::blas::abft {

/// RAII guard enabling ABFT tile verification for every packed GEMM the
/// calling thread issues while the scope is alive. Nestable; one thread-local
/// read to query on the GEMM entry path.
class AbftScope {
 public:
  AbftScope() noexcept;
  ~AbftScope();
  AbftScope(const AbftScope&) = delete;
  AbftScope& operator=(const AbftScope&) = delete;
};

/// True while an AbftScope is alive on the calling thread.
bool enabled() noexcept;

/// Monotone process-wide counters (test/telemetry hooks). Every detected
/// tile is recomputed in place, so detections are also recomputations.
std::uint64_t tiles_checked() noexcept;   ///< micro-tiles checksum-verified
std::uint64_t tiles_detected() noexcept;  ///< corrupted tiles detected

/// Per-top-level-GEMM detection aggregate. A single instance lives on the
/// calling thread's stack for the duration of one gemm_packed(...) call;
/// pool workers running tiles update it through relaxed atomics (the
/// broadcast join provides the happens-before edge back to the caller).
struct CallStats {
  /// Tiles verified. Accumulated by the dispatching (calling) thread from
  /// tile counts — not by workers — so the hot path carries no shared
  /// atomic increment per micro-tile.
  long checked = 0;
  std::atomic<long> detected{0};
  /// Global C coordinates of the first corrupted tile, packed as
  /// (i << 31) | j; -1 until a detection happens. First writer wins.
  std::atomic<std::int64_t> first_tile{-1};

  void record_detection(index_t gi, index_t gj) noexcept {
    detected.fetch_add(1, std::memory_order_relaxed);
    std::int64_t expected = -1;
    const std::int64_t packed =
        (static_cast<std::int64_t>(gi) << 31) | static_cast<std::int64_t>(gj);
    first_tile.compare_exchange_strong(expected, packed, std::memory_order_relaxed);
  }
};

/// Fold a finished GEMM call's stats into the process counters and, when a
/// corruption was detected, note it at recovery site "blas.abft" on the
/// calling thread. Call after the tile broadcast has joined.
void finish_call(const CallStats& stats);

}  // namespace tcevd::blas::abft
