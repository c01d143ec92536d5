// Internal shared core of the WY-family band reductions (sbr_wy, sbr_dbr).
//
// Both variants run the same chained sub-panel factorization per big block —
// factor nb/b panels of width b, accumulate their reflectors into one
// nb-wide (W, Y) pair against the block-entry copy OA — and differ only in
// the once-per-block full trailing update:
//
//   * Multiplicative (sbr_wy, and sbr_dbr at b == nb): the two-step
//     restriction of the block invariant, M = OA - (OA W) Y^T then
//     GA = M - Y (W^T M).
//
//   * DetachedSyr2k (sbr_dbr at b < nb): the detached symmetric rank-2k
//     form S = W^T (OA W), Z = OA W - (1/2) Y S, GA = OA - Y Z^T - Z Y^T —
//     two (tw x tw, k = nb) engine GEMMs.
//
// This header is internal: it lives outside sbr.hpp so the public API stays
// the two driver functions, but the perfmodel shape tracers and tests can
// rely on the fact that both drivers execute process_wy_block verbatim —
// which is what makes the b == nb DBR configuration bitwise identical to
// WY-SBR.
#pragma once

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"
#include "src/sbr/sbr.hpp"

namespace tcevd {
class Context;
}  // namespace tcevd

namespace tcevd::sbr::detail {

enum class TrailingKind {
  Multiplicative,  ///< sbr_wy's M/GA two-step
  DetachedSyr2k,   ///< DBR's rank-2k form with inner dimension nb
};

struct WyBlockParams {
  MatrixView<float> A;  // full n x n storage
  index_t n = 0;
  index_t b = 0;
  index_t nb = 0;
  Context* ctx = nullptr;
  PanelKind panel_kind = PanelKind::Tsqr;
  std::vector<WyBlock>* blocks = nullptr;
  bool cache_oa = false;  // maintain P = OA*W incrementally instead of
                          // recomputing it with the full W every panel
  TrailingKind trailing = TrailingKind::Multiplicative;
  const char* trailing_stage = nullptr;  // StageTimer name for the trailing
                                         // update (nullptr = untimed)
};

/// Process the big block starting at global offset s; returns the number of
/// columns reduced (0 when the active matrix is already banded).
StatusOr<index_t> process_wy_block(WyBlockParams& prm, index_t s);

}  // namespace tcevd::sbr::detail
