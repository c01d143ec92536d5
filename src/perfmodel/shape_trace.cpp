#include "src/perfmodel/shape_trace.hpp"

#include <algorithm>

namespace tcevd::perf {

namespace {

using tc::GemmShape;

void emit(std::vector<GemmShape>& out, index_t m, index_t n, index_t k) {
  out.push_back(GemmShape{m, n, k});
}

/// Trailing-update form of trace_wy_block — mirrors
/// sbr/wy_block.hpp::TrailingKind.
enum class Trailing { Multiplicative, DetachedSyr2k };

/// Mirrors sbr_wy.cpp::process_wy_block; returns columns reduced.
index_t trace_wy_block(std::vector<GemmShape>& out, index_t n, index_t s, index_t b,
                       index_t nb, bool cache_oa,
                       Trailing trailing = Trailing::Multiplicative) {
  const index_t na = n - s;
  if (na - b < 2) return 0;
  const index_t mt = na - b;

  index_t cols_done = 0;
  for (index_t p = 0;; ++p) {
    const index_t c = p * b;
    if (c >= nb || na - c - b < 2) break;
    const index_t m = na - c - b;

    if (p > 0) {
      const index_t pb = c;
      if (!cache_oa) emit(out, mt, pb, mt);  // big = OA * W (literal recompute)
      emit(out, mt, b, pb);                  // M -= big * Y(C)^T
      emit(out, pb, b, mt);                  // W^T M
      emit(out, mt - (c - b), b, pb);        // GA -= Y(R') (W^T M)
    }
    // panel QR happens here (not an engine GEMM)
    if (c > 0) {
      emit(out, c, b, m);                    // Y^T w
      emit(out, mt, b, c);                   // w' = w - W (Y^T w)
    }
    if (cache_oa) emit(out, mt, b, mt);      // P(:, c:c+b) = OA * w'
    cols_done = c + b;
  }
  if (cols_done == 0) return 0;

  const index_t t0 = cols_done - b;
  const index_t tw = mt - t0;
  if (tw > 0) {
    if (!cache_oa) emit(out, mt, cols_done, mt);  // big = OA * W
    if (trailing == Trailing::DetachedSyr2k) {
      emit(out, cols_done, cols_done, mt);   // S = W^T P
      emit(out, tw, cols_done, cols_done);   // Z -= 1/2 Y_t S
      emit(out, tw, tw, cols_done);          // GA -= Y_t Z^T
      emit(out, tw, tw, cols_done);          // GA -= Z Y_t^T
    } else {
      emit(out, mt, tw, cols_done);          // M -= big * Y(C2)^T
      emit(out, cols_done, tw, mt);          // W^T M
      emit(out, tw, tw, cols_done);          // GA2
    }
  }
  return cols_done;
}

}  // namespace

std::vector<GemmShape> trace_sbr_wy(index_t n, index_t b, index_t nb, bool cache_oa) {
  std::vector<GemmShape> out;
  index_t s = 0;
  for (;;) {
    const index_t done = trace_wy_block(out, n, s, b, std::max(nb, b), cache_oa);
    if (done == 0) break;
    s += done;
  }
  return out;
}

std::vector<GemmShape> trace_sbr_dbr(index_t n, index_t b, index_t nb, bool cache_oa) {
  const index_t nb_eff = std::max(nb, b);
  // b == nb runs the multiplicative path verbatim (see sbr_dbr).
  const Trailing trailing =
      b < nb_eff ? Trailing::DetachedSyr2k : Trailing::Multiplicative;
  std::vector<GemmShape> out;
  index_t s = 0;
  for (;;) {
    const index_t done = trace_wy_block(out, n, s, b, nb_eff, cache_oa, trailing);
    if (done == 0) break;
    s += done;
  }
  return out;
}

std::vector<GemmShape> trace_sbr_zy(index_t n, index_t b) {
  std::vector<GemmShape> out;
  for (index_t i = 0; n - i - b >= 2; i += b) {
    const index_t m = n - i - b;
    emit(out, m, b, m);  // P = A22 W        (square x skinny)
    emit(out, b, b, m);  // S = W^T P
    emit(out, m, b, b);  // Z -= 1/2 Y S
    emit(out, m, m, b);  // A22 -= Y Z^T     (outer)
    emit(out, m, m, b);  // A22 -= Z Y^T     (outer)
  }
  return out;
}

std::vector<GemmShape> trace_formw(index_t n, index_t b, index_t nb) {
  // Column counts of each WY block, from the same recursion as sbr_wy.
  std::vector<index_t> block_cols;
  {
    index_t s = 0;
    std::vector<GemmShape> scratch;
    for (;;) {
      const index_t before = static_cast<index_t>(scratch.size());
      (void)before;
      const index_t done = trace_wy_block(scratch, n, s, b, std::max(nb, b), false);
      if (done == 0) break;
      block_cols.push_back(done);
      s += done;
    }
  }
  std::vector<GemmShape> out;
  if (block_cols.empty()) return out;

  // Binary merge tree (mirrors formw.cpp::merge_range).
  struct Rec {
    index_t lo, hi;
  };
  // Recursive lambda via explicit stack-free recursion.
  std::vector<GemmShape>* outp = &out;
  const auto& cols = block_cols;
  auto merged_cols = [&](auto&& self, index_t lo, index_t hi) -> index_t {
    if (hi - lo == 1) return cols[static_cast<std::size_t>(lo)];
    const index_t mid = lo + (hi - lo) / 2;
    const index_t kl = self(self, lo, mid);
    const index_t kr = self(self, mid, hi);
    emit(*outp, kl, kr, n);  // cross = Y_left^T W_right
    emit(*outp, n, kr, kl);  // W_right' -= W_left cross
    return kl + kr;
  };
  const index_t total = merged_cols(merged_cols, 0, static_cast<index_t>(cols.size()));
  emit(out, n, n, total);  // Q = I - W Y^T
  return out;
}

std::vector<GemmShape> trace_zy_backtransform(index_t n, index_t b) {
  std::vector<GemmShape> out;
  for (index_t i = 0; n - i - b >= 2; i += b) {
    const index_t m = n - i - b;
    emit(out, n, b, m);  // T = Q(:, i+b:) W
    emit(out, n, m, b);  // Q(:, i+b:) -= T Y^T
  }
  return out;
}

std::vector<GemmShape> trace_panels(index_t n, index_t b) {
  std::vector<GemmShape> out;
  for (index_t i = 0; n - i - b >= 2; i += b) emit(out, n - i - b, b, b);
  return out;
}

}  // namespace tcevd::perf
