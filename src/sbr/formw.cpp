// Recursive W formation (paper Algorithm 2, "FormW").
//
// Each big block k of the WY-based SBR leaves a reflector pair
// Q_k = I - W_k Y_k^T. The overall transform is Q = Q_0 Q_1 ... Q_K, and two
// consecutive factors merge by the WY product rule
//
//   (I - Wa Ya^T)(I - Wb Yb^T) = I - [Wa | Wb - Wa (Ya^T Wb)] [Ya | Yb]^T.
//
// Merging pairwise in a binary tree (rather than folding blocks in one by
// one) turns the corrective GEMM Wa (Ya^T Wb) into large square-ish products
// — the same shape trick as the SBR itself; the paper measures ~25% faster
// back-transformation this way (320 ms vs 420 ms at n = 32768).
//
// The merge runs *in place* on the caller's output buffers: each subtree
// owns a column slice of (W, Y), leaves embed directly into their slice, and
// an internal node only needs the small kl x kr cross product from the
// arena. The GEMM stream (order and shapes) is identical to the textbook
// copy-based formulation — only the O(n k) intermediate copies are gone.
#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/sbr/sbr.hpp"

namespace tcevd::sbr {

namespace {

using blas::Trans;

/// Total reflector count in blocks[lo, hi).
index_t range_cols(const std::vector<WyBlock>& blocks, index_t lo, index_t hi) {
  index_t k = 0;
  for (index_t i = lo; i < hi; ++i) k += blocks[static_cast<std::size_t>(i)].w.cols();
  return k;
}

/// Merge blocks[lo, hi) into the n x k column slices `w`, `y` (binary
/// recursion, in place).
void merge_range(const std::vector<WyBlock>& blocks, index_t lo, index_t hi, Context& ctx,
                 MatrixView<float> w, MatrixView<float> y) {
  if (hi - lo == 1) {
    // Leaf: embed one block's (W, Y) into full n-row storage.
    const auto& blk = blocks[static_cast<std::size_t>(lo)];
    const index_t rows = blk.w.rows();
    const index_t cols = blk.w.cols();
    set_zero(w);
    set_zero(y);
    copy_matrix<float>(blk.w.view(), w.sub(blk.row_offset, 0, rows, cols));
    copy_matrix<float>(blk.y.view(), y.sub(blk.row_offset, 0, rows, cols));
    return;
  }
  const index_t n = w.rows();
  const index_t mid = lo + (hi - lo) / 2;
  const index_t kl = range_cols(blocks, lo, mid);
  const index_t kr = range_cols(blocks, mid, hi);
  auto wl = w.sub(0, 0, n, kl);
  auto yl = y.sub(0, 0, n, kl);
  auto wr = w.sub(0, kl, n, kr);
  auto yr = y.sub(0, kl, n, kr);
  merge_range(blocks, lo, mid, ctx, wl, yl);
  merge_range(blocks, mid, hi, ctx, wr, yr);

  // W_right' = W_right - W_left (Y_left^T W_right): the "squeezed" GEMMs.
  auto scope = ctx.workspace().scope();
  auto cross = scope.matrix<float>(kl, kr);
  ctx.gemm(Trans::Yes, Trans::No, 1.0f, yl, wr, 0.0f, cross);
  ctx.gemm(Trans::No, Trans::No, -1.0f, wl, cross, 1.0f, wr);
}

}  // namespace

void form_wy_product(const std::vector<WyBlock>& blocks, index_t n, Context& ctx,
                     Matrix<float>& w_out, Matrix<float>& y_out) {
  TCEVD_CHECK(!blocks.empty(), "form_wy_product needs at least one block");
  const index_t k = range_cols(blocks, 0, static_cast<index_t>(blocks.size()));
  w_out = Matrix<float>(n, k);
  y_out = Matrix<float>(n, k);
  merge_range(blocks, 0, static_cast<index_t>(blocks.size()), ctx, w_out.view(),
              y_out.view());
}

Matrix<float> form_q(const std::vector<WyBlock>& blocks, index_t n, Context& ctx) {
  Matrix<float> q(n, n);
  set_identity(q.view());
  if (blocks.empty()) return q;
  Matrix<float> w, y;
  form_wy_product(blocks, n, ctx, w, y);
  ctx.gemm(Trans::No, Trans::Yes, -1.0f, w.view(), y.view(), 1.0f, q.view());
  return q;
}

void apply_wy_blocks_left(const std::vector<WyBlock>& blocks, Context& ctx,
                          MatrixView<float> x) {
  // Q X = Q_0 (Q_1 (... (Q_K X))): apply the last block's reflector first.
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    const auto& blk = *it;
    const index_t rows = blk.w.rows();
    const index_t cols = blk.w.cols();
    TCEVD_CHECK(blk.row_offset + rows <= x.rows(), "apply_wy_blocks_left shape mismatch");
    auto xs = x.sub(blk.row_offset, 0, rows, x.cols());
    auto scope = ctx.workspace().scope();
    auto t = scope.matrix<float>(cols, x.cols());
    ctx.gemm(Trans::Yes, Trans::No, 1.0f, blk.y.view(), ConstMatrixView<float>(xs), 0.0f, t);
    ctx.gemm(Trans::No, Trans::No, -1.0f, blk.w.view(), t, 1.0f, xs);
  }
}

}  // namespace tcevd::sbr
