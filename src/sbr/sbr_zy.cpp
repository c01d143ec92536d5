// Conventional ZY-based successive band reduction (baseline; paper Sec. 3.3).
//
// Per b-column panel:
//   1. QR-factor the panel into (I - W Y^T) [R; 0],
//   2. Z = A22 W - (1/2) Y (W^T A22 W),
//   3. A22 <- A22 - Y Z^T - Z Y^T  (the rank-2b "syr2k-shaped" update).
//
// Every GEMM here has inner dimension b — the tall-and-skinny shapes of
// paper Table 1. With `zy_use_syr2k` the rank-2b update uses the fp32 syr2k
// (half the flops, the classic CPU/MAGMA route); otherwise it runs as two
// engine GEMMs, which is how a Tensor Core must execute it ("TC does not
// support syr2k natively").
#include <string>

#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/tc_syr2k.hpp"

namespace tcevd::sbr {

StatusOr<SbrResult> sbr_zy(ConstMatrixView<float> a, Context& ctx, const SbrOptions& opt) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "sbr_zy requires a square symmetric matrix");
  // ZY ignores big_block, so only the bandwidth rule applies (validated,
  // not clamped — same contract as validate_options).
  const index_t b = opt.bandwidth;
  if (b < 1 || b >= n)
    return invalid_argument_error("sbr_zy: bandwidth must satisfy 1 <= b < n (b = " +
                                  std::to_string(b) + ", n = " + std::to_string(n) + ")");

  ctx.workspace().reserve(workspace_query(n, opt));
  StageTimer stage(ctx.telemetry(), "sbr.zy");
  Workspace& ws = ctx.workspace();

  SbrResult result;
  result.band = Matrix<float>(n, n);
  copy_matrix(a, result.band.view());
  auto A = result.band.view();

  if (opt.accumulate_q) {
    result.q = Matrix<float>(n, n);
    set_identity(result.q.view());
  }

  using blas::Trans;

  for (index_t i = 0; n - i - b >= 2; i += b) {
    const index_t m = n - i - b;  // panel rows
    auto panel = A.sub(i + b, i, m, b);

    auto scope = ws.scope();
    auto w = scope.matrix<float>(m, b);
    auto y = scope.matrix<float>(m, b);
    TCEVD_RETURN_IF_ERROR(panel_factor_wy(ctx, opt.panel, panel, w, y));

    // Mirror the finalized band columns into the upper triangle.
    for (index_t j = 0; j < b; ++j)
      for (index_t r = 0; r < m; ++r) A(i + j, i + b + r) = A(i + b + r, i + j);

    auto a22 = A.sub(i + b, i + b, m, m);

    // Z = A22 W - 1/2 Y (W^T (A22 W)).
    auto p = scope.matrix<float>(m, b);
    if (opt.zy_use_syr2k) {
      // MAGMA-style CPU path: exploit symmetry with ssymm (half the reads).
      blas::symm(blas::Side::Left, blas::Uplo::Lower, 1.0f, ConstMatrixView<float>(a22),
                 ConstMatrixView<float>(w), 0.0f, p);
    } else {
      ctx.gemm(Trans::No, Trans::No, 1.0f, a22, w, 0.0f, p);  // square x skinny
    }
    auto s = scope.matrix<float>(b, b);
    ctx.gemm(Trans::Yes, Trans::No, 1.0f, w, p, 0.0f, s);
    auto z = scope.matrix<float>(m, b);
    copy_matrix<float>(ConstMatrixView<float>(p), z);
    ctx.gemm(Trans::No, Trans::No, -0.5f, y, s, 1.0f, z);

    // A22 <- A22 - Y Z^T - Z Y^T.
    if (opt.zy_use_syr2k) {
      blas::syr2k(blas::Uplo::Lower, Trans::No, -1.0f, y, z, 1.0f, a22);
      symmetrize_from_lower<float>(a22);
    } else if (opt.zy_use_tc_syr2k && dynamic_cast<tc::TcEngine*>(&ctx.engine()) != nullptr) {
      // Tensor-Core-native rank-2k (paper future work): half the tile work
      // of the two-GEMM form, same fp16-operand/fp32-accumulate numerics.
      const auto prec = static_cast<tc::TcEngine&>(ctx.engine()).precision();
      tc::tc_syr2k(blas::Uplo::Lower, -1.0f, y, z, 1.0f, a22, prec);
      symmetrize_from_lower<float>(a22);
    } else {
      ctx.gemm(Trans::No, Trans::Yes, -1.0f, y, z, 1.0f, a22);  // outer
      ctx.gemm(Trans::No, Trans::Yes, -1.0f, z, y, 1.0f, a22);  // outer
    }

    if (opt.accumulate_q) {
      // Q(:, i+b:n) <- Q(:, i+b:n) (I - W Y^T)   (progressive back-transform)
      auto qr = result.q.sub(0, i + b, n, m);
      auto t = scope.matrix<float>(n, b);
      ctx.gemm(Trans::No, Trans::No, 1.0f, qr, w, 0.0f, t);
      ctx.gemm(Trans::No, Trans::Yes, -1.0f, t, y, 1.0f, qr);
    }
  }

  return result;
}

}  // namespace tcevd::sbr
