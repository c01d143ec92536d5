#include "src/tsqr/reconstruct_wy.hpp"

#include <cmath>

#include "src/blas/blas.hpp"
#include "src/common/fault.hpp"
#include "src/common/workspace.hpp"
#include "src/lapack/lu.hpp"

namespace tcevd::tsqr {

namespace {

template <typename T>
Status reconstruct_impl(Workspace& ws, ConstMatrixView<T> q, MatrixView<T> w, MatrixView<T> y,
                        std::vector<T>& signs) {
  const index_t m = q.rows();
  const index_t n = q.cols();
  TCEVD_CHECK(w.rows() == m && w.cols() == n && y.rows() == m && y.cols() == n,
              "reconstruct_wy output shape mismatch");
  if (fault::should_fire(fault::Site::ReconstructSingular))
    return fault_injected_error(fault::site_name(fault::Site::ReconstructSingular));

  // Signed LU (Ballard et al., Algorithm "LU with on-the-fly sign choice"):
  // eliminate A = S - Q column by column, choosing each S_jj = +-1 only when
  // its column comes up, from the *Schur-complement-updated* diagonal entry,
  // so |pivot| = 1 + |updated Q_jj| >= 1 and the factorization cannot break
  // down. A static sign choice from the original diagonal of Q does not work:
  // the updated diagonal can flip sign during elimination.
  signs.assign(static_cast<std::size_t>(n), T{1});
  auto scope = ws.scope();
  auto a = scope.matrix<T>(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = -q(i, j);

  for (index_t j = 0; j < n; ++j) {
    const T s = (a(j, j) >= T{}) ? T{1} : T{-1};
    signs[static_cast<std::size_t>(j)] = s;
    a(j, j) += s;
    const T pivot = a(j, j);
    // Orthonormal Q guarantees |pivot| = 1 + |updated Q_jj| >= 1; a pivot far
    // below that bound means Q degenerated upstream (saturated fp16 GEMM,
    // poisoned panel) and the LU is no longer trustworthy.
    if (std::abs(static_cast<double>(pivot)) < 1e-3)
      return singular_panel_error("reconstruct_wy: near-zero pivot (Q not orthonormal?)", j);
    const T inv = T{1} / pivot;
    for (index_t i = j + 1; i < m; ++i) a(i, j) *= inv;
    for (index_t c = j + 1; c < n; ++c) {
      const T ujc = a(j, c);
      if (ujc == T{}) continue;
      for (index_t i = j + 1; i < m; ++i) a(i, c) -= a(i, j) * ujc;
    }
  }

  // Y = unit lower trapezoidal factor.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      y(i, j) = (i > j) ? a(i, j) : (i == j ? T{1} : T{});

  // The reconstruction identity is  Y (T Y1^T) = I(:,1:n) - Q*S  with S
  // scaling the *columns* of Q (the sign convention the reflector product
  // actually produces). The signed LU above ran on (S - Q) = (I - Q S) * S,
  // whose L factor is identical (column scaling only rescales U), so Y is
  // already correct; W however must be solved from the column-scaled matrix:
  // W = (I - Q S) Y1^{-T}.
  for (index_t j = 0; j < n; ++j) {
    const T s = signs[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < m; ++i) w(i, j) = ((i == j) ? T{1} : T{}) - q(i, j) * s;
  }
  blas::trsm(blas::Side::Right, blas::Uplo::Lower, blas::Trans::Yes, blas::Diag::Unit, T{1},
             ConstMatrixView<T>(y.sub(0, 0, n, n)), w);
  return ok_status();
}

}  // namespace

Status reconstruct_wy(Workspace& ws, ConstMatrixView<float> q, MatrixView<float> w,
                      MatrixView<float> y, std::vector<float>& signs) {
  return reconstruct_impl(ws, q, w, y, signs);
}

Status reconstruct_wy(Workspace& ws, ConstMatrixView<double> q, MatrixView<double> w,
                      MatrixView<double> y, std::vector<double>& signs) {
  return reconstruct_impl(ws, q, w, y, signs);
}

}  // namespace tcevd::tsqr
