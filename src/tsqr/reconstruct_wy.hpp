// Householder-vector reconstruction from an explicit orthonormal Q
// (paper Algorithm 3; Ballard, Demmel, Grigori, Jacquelin, Nguyen,
// Solomonik 2014).
//
// TSQR produces an explicit Q, but stable two-sided trailing updates need
// the WY form Q = I - W Y^T. Observing that for a Householder-QR Q there is
// a diagonal sign matrix S with
//
//   S - Q = Y (T Y1^T),      Y unit lower trapezoidal, T upper triangular,
//
// the factorization is *exactly* a non-pivoted LU of the first n rows:
// L = Y1, U = T Y1^T; the trailing rows follow from a triangular solve
// Y2 = (S - Q)(n:m, :) U^{-1}, and W = (S - Q)(:, 1:n) Y1^{-T}. Ballard et
// al. prove the non-pivoted LU cannot break down when S_jj = -sign(Q_jj).
//
// The reconstructed pair satisfies  I - W Y^T = Q * S, so the caller must
// fold S into R (R := S * R) to keep A = (I - W Y^T) (S R) intact.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"

namespace tcevd {
class Workspace;
}  // namespace tcevd

namespace tcevd::tsqr {

/// Reconstruct (W, Y) from explicit Q (m x n, orthonormal columns) so that
/// I - W Y^T == Q * diag(signs). `signs` receives the n diagonal entries of
/// S (each +-1); apply them to the rows of your R factor.
///
/// Ballard et al. prove the signed LU cannot break down when Q is
/// orthonormal (|pivot| >= 1); a pivot far below that bound means Q lost
/// orthonormality upstream and reports SingularPanel with the offending
/// column in detail(). Shape violations remain programmer errors.
///
/// The LU scratch copy is checked out of `ws` (a Context's arena, for
/// pipeline callers).
Status reconstruct_wy(Workspace& ws, ConstMatrixView<float> q, MatrixView<float> w,
                      MatrixView<float> y, std::vector<float>& signs);
Status reconstruct_wy(Workspace& ws, ConstMatrixView<double> q, MatrixView<double> w,
                      MatrixView<double> y, std::vector<double>& signs);

}  // namespace tcevd::tsqr
