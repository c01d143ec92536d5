// Tall-Skinny QR (paper Section 5.1).
//
// Communication-avoiding QR on a binary row-block tree: each leaf block is
// factorized with Householder QR (the paper deliberately uses Householder
// rather than modified Gram-Schmidt per block, for stability), pairs of R
// factors are re-factorized up the tree, and the explicit Q is assembled on
// the way back down. The output is an explicit orthonormal Q plus R — the
// Householder (WY) form is recovered afterwards by reconstruct_wy.
//
// Tree temporaries come from a workspace arena (a Context's, for pipeline
// callers).
#pragma once

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"

namespace tcevd {
class Workspace;
}  // namespace tcevd

namespace tcevd::tsqr {

struct TsqrOptions {
  /// Row count below which a block is factorized directly. Must be >= the
  /// panel width; the default mimics a GPU block of 256 rows.
  index_t leaf_rows = 256;
};

/// Factor a (m x n, m >= n) into Q (m x n, orthonormal columns) * R (n x n,
/// upper triangular). `a` is not modified. Shape violations are programmer
/// errors (TCEVD_CHECK); non-finite input reports InvalidInput (a cheap
/// O(mn) scan, so NaN/Inf never propagates through the tree). Tree
/// temporaries are checked out of `ws` (no engine involved — TSQR runs in
/// scalar fp32/fp64).
Status tsqr_factor(Workspace& ws, ConstMatrixView<float> a, MatrixView<float> q,
                   MatrixView<float> r, const TsqrOptions& opts = {});
Status tsqr_factor(Workspace& ws, ConstMatrixView<double> a, MatrixView<double> q,
                   MatrixView<double> r, const TsqrOptions& opts = {});

}  // namespace tcevd::tsqr
