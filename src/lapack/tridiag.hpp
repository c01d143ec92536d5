// Symmetric tridiagonal eigensolvers.
//
// The two-stage EVD pipeline ends on a tridiagonal matrix (d, e); these are
// the from-scratch equivalents of the LAPACK/MAGMA solvers the paper calls:
//
//   steqr — implicit QL/QR with Wilkinson shifts, optional eigenvector
//           accumulation (the robust workhorse; used as the D&C base case)
//   sterf — eigenvalues only: the root-free QL/QR of LAPACK dsterf, O(n^2)
//   stebz — Sturm-sequence bisection (selected or all eigenvalues)
//   stedc — divide & conquer with deflation and a secular-equation solver
//           (the paper's final stage uses MAGMA's D&C); without vectors it
//           is sterf, as MAGMA's and LAPACK's ?syevd are for jobz = 'N'
//
// All solvers return eigenvalues in ascending order. Convergence failure is
// reported as a Status (NoConvergence with the failing eigenvalue index in
// detail()), never by aborting — the EVD driver degrades through its solver
// fallback chain on any non-ok result.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"

namespace tcevd::lapack {

/// Implicit QL/QR with Wilkinson shift. d (n) / e (n-1) are overwritten with
/// the eigenvalues / destroyed. If `z` is non-null it must be n x n (or
/// n x m row-compatible) and is multiplied by the accumulated rotations:
/// pass identity to get eigenvectors of the tridiagonal, or pass Q from a
/// previous reduction to get eigenvectors of the original matrix.
/// NoConvergence if an eigenvalue fails to converge in 50 iterations.
template <typename T>
Status steqr(std::vector<T>& d, std::vector<T>& e, MatrixView<T>* z = nullptr);

/// Eigenvalues only, by the root-free Pal-Walker-Kahan QL/QR of LAPACK
/// dsterf, in double for both precisions. d (n) is overwritten with the
/// ascending eigenvalues, e (at least n-1 entries) is zero-filled. Each
/// unreduced block is scaled by a power of two before its off-diagonals are
/// squared, so the whole double range works. Fires the `steqr.exhaust` fault
/// site for n > 1. NoConvergence (with the index in detail()) if an
/// eigenvalue fails to converge in 30 iterations or a block holds a NaN or
/// Inf; d and e are then destroyed.
template <typename T>
Status sterf(std::vector<T>& d, std::vector<T>& e);

/// Number of eigenvalues of the tridiagonal strictly less than x
/// (Sturm count via the shifted LDL^T recurrence).
template <typename T>
index_t sturm_count(const std::vector<T>& d, const std::vector<T>& e, T x);

/// Bisection: compute eigenvalues with indices [il, iu] (0-based, inclusive)
/// to absolute tolerance `tol` (<=0 picks a sensible default).
/// NoConvergence (with the index in detail()) if d or e holds a NaN or Inf:
/// Sturm counts are meaningless then, and bisection would return garbage.
template <typename T>
StatusOr<std::vector<T>> stebz(const std::vector<T>& d, const std::vector<T>& e, index_t il,
                               index_t iu, T tol = T{-1});

/// Divide & conquer. Same contract as steqr: eigenvalues into d, optional
/// accumulation into z (z := z * V where V are tridiagonal eigenvectors),
/// e zero-filled. Internally computes in double regardless of T for a stable
/// secular solve. A base-case steqr failure propagates as NoConvergence.
/// With z == nullptr it returns sterf(d, e): no merge, O(n^2), no n x n
/// buffer.
template <typename T>
Status stedc(std::vector<T>& d, std::vector<T>& e, MatrixView<T>* z = nullptr);

#define TCEVD_TRI_EXTERN(T)                                                              \
  extern template Status steqr<T>(std::vector<T>&, std::vector<T>&, MatrixView<T>*);      \
  extern template Status sterf<T>(std::vector<T>&, std::vector<T>&);                      \
  extern template index_t sturm_count<T>(const std::vector<T>&, const std::vector<T>&, T); \
  extern template StatusOr<std::vector<T>> stebz<T>(                                      \
      const std::vector<T>&, const std::vector<T>&, index_t, index_t, T);                  \
  extern template Status stedc<T>(std::vector<T>&, std::vector<T>&, MatrixView<T>*);

TCEVD_TRI_EXTERN(float)
TCEVD_TRI_EXTERN(double)
#undef TCEVD_TRI_EXTERN

}  // namespace tcevd::lapack
