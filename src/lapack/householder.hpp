// Elementary Householder reflector kernels (LAPACK larfg/larf analogues).
//
// Conventions match LAPACK: H = I - tau * v * v^T with v(0) = 1 implicit,
// H * [alpha; x] = [beta; 0], and H orthogonal & symmetric.
#pragma once

#include "src/blas/blas.hpp"
#include "src/common/matrix.hpp"

namespace tcevd::lapack {

/// Generate a reflector annihilating x below alpha.
/// On entry: alpha = leading scalar, x = n-1 trailing entries (stride incx).
/// On exit:  alpha = beta (the new leading value), x = v(1:) (v(0) = 1), and
/// the return value is tau. tau == 0 means H == I (x was already zero).
template <typename T>
T larfg(index_t n, T& alpha, T* x, index_t incx);

/// Apply H = I - tau v v^T from the left: C = H * C.
/// v has length C.rows() with v(0) treated as 1 (LAPACK storage).
/// `work` must hold at least C.cols() elements.
template <typename T>
void larf_left(const T* v, index_t incv, T tau, MatrixView<T> c, T* work);

#define TCEVD_HH_EXTERN(T)                              \
  extern template T larfg<T>(index_t, T&, T*, index_t); \
  extern template void larf_left<T>(const T*, index_t, T, MatrixView<T>, T*);

TCEVD_HH_EXTERN(float)
TCEVD_HH_EXTERN(double)
#undef TCEVD_HH_EXTERN

}  // namespace tcevd::lapack
