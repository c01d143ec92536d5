#include "src/blas/blas.hpp"

namespace tcevd::blas {

template <typename T>
void gemv(Trans trans, T alpha, ConstMatrixView<T> a, const T* x, index_t incx, T beta, T* y,
          index_t incy) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (trans == Trans::No) {
    // y (m) = alpha * A x + beta * y: column-oriented axpy sweep.
    if (beta != T{1}) scal(m, beta, y, incy);
    for (index_t j = 0; j < n; ++j) {
      const T t = alpha * x[j * incx];
      if (t == T{}) continue;
      if (incy == 1) {
        const T* aj = &a(0, j);
        for (index_t i = 0; i < m; ++i) y[i] += t * aj[i];
      } else {
        for (index_t i = 0; i < m; ++i) y[i * incy] += t * a(i, j);
      }
    }
  } else {
    // y (n) = alpha * A^T x + beta * y: dot per column.
    for (index_t j = 0; j < n; ++j) {
      T s{};
      if (incx == 1) {
        const T* aj = &a(0, j);
        for (index_t i = 0; i < m; ++i) s += aj[i] * x[i];
      } else {
        for (index_t i = 0; i < m; ++i) s += a(i, j) * x[i * incx];
      }
      y[j * incy] = alpha * s + beta * y[j * incy];
    }
  }
}

template <typename T>
void symv(Uplo uplo, T alpha, ConstMatrixView<T> a, const T* x, index_t incx, T beta, T* y,
          index_t incy) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "symv requires square A");
  if (beta != T{1}) scal(n, beta, y, incy);
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < n; ++j) {
      const T xj = x[j * incx];
      T temp2{};
      y[j * incy] += alpha * xj * a(j, j);
      for (index_t i = j + 1; i < n; ++i) {
        const T aij = a(i, j);
        y[i * incy] += alpha * xj * aij;
        temp2 += aij * x[i * incx];
      }
      y[j * incy] += alpha * temp2;
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      const T xj = x[j * incx];
      T temp2{};
      for (index_t i = 0; i < j; ++i) {
        const T aij = a(i, j);
        y[i * incy] += alpha * xj * aij;
        temp2 += aij * x[i * incx];
      }
      y[j * incy] += alpha * (xj * a(j, j) + temp2);
    }
  }
}

template <typename T>
void syr2(Uplo uplo, T alpha, const T* x, index_t incx, const T* y, index_t incy,
          MatrixView<T> a) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "syr2 requires square A");
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < n; ++j) {
      const T tx = alpha * y[j * incy];
      const T ty = alpha * x[j * incx];
      for (index_t i = j; i < n; ++i) a(i, j) += x[i * incx] * tx + y[i * incy] * ty;
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      const T tx = alpha * y[j * incy];
      const T ty = alpha * x[j * incx];
      for (index_t i = 0; i <= j; ++i) a(i, j) += x[i * incx] * tx + y[i * incy] * ty;
    }
  }
}

template <typename T>
void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a, T* x, index_t incx) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "trmv requires square A");
  const bool unit = diag == Diag::Unit;
  if (trans == Trans::No) {
    if (uplo == Uplo::Lower) {
      // x_i depends on x_0..x_i: sweep bottom-up.
      for (index_t i = n - 1; i >= 0; --i) {
        T s = unit ? x[i * incx] : a(i, i) * x[i * incx];
        for (index_t j = 0; j < i; ++j) s += a(i, j) * x[j * incx];
        x[i * incx] = s;
      }
    } else {
      for (index_t i = 0; i < n; ++i) {
        T s = unit ? x[i * incx] : a(i, i) * x[i * incx];
        for (index_t j = i + 1; j < n; ++j) s += a(i, j) * x[j * incx];
        x[i * incx] = s;
      }
    }
  } else {
    if (uplo == Uplo::Lower) {
      // (A^T x)_i = sum_{j>=i} a(j,i) x_j: sweep top-down.
      for (index_t i = 0; i < n; ++i) {
        T s = unit ? x[i * incx] : a(i, i) * x[i * incx];
        for (index_t j = i + 1; j < n; ++j) s += a(j, i) * x[j * incx];
        x[i * incx] = s;
      }
    } else {
      for (index_t i = n - 1; i >= 0; --i) {
        T s = unit ? x[i * incx] : a(i, i) * x[i * incx];
        for (index_t j = 0; j < i; ++j) s += a(j, i) * x[j * incx];
        x[i * incx] = s;
      }
    }
  }
}

#define TCEVD_L2_INST(T)                                                                 \
  template void gemv<T>(Trans, T, ConstMatrixView<T>, const T*, index_t, T, T*, index_t); \
  template void symv<T>(Uplo, T, ConstMatrixView<T>, const T*, index_t, T, T*, index_t);  \
  template void syr2<T>(Uplo, T, const T*, index_t, const T*, index_t, MatrixView<T>);    \
  template void trmv<T>(Uplo, Trans, Diag, ConstMatrixView<T>, T*, index_t);

TCEVD_L2_INST(float)
TCEVD_L2_INST(double)
#undef TCEVD_L2_INST

}  // namespace tcevd::blas
