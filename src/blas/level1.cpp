#include <cmath>

#include "src/blas/blas.hpp"

namespace tcevd::blas {

template <typename T>
T dot(index_t n, const T* x, index_t incx, const T* y, index_t incy) {
  T s{};
  if (incx == 1 && incy == 1) {
    for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
  } else {
    for (index_t i = 0; i < n; ++i) s += x[i * incx] * y[i * incy];
  }
  return s;
}

template <typename T>
T nrm2(index_t n, const T* x, index_t incx) {
  // Scaled two-pass-free algorithm (LAPACK dnrm2 style) to avoid overflow /
  // underflow of squared intermediates.
  T scale{};
  T ssq{1};
  for (index_t i = 0; i < n; ++i) {
    const T v = x[i * incx];
    if (v != T{}) {
      const T a = std::abs(v);
      if (scale < a) {
        const T r = scale / a;
        ssq = T{1} + ssq * r * r;
        scale = a;
      } else {
        const T r = a / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

template <typename T>
void axpy(index_t n, T alpha, const T* x, index_t incx, T* y, index_t incy) {
  if (alpha == T{}) return;
  if (incx == 1 && incy == 1) {
    for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    for (index_t i = 0; i < n; ++i) y[i * incy] += alpha * x[i * incx];
  }
}

template <typename T>
void scal(index_t n, T alpha, T* x, index_t incx) {
  if (incx == 1) {
    for (index_t i = 0; i < n; ++i) x[i] *= alpha;
  } else {
    for (index_t i = 0; i < n; ++i) x[i * incx] *= alpha;
  }
}

template <typename T>
index_t iamax(index_t n, const T* x, index_t incx) {
  if (n <= 0) return -1;
  index_t best = 0;
  T best_v = std::abs(x[0]);
  for (index_t i = 1; i < n; ++i) {
    const T v = std::abs(x[i * incx]);
    if (v > best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

#define TCEVD_L1_INST(T)                                                  \
  template T dot<T>(index_t, const T*, index_t, const T*, index_t);       \
  template T nrm2<T>(index_t, const T*, index_t);                        \
  template void axpy<T>(index_t, T, const T*, index_t, T*, index_t);     \
  template void scal<T>(index_t, T, T*, index_t);                        \
  template index_t iamax<T>(index_t, const T*, index_t);

TCEVD_L1_INST(float)
TCEVD_L1_INST(double)
#undef TCEVD_L1_INST

}  // namespace tcevd::blas
