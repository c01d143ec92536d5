#include "src/lapack/householder.hpp"

#include <cmath>
#include <limits>

namespace tcevd::lapack {

template <typename T>
T larfg(index_t n, T& alpha, T* x, index_t incx) {
  if (n <= 1) return T{};
  T xnorm = blas::nrm2(n - 1, x, incx);
  if (xnorm == T{}) return T{};  // already in the axis direction

  // beta = -sign(alpha) * ||[alpha; x]||, computed overflow-safely.
  T beta = -std::copysign(std::hypot(alpha, xnorm), alpha);

  // Rescale if beta is dangerously small (LAPACK's safmin loop).
  const T safmin = std::numeric_limits<T>::min() / std::numeric_limits<T>::epsilon();
  int rescalings = 0;
  T scale{1};
  while (std::abs(beta) < safmin && rescalings < 20) {
    const T inv = T{1} / safmin;
    blas::scal(n - 1, inv, x, incx);
    beta *= inv;
    alpha *= inv;
    scale *= safmin;
    xnorm = blas::nrm2(n - 1, x, incx);
    beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
    ++rescalings;
  }

  const T tau = (beta - alpha) / beta;
  blas::scal(n - 1, T{1} / (alpha - beta), x, incx);
  alpha = beta * scale;
  return tau;
}

template <typename T>
void larf_left(const T* v, index_t incv, T tau, MatrixView<T> c, T* work) {
  if (tau == T{}) return;
  const index_t m = c.rows();
  const index_t n = c.cols();
  // work = C^T v  (v(0) == 1 implicit)
  for (index_t j = 0; j < n; ++j) {
    T s = c(0, j);
    for (index_t i = 1; i < m; ++i) s += c(i, j) * v[i * incv];
    work[j] = s;
  }
  // C -= tau * v * work^T
  for (index_t j = 0; j < n; ++j) {
    const T t = tau * work[j];
    if (t == T{}) continue;
    c(0, j) -= t;
    for (index_t i = 1; i < m; ++i) c(i, j) -= t * v[i * incv];
  }
}

#define TCEVD_HH_INST(T)                         \
  template T larfg<T>(index_t, T&, T*, index_t); \
  template void larf_left<T>(const T*, index_t, T, MatrixView<T>, T*);

TCEVD_HH_INST(float)
TCEVD_HH_INST(double)
#undef TCEVD_HH_INST

}  // namespace tcevd::lapack
