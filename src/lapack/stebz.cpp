#include <cmath>
#include <limits>

#include "src/lapack/tridiag.hpp"

namespace tcevd::lapack {

template <typename T>
index_t sturm_count(const std::vector<T>& d, const std::vector<T>& e, T x) {
  // Count of non-positive pivots of the LDL^T factorization of (T - x I);
  // equals the number of eigenvalues below x. LAPACK (dstebz) convention:
  // a pivot below pivmin counts as negative and is clamped to -pivmin so the
  // recurrence survives exact hits on a leading-minor eigenvalue.
  const index_t n = static_cast<index_t>(d.size());
  T emax2{1};
  for (T ei : e) emax2 = std::max(emax2, ei * ei);
  const T pivmin = std::numeric_limits<T>::min() * emax2;
  index_t count = 0;
  T q = d[0] - x;
  if (q <= pivmin) {
    ++count;
    q = std::min(q, -pivmin);
  }
  for (index_t i = 1; i < n; ++i) {
    q = d[static_cast<std::size_t>(i)] - x -
        e[static_cast<std::size_t>(i - 1)] * e[static_cast<std::size_t>(i - 1)] / q;
    if (q <= pivmin) {
      ++count;
      q = std::min(q, -pivmin);
    }
  }
  return count;
}

template <typename T>
StatusOr<std::vector<T>> stebz(const std::vector<T>& d, const std::vector<T>& e, index_t il,
                               index_t iu, T tol) {
  const index_t n = static_cast<index_t>(d.size());
  TCEVD_CHECK(0 <= il && il <= iu && iu < n, "stebz index range invalid");
  for (index_t i = 0; i < n; ++i)
    if (!std::isfinite(d[static_cast<std::size_t>(i)]) ||
        (i + 1 < n && !std::isfinite(e[static_cast<std::size_t>(i)])))
      return no_convergence_error("stebz: non-finite entry; bisection cannot converge", i);

  // Gershgorin interval containing the whole spectrum.
  T lo = d[0];
  T hi = d[0];
  for (index_t i = 0; i < n; ++i) {
    T radius{};
    if (i > 0) radius += std::abs(e[static_cast<std::size_t>(i - 1)]);
    if (i + 1 < n) radius += std::abs(e[static_cast<std::size_t>(i)]);
    lo = std::min(lo, d[static_cast<std::size_t>(i)] - radius);
    hi = std::max(hi, d[static_cast<std::size_t>(i)] + radius);
  }
  const T span = std::max(hi - lo, std::numeric_limits<T>::min());
  if (tol <= T{}) tol = span * std::numeric_limits<T>::epsilon() * T{4};

  std::vector<T> eigs;
  eigs.reserve(static_cast<std::size_t>(iu - il + 1));
  for (index_t idx = il; idx <= iu; ++idx) {
    // Bisect for the eigenvalue with exactly `idx` eigenvalues below it.
    T a = lo;
    T b = hi;
    while (b - a > tol) {
      const T mid = a + (b - a) / T{2};
      if (mid <= a || mid >= b) break;  // hit representable resolution
      if (sturm_count(d, e, mid) <= idx)
        a = mid;
      else
        b = mid;
    }
    eigs.push_back(a + (b - a) / T{2});
  }
  return eigs;
}

#define TCEVD_STEBZ_INST(T)                                                              \
  template index_t sturm_count<T>(const std::vector<T>&, const std::vector<T>&, T);      \
  template StatusOr<std::vector<T>> stebz<T>(const std::vector<T>&, const std::vector<T>&, \
                                             index_t, index_t, T);

TCEVD_STEBZ_INST(float)
TCEVD_STEBZ_INST(double)
#undef TCEVD_STEBZ_INST

}  // namespace tcevd::lapack
