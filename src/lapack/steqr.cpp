#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/fault.hpp"
#include "src/lapack/tridiag.hpp"

namespace tcevd::lapack {

namespace {

/// Sort eigenvalues ascending and permute the matching columns of z.
template <typename T>
void sort_eigensystem(std::vector<T>& d, MatrixView<T>* z) {
  const index_t n = static_cast<index_t>(d.size());
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), [&](index_t a, index_t b) {
    return d[static_cast<std::size_t>(a)] < d[static_cast<std::size_t>(b)];
  });
  std::vector<T> ds(d.size());
  for (index_t i = 0; i < n; ++i) ds[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  d = std::move(ds);
  if (z) {
    Matrix<T> tmp(z->rows(), n);
    for (index_t i = 0; i < n; ++i)
      for (index_t r = 0; r < z->rows(); ++r)
        tmp(r, i) = (*z)(r, perm[static_cast<std::size_t>(i)]);
    copy_matrix<T>(tmp.view(), z->sub(0, 0, z->rows(), n));
  }
}

/// Core implicit QL sweep (EISPACK tql2 lineage). When `z` is null the
/// rotation application is skipped.
template <typename T>
Status tql_implicit(std::vector<T>& d, std::vector<T>& e, MatrixView<T>* z) {
  const index_t n = static_cast<index_t>(d.size());
  if (n == 0) return ok_status();
  TCEVD_CHECK(static_cast<index_t>(e.size()) >= n - 1, "e must have n-1 entries");
  if (z) TCEVD_CHECK(z->cols() == n, "z must have n columns");
  if (n == 1) return ok_status();
  if (fault::should_fire(fault::Site::SteqrExhaust))
    return fault_injected_error(fault::site_name(fault::Site::SteqrExhaust));

  e.resize(static_cast<std::size_t>(n), T{});  // sentinel e[n-1] = 0
  const T eps = std::numeric_limits<T>::epsilon();
  const index_t max_iter_per_eig = 50;

  for (index_t l = 0; l < n; ++l) {
    index_t iter = 0;
    index_t m;
    do {
      // Find the first negligible off-diagonal at or after l.
      for (m = l; m + 1 < n; ++m) {
        const T dd = std::abs(d[static_cast<std::size_t>(m)]) +
                     std::abs(d[static_cast<std::size_t>(m + 1)]);
        if (std::abs(e[static_cast<std::size_t>(m)]) <= eps * dd) break;
      }
      if (m == l) break;
      if (++iter > max_iter_per_eig)
        return no_convergence_error(
            "steqr: eigenvalue failed to converge within the iteration cap", l);

      // Wilkinson shift from the leading 2x2 at l.
      T g = (d[static_cast<std::size_t>(l + 1)] - d[static_cast<std::size_t>(l)]) /
            (T{2} * e[static_cast<std::size_t>(l)]);
      T r = std::hypot(g, T{1});
      g = d[static_cast<std::size_t>(m)] - d[static_cast<std::size_t>(l)] +
          e[static_cast<std::size_t>(l)] / (g + std::copysign(r, g));
      T s{1};
      T c{1};
      T p{};
      bool underflow = false;
      index_t i_stop = l;
      // Chase from m-1 down to l.
      for (index_t i = m - 1; i >= l; --i) {
        T f = s * e[static_cast<std::size_t>(i)];
        const T b = c * e[static_cast<std::size_t>(i)];
        r = std::hypot(f, g);
        e[static_cast<std::size_t>(i + 1)] = r;
        if (r == T{}) {
          // Underflow guard: recover by deflating and restarting the sweep.
          d[static_cast<std::size_t>(i + 1)] -= p;
          e[static_cast<std::size_t>(m)] = T{};
          underflow = true;
          i_stop = i;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[static_cast<std::size_t>(i + 1)] - p;
        r = (d[static_cast<std::size_t>(i)] - g) * s + T{2} * c * b;
        p = s * r;
        d[static_cast<std::size_t>(i + 1)] = g + p;
        g = c * r - b;
        if (z) {
          // Apply the rotation to columns i and i+1 of z.
          for (index_t k = 0; k < z->rows(); ++k) {
            const T zk1 = (*z)(k, i + 1);
            const T zk0 = (*z)(k, i);
            (*z)(k, i + 1) = s * zk0 + c * zk1;
            (*z)(k, i) = c * zk0 - s * zk1;
          }
        }
        if (i == l) break;  // index_t is signed, but avoid decrementing past l
      }
      if (underflow && i_stop >= l) continue;
      d[static_cast<std::size_t>(l)] -= p;
      e[static_cast<std::size_t>(l)] = g;
      e[static_cast<std::size_t>(m)] = T{};
    } while (m != l);
  }

  sort_eigensystem(d, z);
  e.resize(static_cast<std::size_t>(n - 1));
  return ok_status();
}

}  // namespace

template <typename T>
Status steqr(std::vector<T>& d, std::vector<T>& e, MatrixView<T>* z) {
  return tql_implicit(d, e, z);
}

template Status steqr<float>(std::vector<float>&, std::vector<float>&, MatrixView<float>*);
template Status steqr<double>(std::vector<double>&, std::vector<double>&, MatrixView<double>*);

}  // namespace tcevd::lapack
