// Divide & conquer symmetric tridiagonal eigensolver (Cuppen's method with
// Gu-Eisenstat stable eigenvector formation).
//
// The tridiagonal T is torn in half by a rank-one modification:
//
//   T = [T1' 0; 0 T2'] + rho * u u^T,   rho = |e_{m-1}|,
//   u = e_m-th basis (1) and sign(e_{m-1}) * first basis of the second half,
//
// children are solved recursively, the modification is diagonalized in the
// children's eigenbasis (D + w w^T with w = Q^T u * sqrt(rho) folded into
// w^2 = rho z^2), small or duplicate components are deflated, the secular
// equation gives the non-deflated eigenvalues, and z is *recomputed* from
// the computed roots (Gu & Eisenstat) so eigenvectors of clustered
// eigenvalues stay numerically orthogonal.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/blas/blas.hpp"
#include "src/lapack/secular.hpp"
#include "src/lapack/tridiag.hpp"

namespace tcevd::lapack {

namespace {

constexpr index_t kDcBaseSize = 32;

/// Full D&C on (d, e), eigenvectors into v (n x n, overwritten).
Status dc_solve(std::vector<double>& d, std::vector<double>& e, MatrixView<double> v) {
  const index_t n = static_cast<index_t>(d.size());
  if (n <= kDcBaseSize) {
    set_identity(v);
    return steqr<double>(d, e, &v);
  }

  const index_t m = n / 2;
  const double b = e[static_cast<std::size_t>(m - 1)];
  const double rho = std::abs(b);
  const double sgn = (b >= 0.0) ? 1.0 : -1.0;

  // Children (with the rank-one tear subtracted from the touching diagonals).
  std::vector<double> d1(d.begin(), d.begin() + m);
  std::vector<double> e1(e.begin(), e.begin() + (m - 1));
  std::vector<double> d2(d.begin() + m, d.end());
  std::vector<double> e2(e.begin() + m, e.end());
  d1[static_cast<std::size_t>(m - 1)] -= rho;
  d2[0] -= rho;

  Matrix<double> v1(m, m);
  Matrix<double> v2(n - m, n - m);
  TCEVD_RETURN_IF_ERROR(dc_solve(d1, e1, v1.view()));
  TCEVD_RETURN_IF_ERROR(dc_solve(d2, e2, v2.view()));

  // Combined (unsorted) diagonal and z = Q^T u.
  std::vector<double> dd(static_cast<std::size_t>(n));
  std::vector<double> zz(static_cast<std::size_t>(n));
  for (index_t i = 0; i < m; ++i) {
    dd[static_cast<std::size_t>(i)] = d1[static_cast<std::size_t>(i)];
    zz[static_cast<std::size_t>(i)] = v1(m - 1, i);  // last row of V1
  }
  for (index_t i = 0; i < n - m; ++i) {
    dd[static_cast<std::size_t>(m + i)] = d2[static_cast<std::size_t>(i)];
    zz[static_cast<std::size_t>(m + i)] = sgn * v2(0, i);  // first row of V2
  }

  // Eigenbasis so far: blockdiag(V1, V2), columns permuted to ascending dd.
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), [&](index_t a, index_t c) {
    return dd[static_cast<std::size_t>(a)] < dd[static_cast<std::size_t>(c)];
  });

  Matrix<double> qb(n, n);
  std::vector<double> ds(static_cast<std::size_t>(n));
  std::vector<double> zs(static_cast<std::size_t>(n));
  for (index_t jc = 0; jc < n; ++jc) {
    const index_t src = perm[static_cast<std::size_t>(jc)];
    ds[static_cast<std::size_t>(jc)] = dd[static_cast<std::size_t>(src)];
    zs[static_cast<std::size_t>(jc)] = zz[static_cast<std::size_t>(src)];
    if (src < m) {
      for (index_t r = 0; r < m; ++r) qb(r, jc) = v1(r, src);
    } else {
      for (index_t r = 0; r < n - m; ++r) qb(m + r, jc) = v2(r, src - m);
    }
  }

  // Degenerate tear: halves are exactly decoupled.
  if (rho == 0.0) {
    copy_matrix<double>(qb.view(), v);
    d = std::move(ds);
    e.assign(static_cast<std::size_t>(n - 1), 0.0);
    return ok_status();
  }

  // ---- Deflation ----------------------------------------------------------
  double dmax = 0.0;
  double zmax = 0.0;
  for (index_t i = 0; i < n; ++i) {
    dmax = std::max(dmax, std::abs(ds[static_cast<std::size_t>(i)]));
    zmax = std::max(zmax, std::abs(zs[static_cast<std::size_t>(i)]));
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = 8.0 * eps * std::max({dmax, rho * zmax * zmax, rho});

  std::vector<index_t> kept;
  std::vector<index_t> deflated;
  kept.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    if (rho * std::abs(zs[static_cast<std::size_t>(i)]) <= tol) {
      deflated.push_back(i);  // type 1: negligible coupling
      continue;
    }
    if (!kept.empty()) {
      const index_t p = kept.back();
      if (ds[static_cast<std::size_t>(i)] - ds[static_cast<std::size_t>(p)] <= tol) {
        // Type 2: (near-)equal poles. Rotate weight of p into i, deflate p.
        const double z1 = zs[static_cast<std::size_t>(p)];
        const double z2 = zs[static_cast<std::size_t>(i)];
        const double r = std::hypot(z1, z2);
        const double c = z2 / r;
        const double s = z1 / r;
        zs[static_cast<std::size_t>(p)] = 0.0;
        zs[static_cast<std::size_t>(i)] = r;
        const double dp = ds[static_cast<std::size_t>(p)];
        const double di = ds[static_cast<std::size_t>(i)];
        ds[static_cast<std::size_t>(p)] = c * c * dp + s * s * di;
        ds[static_cast<std::size_t>(i)] = s * s * dp + c * c * di;
        for (index_t rr = 0; rr < n; ++rr) {
          const double qp = qb(rr, p);
          const double qi = qb(rr, i);
          qb(rr, p) = c * qp - s * qi;
          qb(rr, i) = s * qp + c * qi;
        }
        kept.pop_back();
        deflated.push_back(p);
      }
    }
    kept.push_back(i);
  }

  const index_t nk = static_cast<index_t>(kept.size());
  std::vector<double> lam(static_cast<std::size_t>(n));
  Matrix<double> vout(n, n);

  if (nk == 0) {
    // Everything deflated: eigenpairs are (ds, qb) as they stand.
    for (index_t i = 0; i < n; ++i) lam[static_cast<std::size_t>(i)] = ds[static_cast<std::size_t>(i)];
    copy_matrix<double>(qb.view(), vout.view());
  } else {
    // ---- Secular equation on the kept poles -------------------------------
    std::vector<double> dk(static_cast<std::size_t>(nk));
    std::vector<double> wsq(static_cast<std::size_t>(nk));
    for (index_t i = 0; i < nk; ++i) {
      dk[static_cast<std::size_t>(i)] = ds[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      const double z = zs[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      wsq[static_cast<std::size_t>(i)] = rho * z * z;
    }
    // Guard: the secular solver needs strictly ascending poles. Deflation
    // leaves gaps > 0; enforce against pathological ties.
    for (index_t i = 1; i < nk; ++i) {
      auto& cur = dk[static_cast<std::size_t>(i)];
      const double prev = dk[static_cast<std::size_t>(i - 1)];
      if (cur <= prev) cur = prev + std::max(tol, eps * std::max(1.0, std::abs(prev)));
    }

    std::vector<SecularRoot> roots(static_cast<std::size_t>(nk));
    for (index_t j = 0; j < nk; ++j) roots[static_cast<std::size_t>(j)] = secular_solve(dk, wsq, 1.0, j);

    // ---- Gu-Eisenstat: recompute w from the computed roots ----------------
    std::vector<long double> what(static_cast<std::size_t>(nk));
    for (index_t i = 0; i < nk; ++i) {
      long double p = gap_from_root(dk, roots[static_cast<std::size_t>(i)], i);  // lambda_i - d_i > 0
      for (index_t j = 0; j < nk; ++j) {
        if (j == i) continue;
        const long double num = gap_from_root(dk, roots[static_cast<std::size_t>(j)], i);
        const long double den = static_cast<long double>(dk[static_cast<std::size_t>(j)]) -
                                static_cast<long double>(dk[static_cast<std::size_t>(i)]);
        p *= num / den;
      }
      const double zi = zs[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      what[static_cast<std::size_t>(i)] = std::copysign(std::sqrt(std::abs(p)), static_cast<long double>(zi));
    }

    // ---- Eigenvectors of D + w w^T ----------------------------------------
    Matrix<double> svec(nk, nk);
    for (index_t j = 0; j < nk; ++j) {
      long double norm2 = 0.0L;
      for (index_t i = 0; i < nk; ++i) {
        const long double gap = gap_from_root(dk, roots[static_cast<std::size_t>(j)], i);  // lambda_j - d_i
        const long double vi = what[static_cast<std::size_t>(i)] / (-gap);                 // w_i / (d_i - lambda_j)
        svec(i, j) = static_cast<double>(vi);
        norm2 += vi * vi;
      }
      const double inv = static_cast<double>(1.0L / std::sqrt(norm2));
      for (index_t i = 0; i < nk; ++i) svec(i, j) *= inv;
      lam[static_cast<std::size_t>(j)] =
          static_cast<double>(static_cast<long double>(dk[static_cast<std::size_t>(roots[static_cast<std::size_t>(j)].anchor)]) +
                              roots[static_cast<std::size_t>(j)].offset);
    }

    // Back-transform: vout(:, 0:nk) = Q_kept * svec; deflated columns copied.
    Matrix<double> qkept(n, nk);
    for (index_t j = 0; j < nk; ++j)
      for (index_t r = 0; r < n; ++r) qkept(r, j) = qb(r, kept[static_cast<std::size_t>(j)]);
    blas::gemm<double>(blas::Trans::No, blas::Trans::No, 1.0, qkept.view(), svec.view(), 0.0,
               vout.sub(0, 0, n, nk));
    for (index_t j = 0; j < static_cast<index_t>(deflated.size()); ++j) {
      const index_t src = deflated[static_cast<std::size_t>(j)];
      lam[static_cast<std::size_t>(nk + j)] = ds[static_cast<std::size_t>(src)];
      for (index_t r = 0; r < n; ++r) vout(r, nk + j) = qb(r, src);
    }
  }

  // ---- Final ascending sort ------------------------------------------------
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(), [&](index_t a, index_t c) {
    return lam[static_cast<std::size_t>(a)] < lam[static_cast<std::size_t>(c)];
  });
  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[static_cast<std::size_t>(j)];
    d[static_cast<std::size_t>(j)] = lam[static_cast<std::size_t>(src)];
    for (index_t r = 0; r < n; ++r) v(r, j) = vout(r, src);
  }
  e.assign(static_cast<std::size_t>(n - 1), 0.0);
  return ok_status();
}

}  // namespace

template <typename T>
Status stedc(std::vector<T>& d, std::vector<T>& e, MatrixView<T>* z) {
  // Without vectors the merges would only feed eigenvalues that the
  // root-free iteration finds in O(n^2), as ?syevd does for jobz = 'N'.
  if (!z) return sterf(d, e);
  const index_t n = static_cast<index_t>(d.size());
  if (n == 0) return ok_status();
  TCEVD_CHECK(z->cols() == n, "stedc z must have n columns");

  std::vector<double> dd(d.begin(), d.end());
  std::vector<double> ee(e.begin(), e.end());
  Matrix<double> v(n, n);
  TCEVD_RETURN_IF_ERROR(dc_solve(dd, ee, v.view()));

  for (index_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = static_cast<T>(dd[static_cast<std::size_t>(i)]);
  std::fill(e.begin(), e.end(), T{});

  // z := z * V in the caller's precision.
  Matrix<T> vt(n, n);
  convert_matrix<double, T>(v.view(), vt.view());
  Matrix<T> tmp(z->rows(), n);
  blas::gemm<T>(blas::Trans::No, blas::Trans::No, T{1},
             ConstMatrixView<T>(z->data(), z->rows(), n, z->ld()), vt.view(), T{},
             tmp.view());
  copy_matrix<T>(tmp.view(), *z);
  return ok_status();
}

template Status stedc<float>(std::vector<float>&, std::vector<float>&, MatrixView<float>*);
template Status stedc<double>(std::vector<double>&, std::vector<double>&, MatrixView<double>*);

}  // namespace tcevd::lapack
