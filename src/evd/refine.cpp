#include "src/evd/refine.hpp"

#include <cmath>
#include <limits>

#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/lapack/getrf.hpp"

namespace tcevd::evd {

namespace {

constexpr int kMaxIters = 6;

/// ||A v - lambda v||_2 for a unit vector v.
double residual_norm(ConstMatrixView<double> a, const double* v, double lambda,
                     std::vector<double>& work) {
  const index_t n = a.rows();
  work.assign(static_cast<std::size_t>(n), 0.0);
  blas::gemv(blas::Trans::No, 1.0, a, v, 1, 0.0, work.data(), 1);
  double s = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double r = work[static_cast<std::size_t>(i)] - lambda * v[i];
    s += r * r;
  }
  return std::sqrt(s);
}

RefineResult refine_double(ConstMatrixView<double> a, const std::vector<double>& lambda0,
                           ConstMatrixView<double> v0) {
  const index_t n = a.rows();
  const index_t nev = static_cast<index_t>(lambda0.size());
  TCEVD_CHECK(a.cols() == n, "refine_eigenpairs requires square A");
  TCEVD_CHECK(v0.rows() == n && v0.cols() == nev, "refine_eigenpairs v0 shape mismatch");

  RefineResult out;
  out.eigenvalues = lambda0;
  out.vectors = Matrix<double>(n, nev);
  copy_matrix(v0, out.vectors.view());
  out.residuals.assign(static_cast<std::size_t>(nev), 0.0);

  const double tol =
      10.0 * std::numeric_limits<double>::epsilon() * std::max(frobenius_norm(a), 1.0);

  std::vector<double> work;
  Matrix<double> shifted(n, n);
  std::vector<index_t> piv;

  for (index_t j = 0; j < nev; ++j) {
    double* v = &out.vectors(0, j);
    // Normalize the input vector.
    const double vn = blas::nrm2(n, v, 1);
    TCEVD_CHECK(vn > 0.0, "refine_eigenpairs: zero starting vector");
    blas::scal(n, 1.0 / vn, v, 1);

    double mu = out.eigenvalues[static_cast<std::size_t>(j)];
    double res = residual_norm(a, v, mu, work);

    for (int it = 0; it < kMaxIters && res > tol; ++it) {
      ++out.total_iterations;
      // Rayleigh quotient of the current vector.
      work.assign(static_cast<std::size_t>(n), 0.0);
      blas::gemv(blas::Trans::No, 1.0, a, v, 1, 0.0, work.data(), 1);
      mu = blas::dot(n, v, 1, work.data(), 1);

      // One inverse-iteration step at the Rayleigh shift. The shifted matrix
      // is nearly singular by design; partial pivoting keeps the solve
      // usable, and any blow-up only *improves* the eigenvector direction.
      copy_matrix(a, shifted.view());
      for (index_t i = 0; i < n; ++i) shifted(i, i) -= mu;
      if (!lapack::getrf(shifted.view(), piv).ok()) {
        // Exactly singular: mu is an eigenvalue to machine precision and v
        // is its vector (or the solve below would divide by zero).
        res = residual_norm(a, v, mu, work);
        break;
      }
      Matrix<double> rhs(n, 1);
      for (index_t i = 0; i < n; ++i) rhs(i, 0) = v[i];
      lapack::getrs<double>(blas::Trans::No, shifted.view(), piv, rhs.view());
      const double wn = blas::nrm2(n, &rhs(0, 0), 1);
      if (!(wn > 0.0) || !std::isfinite(wn)) break;
      for (index_t i = 0; i < n; ++i) v[i] = rhs(i, 0) / wn;

      // Updated Rayleigh quotient and residual.
      work.assign(static_cast<std::size_t>(n), 0.0);
      blas::gemv(blas::Trans::No, 1.0, a, v, 1, 0.0, work.data(), 1);
      mu = blas::dot(n, v, 1, work.data(), 1);
      res = residual_norm(a, v, mu, work);
    }

    out.eigenvalues[static_cast<std::size_t>(j)] = mu;
    out.residuals[static_cast<std::size_t>(j)] = res;
  }
  return out;
}

}  // namespace

RefineResult refine_eigenpairs(Context& ctx, ConstMatrixView<float> a,
                               const std::vector<float>& lambda0, ConstMatrixView<float> v0) {
  StageTimer stage(ctx.telemetry(), "evd.refine");
  const index_t n = a.rows();
  const index_t nev = static_cast<index_t>(lambda0.size());
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a, ad.view());
  Matrix<double> vd(n, nev);
  convert_matrix<float, double>(v0, vd.view());
  std::vector<double> ld(lambda0.begin(), lambda0.end());
  return refine_double(ad.view(), ld, vd.view());
}

}  // namespace tcevd::evd
