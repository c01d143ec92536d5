#include "src/lapack/stein.hpp"

#include <cmath>
#include <limits>

#include "src/blas/blas.hpp"
#include "src/common/fault.hpp"
#include "src/common/rng.hpp"

namespace tcevd::lapack {

namespace {

/// Tridiagonal LU with partial pivoting (gttrf-style). dl/dd/du are the
/// sub/main/super diagonals of (T - lambda I); du2 receives the second
/// superdiagonal fill; ipiv the pivot flags.
template <typename T>
void tri_factor(std::vector<T>& dl, std::vector<T>& dd, std::vector<T>& du,
                std::vector<T>& du2, std::vector<char>& swapped) {
  const index_t n = static_cast<index_t>(dd.size());
  du2.assign(static_cast<std::size_t>(std::max<index_t>(n - 2, 0)), T{});
  swapped.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0);
  const T tiny = std::numeric_limits<T>::min() * T{4};

  for (index_t i = 0; i + 1 < n; ++i) {
    if (std::abs(dd[static_cast<std::size_t>(i)]) >= std::abs(dl[static_cast<std::size_t>(i)])) {
      // No swap.
      T piv = dd[static_cast<std::size_t>(i)];
      if (std::abs(piv) < tiny) piv = std::copysign(tiny, piv == T{} ? T{1} : piv);
      const T fact = dl[static_cast<std::size_t>(i)] / piv;
      dl[static_cast<std::size_t>(i)] = fact;  // store multiplier
      dd[static_cast<std::size_t>(i + 1)] -= fact * du[static_cast<std::size_t>(i)];
      if (i + 2 < n) du2[static_cast<std::size_t>(i)] = T{};
    } else {
      // Swap rows i and i+1.
      swapped[static_cast<std::size_t>(i)] = 1;
      std::swap(dd[static_cast<std::size_t>(i)], dl[static_cast<std::size_t>(i)]);
      const T tmp = du[static_cast<std::size_t>(i)];
      du[static_cast<std::size_t>(i)] = dd[static_cast<std::size_t>(i + 1)];
      dd[static_cast<std::size_t>(i + 1)] = tmp - (dl[static_cast<std::size_t>(i)] /
                                                   dd[static_cast<std::size_t>(i)]) *
                                                      dd[static_cast<std::size_t>(i + 1)];
      if (i + 2 < n) {
        du2[static_cast<std::size_t>(i)] = du[static_cast<std::size_t>(i + 1)];
        du[static_cast<std::size_t>(i + 1)] =
            -(dl[static_cast<std::size_t>(i)] / dd[static_cast<std::size_t>(i)]) *
            du[static_cast<std::size_t>(i + 1)];
      }
      dl[static_cast<std::size_t>(i)] /= dd[static_cast<std::size_t>(i)];
    }
  }
  if (n > 0 && std::abs(dd[static_cast<std::size_t>(n - 1)]) < tiny)
    dd[static_cast<std::size_t>(n - 1)] =
        std::copysign(tiny, dd[static_cast<std::size_t>(n - 1)] == T{}
                                ? T{1}
                                : dd[static_cast<std::size_t>(n - 1)]);
}

/// Solve with the tri_factor output, in place.
template <typename T>
void tri_solve(const std::vector<T>& dl, const std::vector<T>& dd, const std::vector<T>& du,
               const std::vector<T>& du2, const std::vector<char>& swapped, T* x) {
  const index_t n = static_cast<index_t>(dd.size());
  // Forward: apply L^{-1} (with the recorded swaps).
  for (index_t i = 0; i + 1 < n; ++i) {
    if (swapped[static_cast<std::size_t>(i)]) std::swap(x[i], x[i + 1]);
    x[i + 1] -= dl[static_cast<std::size_t>(i)] * x[i];
  }
  // Backward: U x = y with two superdiagonals.
  for (index_t i = n - 1; i >= 0; --i) {
    T s = x[i];
    if (i + 1 < n) s -= du[static_cast<std::size_t>(i)] * x[i + 1];
    if (i + 2 < n) s -= du2[static_cast<std::size_t>(i)] * x[i + 2];
    x[i] = s / dd[static_cast<std::size_t>(i)];
  }
}

}  // namespace

template <typename T>
Status stein(const std::vector<T>& d, const std::vector<T>& e,
             const std::vector<T>& eigenvalues, MatrixView<T> z) {
  const index_t n = static_cast<index_t>(d.size());
  const index_t nev = static_cast<index_t>(eigenvalues.size());
  TCEVD_CHECK(z.rows() == n && z.cols() == nev, "stein z shape mismatch");
  if (n == 0 || nev == 0) return ok_status();
  if (fault::should_fire(fault::Site::SteinStagnate))
    return fault_injected_error(fault::site_name(fault::Site::SteinStagnate));

  // Matrix scale for perturbation/cluster thresholds.
  T anorm{};
  for (index_t i = 0; i < n; ++i) {
    T row = std::abs(d[static_cast<std::size_t>(i)]);
    if (i > 0) row += std::abs(e[static_cast<std::size_t>(i - 1)]);
    if (i + 1 < n) row += std::abs(e[static_cast<std::size_t>(i)]);
    anorm = std::max(anorm, row);
  }
  const T eps = std::numeric_limits<T>::epsilon();
  // LAPACK stein's ORTOL: eigenvalues within 1e-3 * ||T|| of each other get
  // mutually reorthogonalized vectors (inverse iteration alone cannot
  // separate near-degenerate directions).
  const T cluster_gap = std::max(T{1e-3} * anorm, std::numeric_limits<T>::min());

  Rng rng(0x57e17ull + static_cast<std::uint64_t>(n));
  index_t first_failed = -1;
  index_t cluster_start = 0;

  for (index_t j = 0; j < nev; ++j) {
    T lambda = eigenvalues[static_cast<std::size_t>(j)];
    if (j > 0) {
      const T prev = eigenvalues[static_cast<std::size_t>(j - 1)];
      if (lambda - prev > cluster_gap) cluster_start = j;
      // Perturb exact duplicates so the shifted factorization differs.
      if (lambda <= prev) lambda = prev + eps * anorm;
    }

    // Factor (T - lambda I).
    std::vector<T> dl(e.begin(), e.end());
    std::vector<T> du(e.begin(), e.end());
    std::vector<T> dd(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      dd[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i)] - lambda;
    std::vector<T> du2;
    std::vector<char> swapped;
    tri_factor(dl, dd, du, du2, swapped);

    // Random start, a few inverse-iteration sweeps. Convergence signal: the
    // pre-normalization growth ||solve(x)|| ~ 1/dist(lambda, spectrum),
    // which for a correctly computed eigenvalue is ~1/(n eps ||T||).
    std::vector<T> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = static_cast<T>(rng.normal());
    {
      const T n0 = blas::nrm2(n, x.data(), 1);
      blas::scal(n, T{1} / n0, x.data(), 1);
    }
    bool converged = false;
    const T growth_ok =
        T{0.01} / (static_cast<T>(n) * eps * std::max(anorm, std::numeric_limits<T>::min()));
    for (int iter = 0; iter < 8; ++iter) {
      tri_solve(dl, dd, du, du2, swapped, x.data());
      // Reorthogonalize against the current cluster. When the pass removes
      // most of x, the solve amplified the cluster's directions far above
      // the new one, and the pass leaves cancellation error of that ratio
      // times eps; so it runs once more whenever the norm falls below
      // 1/sqrt(2) of what it was ("twice is enough", Kahan's criterion as in
      // DGKS). Otherwise one pass is as good as two.
      if (cluster_start < j) {
        const auto project_out_cluster = [&] {
          for (index_t c = cluster_start; c < j; ++c) {
            const T dot = blas::dot(n, &z(0, c), 1, x.data(), 1);
            blas::axpy(n, -dot, &z(0, c), 1, x.data(), 1);
          }
        };
        const T before = blas::nrm2(n, x.data(), 1);
        project_out_cluster();
        if (blas::nrm2(n, x.data(), 1) < before * std::sqrt(T{0.5})) project_out_cluster();
      }
      const T norm = blas::nrm2(n, x.data(), 1);
      if (norm == T{}) {  // deflated away: restart from fresh randomness
        for (auto& v : x) v = static_cast<T>(rng.normal());
        continue;
      }
      blas::scal(n, T{1} / norm, x.data(), 1);
      if (norm >= growth_ok && iter >= 1) {
        converged = true;
        break;
      }
    }
    if (!converged && first_failed < 0) first_failed = j;
    for (index_t i = 0; i < n; ++i) z(i, j) = x[static_cast<std::size_t>(i)];
  }
  if (first_failed >= 0)
    return no_convergence_error("stein: inverse iteration failed to converge for a vector",
                                first_failed);
  return ok_status();
}

template Status stein<float>(const std::vector<float>&, const std::vector<float>&,
                             const std::vector<float>&, MatrixView<float>);
template Status stein<double>(const std::vector<double>&, const std::vector<double>&,
                              const std::vector<double>&, MatrixView<double>);

}  // namespace tcevd::lapack
