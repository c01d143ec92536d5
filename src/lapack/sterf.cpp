// Eigenvalues of a symmetric tridiagonal matrix without eigenvectors: the
// root-free Pal-Walker-Kahan QL/QR iteration of LAPACK dsterf.
//
// The iteration runs on the squared off-diagonals, so a rotation costs a few
// divisions and no square root, and a full solve is O(n^2). Squaring halves
// the usable exponent range, so every unreduced block is first scaled by a
// power of two that puts its largest entry into [ssfmin, ssfmax], and its
// eigenvalues are scaled back afterwards. Both precisions iterate in double.
#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "src/common/fault.hpp"
#include "src/lapack/tridiag.hpp"

namespace tcevd::lapack {

namespace {

constexpr index_t kMaxIterPerEig = 30;
constexpr double kEps = std::numeric_limits<double>::epsilon() / 2;  // unit roundoff
constexpr double kEps2 = kEps * kEps;

/// Eigenvalues of [[a, b], [b, c]] (LAPACK dlae2); |rt1| >= |rt2|.
void lae2(double a, double b, double c, double& rt1, double& rt2) {
  const double sm = a + c;
  const double adf = std::abs(a - c);
  const double ab = std::abs(b + b);
  const double acmx = std::abs(a) > std::abs(c) ? a : c;
  const double acmn = std::abs(a) > std::abs(c) ? c : a;
  double rt;
  if (adf > ab)
    rt = adf * std::sqrt(1.0 + (ab / adf) * (ab / adf));
  else if (adf < ab)
    rt = ab * std::sqrt(1.0 + (adf / ab) * (adf / ab));
  else
    rt = ab * std::sqrt(2.0);
  if (sm == 0.0) {
    rt1 = 0.5 * rt;
    rt2 = -0.5 * rt;
    return;
  }
  rt1 = 0.5 * (sm < 0.0 ? sm - rt : sm + rt);
  // The smaller root from the determinant, not from the cancelling sum.
  rt2 = (acmx / rt1) * acmn - (b / rt1) * b;
}

/// Root-free QL on the unreduced block d[l..lend] whose off-diagonals
/// e[l..lend-1] already hold their squares. Eigenvalues converge at the top
/// and are left in place. Returns -1, or the position whose eigenvalue did
/// not converge within kMaxIterPerEig sweeps.
index_t ql_block(double* d, double* e, index_t l, index_t lend) {
  index_t iter = 0;
  while (l <= lend) {
    index_t m = l;
    while (m < lend && !(std::abs(e[m]) <= kEps2 * std::abs(d[m] * d[m + 1]))) ++m;
    if (m < lend) e[m] = 0.0;
    if (m == l) {  // d[l] has converged
      ++l;
      iter = 0;
      continue;
    }
    if (m == l + 1) {  // a 2x2 is left at the top: solve it directly
      double rt1 = 0.0;
      double rt2 = 0.0;
      lae2(d[l], std::sqrt(e[l]), d[l + 1], rt1, rt2);
      d[l] = rt1;
      d[l + 1] = rt2;
      e[l] = 0.0;
      l += 2;
      iter = 0;
      continue;
    }
    if (++iter > kMaxIterPerEig) return l;

    // Shift: the eigenvalue of the top 2x2 nearer d[l].
    const double rte = std::sqrt(e[l]);
    double sigma = (d[l + 1] - d[l]) / (2.0 * rte);
    sigma = d[l] - rte / (sigma + std::copysign(std::hypot(sigma, 1.0), sigma));

    double c = 1.0;
    double s = 0.0;
    double gamma = d[m] - sigma;
    double p = gamma * gamma;
    for (index_t i = m - 1; i >= l; --i) {
      const double bb = e[i];
      const double r = p + bb;
      if (i != m - 1) e[i + 1] = s * r;
      const double oldc = c;
      c = p / r;
      s = bb / r;
      const double oldgam = gamma;
      const double alpha = d[i];
      gamma = c * (alpha - sigma) - s * oldgam;
      d[i + 1] = oldgam + (alpha - gamma);
      p = c != 0.0 ? (gamma * gamma) / c : oldc * bb;
    }
    e[l] = s * p;
    d[l] = sigma + gamma;
  }
  return -1;
}

/// dsterf on d[0..n), e[0..n-1): eigenvalues ascending into d, e destroyed.
Status sterf_double(double* d, double* e, index_t n) {
  const double safmin = std::numeric_limits<double>::min();
  const double ssfmax = std::sqrt(1.0 / safmin) / 3.0;
  const double ssfmin = std::sqrt(safmin) / kEps2;

  for (index_t lo = 0; lo < n;) {
    // The unreduced block [lo, hi] ends at the first negligible e.
    index_t hi = lo;
    while (hi + 1 < n && !(std::abs(e[hi]) <= std::sqrt(std::abs(d[hi])) *
                                                  std::sqrt(std::abs(d[hi + 1])) * kEps))
      ++hi;
    const index_t first = lo;
    lo = hi + 1;
    if (first == hi) continue;

    // Largest magnitude in the block; a NaN anywhere makes it NaN.
    double anorm = 0.0;
    const auto track = [&anorm](double v) {
      const double a = std::abs(v);
      if (a > anorm || std::isnan(a)) anorm = a;
    };
    for (index_t i = first; i <= hi; ++i) track(d[i]);
    for (index_t i = first; i < hi; ++i) track(e[i]);
    if (!std::isfinite(anorm))
      return no_convergence_error("sterf: non-finite entry; the iteration cannot converge", first);
    if (anorm == 0.0) continue;

    // Power-of-two scaling is exact; squares of the scaled block neither
    // overflow nor underflow.
    int shift = 0;
    if (anorm > ssfmax)
      shift = std::ilogb(ssfmax) - std::ilogb(anorm) - 1;
    else if (anorm < ssfmin)
      shift = std::ilogb(ssfmin) - std::ilogb(anorm) + 1;
    for (index_t i = first; i <= hi; ++i) d[i] = std::scalbn(d[i], shift);
    for (index_t i = first; i < hi; ++i) {
      const double v = std::scalbn(e[i], shift);
      e[i] = v * v;
    }

    // dsterf runs QR when the bottom diagonal is the smaller one; QR on a
    // block is QL on its reversal.
    const bool reversed = std::abs(d[hi]) < std::abs(d[first]);
    if (reversed) {
      std::reverse(d + first, d + hi + 1);
      std::reverse(e + first, e + hi);
    }
    const index_t stuck = ql_block(d, e, first, hi);
    if (stuck >= 0)
      return no_convergence_error("sterf: eigenvalue failed to converge within the iteration cap",
                                  reversed ? first + hi - stuck : stuck);
    for (index_t i = first; i <= hi; ++i) d[i] = std::scalbn(d[i], -shift);
  }
  std::sort(d, d + n);
  return ok_status();
}

}  // namespace

template <typename T>
Status sterf(std::vector<T>& d, std::vector<T>& e) {
  const index_t n = static_cast<index_t>(d.size());
  if (n == 0) return ok_status();
  TCEVD_CHECK(static_cast<index_t>(e.size()) >= n - 1, "e must have n-1 entries");
  if (n > 1) {
    if (fault::should_fire(fault::Site::SteqrExhaust))
      return fault_injected_error(fault::site_name(fault::Site::SteqrExhaust));
    if constexpr (std::is_same_v<T, double>) {
      TCEVD_RETURN_IF_ERROR(sterf_double(d.data(), e.data(), n));
    } else {
      std::vector<double> w(static_cast<std::size_t>(2 * n - 1));
      std::copy(d.begin(), d.end(), w.begin());
      std::copy(e.begin(), e.begin() + (n - 1), w.begin() + n);
      TCEVD_RETURN_IF_ERROR(sterf_double(w.data(), w.data() + n, n));
      std::copy(w.begin(), w.begin() + n, d.begin());
    }
  }
  std::fill(e.begin(), e.end(), T{});
  return ok_status();
}

template Status sterf<float>(std::vector<float>&, std::vector<float>&);
template Status sterf<double>(std::vector<double>&, std::vector<double>&);

}  // namespace tcevd::lapack
