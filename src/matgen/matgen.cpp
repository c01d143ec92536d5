#include "src/matgen/matgen.hpp"

#include <algorithm>
#include <cmath>

#include "src/blas/blas.hpp"
#include "src/lapack/qr.hpp"

namespace tcevd::matgen {

std::string matrix_type_name(MatrixType type, double cond) {
  auto cond_tag = [&] {
    const int exp = static_cast<int>(std::lround(std::log10(cond)));
    return std::string(" 1e") + std::to_string(exp);
  };
  switch (type) {
    case MatrixType::Normal:
      return "Normal";
    case MatrixType::Uniform:
      return "Uniform";
    case MatrixType::Cluster0:
      return "SVD_Cluster0" + cond_tag();
    case MatrixType::Cluster1:
      return "SVD_Cluster1" + cond_tag();
    case MatrixType::Arith:
      return "SVD_Arith" + cond_tag();
    case MatrixType::Geo:
      return "SVD_Geo" + cond_tag();
  }
  return "?";
}

std::vector<double> prescribed_spectrum(MatrixType type, index_t n, double cond) {
  TCEVD_CHECK(cond >= 1.0, "condition number must be >= 1");
  if (n <= 0) return {};  // nothing to prescribe (and no back()/front())
  std::vector<double> s(static_cast<std::size_t>(n));
  const double lo = 1.0 / cond;
  switch (type) {
    case MatrixType::Normal:
    case MatrixType::Uniform:
      return {};
    case MatrixType::Cluster0:
      std::fill(s.begin(), s.end(), lo);
      s.back() = 1.0;
      break;
    case MatrixType::Cluster1:
      std::fill(s.begin(), s.end(), 1.0);
      s.front() = lo;
      break;
    case MatrixType::Arith:
      for (index_t i = 0; i < n; ++i)
        s[static_cast<std::size_t>(i)] =
            lo + (1.0 - lo) * static_cast<double>(i) / std::max<index_t>(n - 1, 1);
      break;
    case MatrixType::Geo:
      for (index_t i = 0; i < n; ++i)
        s[static_cast<std::size_t>(i)] = std::pow(
            cond, -1.0 + static_cast<double>(i) / std::max<index_t>(n - 1, 1));
      break;
  }
  std::sort(s.begin(), s.end());
  return s;
}

Matrix<double> random_orthogonal(index_t n, Rng& rng) {
  Matrix<double> g(n, n);
  fill_normal(rng, g.view());
  std::vector<double> tau;
  lapack::geqrf(g.view(), tau, 32);
  Matrix<double> q(n, n);
  lapack::orgqr(g.view(), tau, q.view());
  return q;
}

Matrix<double> generate(MatrixType type, index_t n, double cond, Rng& rng) {
  if (type == MatrixType::Normal || type == MatrixType::Uniform) {
    Matrix<double> a(n, n);
    if (type == MatrixType::Normal)
      fill_normal(rng, a.view());
    else
      fill_uniform(rng, a.view(), -1.0, 1.0);
    make_symmetric(a.view());
    return a;
  }

  const auto spectrum = prescribed_spectrum(type, n, cond);
  Matrix<double> q = random_orthogonal(n, rng);
  // A = Q diag(lambda) Q^T.
  Matrix<double> qd(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      qd(i, j) = q(i, j) * spectrum[static_cast<std::size_t>(j)];
  Matrix<double> a(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::Yes, 1.0, qd.view(), q.view(), 0.0, a.view());
  make_symmetric(a.view());
  return a;
}

Matrix<float> generate_f(MatrixType type, index_t n, double cond, Rng& rng) {
  Matrix<double> ad = generate(type, n, cond, rng);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());
  return a;
}

std::vector<TableRow> paper_accuracy_rows() {
  return {
      {MatrixType::Normal, 1.0},    {MatrixType::Uniform, 1.0},
      {MatrixType::Cluster0, 1e5},  {MatrixType::Cluster1, 1e5},
      {MatrixType::Arith, 1e1},     {MatrixType::Arith, 1e3},
      {MatrixType::Arith, 1e5},     {MatrixType::Geo, 1e1},
      {MatrixType::Geo, 1e3},       {MatrixType::Geo, 1e5},
  };
}

}  // namespace tcevd::matgen
