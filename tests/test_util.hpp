// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/norms.hpp"
#include "src/common/rng.hpp"
#include "src/evd/service.hpp"

namespace tcevd::test {

inline Matrix<double> random_matrix(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> a(m, n);
  fill_normal(rng, a.view());
  return a;
}

inline Matrix<float> random_matrix_f(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> a(m, n);
  fill_normal(rng, a.view());
  return a;
}

template <typename T>
Matrix<T> random_symmetric(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  return a;
}

/// Relative Frobenius difference ||a-b||_F / max(||b||_F, 1).
template <typename T>
double rel_diff(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  const double denom = std::max(frobenius_norm(b), 1.0);
  return frobenius_diff(a, b) / denom;
}

/// Submit every matrix to `service` with `opt`, then wait for each in order.
/// Results are index-aligned with `mats`; a refused submit leaves its
/// Status in that slot and its neighbours run as usual.
inline std::vector<evd::RequestResult> solve_all(evd::EvdService& service,
                                                 const std::vector<Matrix<float>>& mats,
                                                 const evd::RequestOptions& opt = {}) {
  std::vector<evd::RequestResult> out(mats.size());
  std::vector<std::optional<evd::RequestId>> ids(mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    StatusOr<evd::RequestId> id = service.submit(mats[i].view(), opt);
    if (id.ok())
      ids[i] = *id;
    else
      out[i].status = id.status();
  }
  for (std::size_t i = 0; i < mats.size(); ++i)
    if (ids[i]) out[i] = service.wait(*ids[i]);
  return out;
}

/// Number of results whose status is Ok.
inline std::size_t num_ok(const std::vector<evd::RequestResult>& results) {
  std::size_t n = 0;
  for (const evd::RequestResult& r : results) n += r.status.ok() ? 1 : 0;
  return n;
}

}  // namespace tcevd::test
