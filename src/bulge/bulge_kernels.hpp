// Shared rotation kernels for the two bulge-chasing drivers.
//
// The serial driver (bulge_chasing.cpp) and the wavefront-parallel driver
// (bulge_wavefront.cpp) must produce bitwise-identical tridiagonal output and
// accumulated Q: the parallel schedule only reorders rotation applications
// whose touched entries are disjoint (see DESIGN.md §14), so any arithmetic
// difference between the two paths would break the equality the test suite
// pins. Both drivers therefore execute chase iterations through the one
// chase_elim below — there is exactly one place that computes (c, s) and
// applies a rotation.
#pragma once

#include <algorithm>
#include <cmath>

#include "src/common/matrix.hpp"

namespace tcevd::bulge {

namespace detail {

/// Two-sided Givens rotation A <- G^T A G in the plane (i, i+1), touching
/// only columns/rows in [lo, hi) (the band window). G([i,i+1],[i,i+1]) =
/// [[c, -s], [s, c]].
template <typename T>
inline void apply_sym_rotation(MatrixView<T> a, index_t i, T c, T s, index_t lo,
                               index_t hi) {
  const index_t j = i + 1;
  for (index_t k = lo; k < hi; ++k) {
    const T t1 = a(i, k);
    const T t2 = a(j, k);
    a(i, k) = c * t1 + s * t2;
    a(j, k) = -s * t1 + c * t2;
  }
  for (index_t k = lo; k < hi; ++k) {
    const T t1 = a(k, i);
    const T t2 = a(k, j);
    a(k, i) = c * t1 + s * t2;
    a(k, j) = -s * t1 + c * t2;
  }
}

/// Right-multiply q by the same rotation (accumulates the similarity) in the
/// plane (i, i+1), over every row.
template <typename T>
inline void apply_q_rotation(MatrixView<T> q, index_t i, T c, T s) {
  const index_t j = i + 1;
  for (index_t k = 0; k < q.rows(); ++k) {
    const T t1 = q(k, i);
    const T t2 = q(k, j);
    q(k, i) = c * t1 + s * t2;
    q(k, j) = -s * t1 + c * t2;
  }
}

/// Number of chase iterations of sweep `s` at diagonal distance `d`:
/// the bulge lands at rows s + d, s + 2d, ... while they stay below n.
inline index_t sweep_length(index_t n, index_t d, index_t s) { return (n - 1 - s) / d; }

/// One chase iteration: elimination k of sweep s at diagonal distance d.
/// k == 0 zeroes the original outer-diagonal entry (s + d, s); every later k
/// zeroes the bulge the previous iteration pushed d rows further down. The
/// iteration index fully determines the touched entries, so drivers need no
/// per-sweep cursor state beyond k itself.
template <typename T>
inline void chase_elim(MatrixView<T> a, MatrixView<T>* q, index_t n, index_t d,
                       index_t s, index_t k) {
  const index_t tcol = (k == 0) ? s : s + k * d - 1;
  const index_t row = s + (k + 1) * d;
  const T f = a(row - 1, tcol);
  const T g = a(row, tcol);
  if (g != T{}) {
    const T h = std::hypot(f, g);
    const T c = f / h;
    const T sn = g / h;
    // Window: the rotated rows/cols carry entries within the current band
    // (+1 for the live bulge) around indices row-1, row.
    const index_t lo = tcol;
    const index_t hi = std::min(n, row + d + 1);
    apply_sym_rotation(a, row - 1, c, sn, lo, hi);
    a(row, tcol) = T{};  // exact zero by construction
    a(tcol, row) = T{};
    if (q != nullptr) apply_q_rotation(*q, row - 1, c, sn);
  }
}

}  // namespace detail
}  // namespace tcevd::bulge
