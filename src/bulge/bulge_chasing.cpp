#include "src/bulge/bulge_chasing.hpp"

#include <algorithm>

#include "src/common/context.hpp"
#include "src/sbr/band.hpp"

namespace tcevd::bulge {

template <typename T>
BulgeResult<T> bulge_chase(MatrixView<T> a, index_t bw, MatrixView<T>* q) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "bulge_chase requires a square matrix");
  TCEVD_CHECK(bw >= 1, "bulge_chase bandwidth must be >= 1");
  if (q) TCEVD_CHECK(q->cols() == n, "bulge_chase Q must have n columns");

  // Peel diagonals d = bw, bw-1, ..., 2 (distance-1 entries remain). Sweep s
  // zeroes column s of the d-th diagonal and chases the resulting bulge off
  // the matrix; the (d, s, k) indexing is shared with the wavefront driver
  // (bulge_wavefront.cpp), which runs the same chase_elim calls in a
  // dependency-respecting order.
  for (index_t d = std::min(bw, n - 1); d >= 2; --d) {
    for (index_t s = 0; s + d < n; ++s) {
      const index_t len = detail::sweep_length(n, d, s);
      for (index_t k = 0; k < len; ++k) {
        detail::chase_elim(a, q, n, d, s, k);
      }
    }
  }

  BulgeResult<T> out;
  sbr::extract_tridiag<T>(a, out.d, out.e);
  return out;
}

template BulgeResult<float> bulge_chase<float>(MatrixView<float>, index_t,
                                               MatrixView<float>*);
template BulgeResult<double> bulge_chase<double>(MatrixView<double>, index_t,
                                                 MatrixView<double>*);

BulgeResult<float> bulge_chase(Context& ctx, MatrixView<float> a, index_t bw,
                               MatrixView<float>* q) {
  StageTimer stage(ctx.telemetry(), "bulge.chase");
  return bulge_chase<float>(a, bw, q);
}

BulgeResult<double> bulge_chase(Context& ctx, MatrixView<double> a, index_t bw,
                                MatrixView<double>* q) {
  StageTimer stage(ctx.telemetry(), "bulge.chase");
  return bulge_chase<double>(a, bw, q);
}

}  // namespace tcevd::bulge
