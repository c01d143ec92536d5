// Bulge chasing: symmetric band -> tridiagonal (the second stage of two-stage
// tridiagonalization; the paper calls MAGMA's implementation, we build the
// classic Givens-rotation scheme of Schwarz/Rutishauser).
//
// The bandwidth is peeled one diagonal at a time: eliminating an entry on the
// outermost diagonal with a Givens rotation creates a single bulge one place
// outside the band, which is chased down and off the matrix in strides of the
// current bandwidth. Cost is O(n^2 b) flops — this is why the paper keeps the
// SBR bandwidth b modest (the bulge-chasing stage scales with b) even though
// larger b would make the SBR GEMMs squarer still.
//
// This header is the SERIAL driver — the bitwise reference. The wavefront-
// parallel driver (bulge_wavefront.hpp) runs the identical rotation sequence
// per sweep on the shared ThreadPool and is pinned bitwise-equal to this one
// for every thread count; see DESIGN.md §14.
#pragma once

#include <vector>

#include "src/bulge/bulge_kernels.hpp"
#include "src/common/matrix.hpp"

namespace tcevd {
class Context;
}  // namespace tcevd

namespace tcevd::bulge {

template <typename T>
struct BulgeResult {
  std::vector<T> d;  ///< diagonal of the tridiagonal form
  std::vector<T> e;  ///< subdiagonal
};

/// Reduce symmetric `a` (full storage, bandwidth `bw`) to tridiagonal form.
/// If `q` is non-null it must be n x n and is multiplied on the right by
/// every rotation (pass the SBR's Q to keep the full similarity transform).
/// `a` is overwritten with the tridiagonal matrix.
template <typename T>
BulgeResult<T> bulge_chase(MatrixView<T> a, index_t bw, MatrixView<T>* q = nullptr);

extern template BulgeResult<float> bulge_chase<float>(MatrixView<float>, index_t,
                                                      MatrixView<float>*);
extern template BulgeResult<double> bulge_chase<double>(MatrixView<double>, index_t,
                                                        MatrixView<double>*);

/// Context-aware entry points: same rotation-level algorithm (no GEMMs, no
/// scratch matrices), but the elapsed time lands on the context's telemetry
/// under stage "bulge.chase". Both instantiations are covered so the double
/// reference pipelines are stage-attributed too.
BulgeResult<float> bulge_chase(Context& ctx, MatrixView<float> a, index_t bw,
                               MatrixView<float>* q = nullptr);
BulgeResult<double> bulge_chase(Context& ctx, MatrixView<double> a, index_t bw,
                                MatrixView<double>* q = nullptr);

}  // namespace tcevd::bulge
