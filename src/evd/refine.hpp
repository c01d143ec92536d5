// Mixed-precision eigenpair refinement (the paper's closing future-work
// item, after Tsai, Luszczek & Dongarra 2021: recover full precision from a
// low-precision eigensolve).
//
// Given approximate eigenpairs from the Tensor-Core pipeline (accuracy
// ~eps16), each pair is polished by shifted inverse iteration with Rayleigh
// quotient updates, carried out in double:
//
//   repeat:  mu = v^T A v,   solve (A - mu I) w = v,   v = w / ||w||
//
// Rayleigh-quotient iteration converges cubically for symmetric matrices,
// so 1-2 steps take a TC-accuracy pair to ~fp64 accuracy. Cost is one LU
// per refined pair — worthwhile when a few pairs are needed accurately
// (e.g. the low-rank/PCA applications the paper motivates).
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace tcevd {
class Context;
}  // namespace tcevd

namespace tcevd::evd {

struct RefineResult {
  std::vector<double> eigenvalues;  ///< refined values (same order as input)
  Matrix<double> vectors;           ///< refined vectors, n x nev
  std::vector<double> residuals;    ///< final ||A v - lambda v||_2 per pair
  int total_iterations = 0;
};

/// Refine selected approximate eigenpairs of symmetric `a`. `lambda0` and
/// the columns of `v0` are the starting pairs from the fp32/TC pipeline;
/// computation is in double throughout, at most 6 iterations per pair, each
/// stopping once its residual is below 10 eps max(||A||_F, 1). The
/// auxiliary LU/GEMV work stays on the heap (it is fp64 and off the TC hot
/// path); elapsed time lands on the context's telemetry under stage
/// "evd.refine".
RefineResult refine_eigenpairs(Context& ctx, ConstMatrixView<float> a,
                               const std::vector<float>& lambda0, ConstMatrixView<float> v0);

}  // namespace tcevd::evd
