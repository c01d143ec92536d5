// Symmetric eigenvalue decomposition drivers (paper Section 6.4).
//
// The two-stage pipeline is: SBR (dense -> band, Tensor Core GEMMs) ->
// bulge chasing (band -> tridiagonal) -> tridiagonal eigensolver (QL or
// divide & conquer), with an optional eigenvector back-transformation
// through the accumulated orthogonal factors. The one-stage pipeline
// (classic Householder tridiagonalization) is kept as the conventional
// baseline the two-stage method is measured against. Every solve runs its
// stages start to finish on the calling thread in one evd::run_solve call
// (src/evd/pipeline.hpp), which EvdService runs for each request too.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/common/verify.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd {
class Context;
}  // namespace tcevd

namespace tcevd::evd {

enum class Reduction {
  TwoStageWy,   ///< WY-based SBR (the paper's method) + bulge chasing
  TwoStageZy,   ///< ZY-based SBR (MAGMA-style baseline) + bulge chasing
  TwoStageDbr,  ///< Detached Band Reduction (narrow band b, wide accumulation
                ///< nb — sbr::sbr_dbr) + bulge chasing on the narrow band
  OneStage,     ///< direct Householder tridiagonalization (sytrd)
};

enum class TriSolver {
  Ql,             ///< implicit QL/QR with Wilkinson shifts (steqr)
  DivideConquer,  ///< Cuppen D&C (stedc) — what MAGMA's ssyevd uses; without
                  ///< vectors stedc runs the root-free O(n^2) sterf
  Bisection,      ///< Sturm bisection (+ inverse iteration for vectors)
};

/// Human-readable solver name ("ql", "divide-conquer", "bisection").
const char* tri_solver_name(TriSolver solver) noexcept;

struct EvdOptions {
  Reduction reduction = Reduction::TwoStageWy;
  TriSolver solver = TriSolver::DivideConquer;
  /// SBR band half-width b, at least 1 (size-clamped to n - 1; for
  /// TwoStageDbr pick it small — the second stage is O(n^2 b) — and pick
  /// big_block large). A bandwidth below 1 is InvalidArgument.
  index_t bandwidth = 32;
  /// WY/DBR accumulation blocksize nb. The driver derives a valid SbrOptions
  /// pair from (bandwidth, big_block): values below the (clamped) bandwidth
  /// are raised to it and non-multiples rounded down, each adjustment noted
  /// in EvdResult::recovery (site "evd.options" / "sbr.options") rather than
  /// silently applied. Direct sbr::* callers get strict InvalidArgument
  /// rejection instead — see sbr::validate_options.
  index_t big_block = 128;
  sbr::PanelKind panel = sbr::PanelKind::Tsqr;
  bool vectors = false;                         ///< compute eigenvectors
  /// Lanes of the second stage (src/bulge/bulge_wavefront.hpp,
  /// bulge_chase_auto), which chases the band in compact O(n*b) storage with
  /// or without Q. 0 = auto: up to gemm_pool()'s lanes when Q is accumulated
  /// and n >= 1024; otherwise serial. 1 = always the serial chase. k >= 2 =
  /// at most k lanes, with or without Q. Inside a blas::SerialGemmScope every
  /// setting runs the serial chase; every EvdService runner holds one, so
  /// service requests keep the serial chase — the runners ARE the
  /// parallelism. Every setting produces bitwise-identical output — the
  /// wavefront schedule is pinned to the serial rotation sequence
  /// (docs/ALGORITHMS.md §14) — so this is a performance knob, never an
  /// accuracy one. An explicit k >= 2 that cannot engage (SerialGemmScope,
  /// bandwidth < 2, or n <= 2) runs a serial chase and notes the downgrade in
  /// EvdResult::recovery at site "evd.second_stage".
  int bulge_threads = 0;
  /// Reject NaN/Inf entries and gross asymmetry up front (InvalidInput)
  /// instead of feeding garbage to the pipeline. O(n^2) scan.
  bool screen_input = true;
  /// Relative asymmetry tolerance for the input screen:
  /// |a_ij - a_ji| <= asymmetry_tol * max|a| is accepted.
  float asymmetry_tol = 1e-3f;

  // --- verified solves (see src/common/verify.hpp and DESIGN.md §12) -------
  /// Post-solve verification policy. Off skips verification entirely.
  /// Estimate computes stochastic residual/orthogonality estimates (or the
  /// trace/Frobenius invariants for eigenvalue-only solves), records the
  /// verdict in EvdResult::verify and notes a breach at recovery site
  /// "evd.verify" — but still returns the result. EstimateEscalate
  /// additionally re-solves a breached problem on the next higher-accuracy
  /// engine (Tc -> EcTc -> Fp32), so at most three attempts; when the chain
  /// is exhausted without a passing estimate, the solve returns
  /// PrecisionLoss instead of a result. Selected-range solves
  /// (solve_selected) are never verified — the estimators need the full
  /// spectrum — and note a policy other than Off at "evd.verify" instead.
  verify::Policy verify = verify::Policy::Off;
  /// Probe vectors per verification (see verify::Options::probes).
  int verify_probes = 4;
  /// Multiplies both verification thresholds (tighten < 1, loosen > 1).
  float verify_tol_scale = 1.0f;
  /// Run every packed GEMM issued during this solve under ABFT checksum
  /// protection (src/blas/abft.hpp): each C micro-tile is verified against a
  /// column-checksum invariant and a corrupted tile is recomputed in place,
  /// with the event recorded at recovery site "blas.abft". ~10% GEMM
  /// overhead; a recovered solve is bitwise-identical to a fault-free one.
  bool abft = false;
};

struct EvdTimings {
  double reduction_s = 0.0;  ///< SBR or sytrd
  double bulge_s = 0.0;      ///< bulge chasing (two-stage only)
  double solver_s = 0.0;     ///< tridiagonal eigensolver
  double verify_s = 0.0;     ///< residual estimation (verified solves only)
  double total_s = 0.0;
};

struct EvdResult {
  std::vector<float> eigenvalues;  ///< ascending (iu - il + 1 values when selected)
  Matrix<float> vectors;           ///< n x n, or n x (iu - il + 1) when selected
                                   ///< (empty unless requested)
  EvdTimings timings;
  bool converged = false;
  /// Every graceful-degradation event taken while solving (panel QR
  /// fallbacks, fp32 GEMM retries, tridiagonal solver fallbacks, ABFT tile
  /// recomputations, verification breaches and escalations), in the order
  /// they happened across every attempt of an escalated solve. The same
  /// events land once on the context's telemetry. Empty on a clean run. A
  /// failed solve returns no result; its log goes to the caller's
  /// recovery::Scope instead.
  RecoveryLog recovery;
  /// Verification verdict (EvdOptions::verify != Off only; default-initial
  /// otherwise, with checked == false). Under EstimateEscalate a returned
  /// result always has verify.passed == true — a breach either escalated to
  /// a passing re-solve recorded here (attempts/escalations/engine) or the
  /// solve failed with PrecisionLoss.
  verify::Report verify;
};

/// Full single-precision EVD with the context's engine supplying every SBR
/// GEMM and its workspace arena supplying every scratch matrix. On entry the
/// arena is pre-sized with workspace_query, so the *second* solve of the
/// same shape on a given Context performs zero arena growth (see the
/// steady-state test); per-stage wall time and the solve's recovery log
/// additionally land on the context's telemetry.
///
/// Failure semantics: a non-square matrix or a bandwidth below 1 is
/// InvalidArgument; invalid input (NaN/Inf/asymmetric) is InvalidInput;
/// recoverable numerical trouble first walks the documented fallbacks
/// (TSQR -> blocked QR panels, fp32 GEMM retry, solver chain) and only
/// propagates if every fallback is exhausted. A returned EvdResult is
/// always converged; `recovery` says what it took.
StatusOr<EvdResult> solve(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt);

/// Peak workspace-arena bytes one solve of size n needs (LAPACK-lwork
/// style, conservative — covers the SBR stage and the one-stage scratch, and
/// with opt.vectors also the QL and bisection eigenvector buffers and their
/// back-transform, which only vector solves use).
std::size_t workspace_query(index_t n, const EvdOptions& opt);

/// Double-precision reference eigenvalues (one-stage sytrd + QL), the stand-
/// in for "LAPACK dsyevd" ground truth in the accuracy tables. Reports
/// NoConvergence instead of aborting when the QL iteration stalls.
StatusOr<std::vector<double>> reference_eigenvalues(ConstMatrixView<double> a);

/// Residual metrics for a computed eigensystem: max_j ||A v_j - lambda_j
/// v_j||_2 / ||A||_F, computed in double.
double eigenpair_residual(ConstMatrixView<float> a, const std::vector<float>& lambda,
                          ConstMatrixView<float> v);

}  // namespace tcevd::evd
