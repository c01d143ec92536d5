// Cheap end-to-end solution verification for the EVD drivers.
//
// A full residual check of an eigensystem — ‖A − QΛQᵀ‖_F and ‖QᵀQ − I‖_F —
// costs two n×n GEMMs, an O(n³) bill nobody pays on every solve. This module
// computes *stochastic estimates* of the same quantities with a handful of
// matvecs, O(probes · n²):
//
//   For an iid standard-normal probe w,  E‖Ew‖² = ‖E‖_F²,  so
//     sqrt(mean_p ‖(A − QΛQᵀ) w_p‖²)  estimates  ‖A − QΛQᵀ‖_F   and
//     sqrt(mean_p ‖(QᵀQ − I) w_p‖²)   estimates  ‖QᵀQ − I‖_F.
//
// Each probe needs one A·w and four Q-matvecs, all double-accumulated over
// the float data (no double copies are materialized). Eigenvalue-only solves
// have no Q to probe; they are gated instead on the exact spectral
// invariants Σλ = tr A and Σλ² = ‖A‖_F², which any correct eigenvalue set
// satisfies to rounding error while a corrupted pipeline breaks them at the
// magnitude of the corruption.
//
// Estimates are compared against per-EngineKind thresholds (fp16 Tensor Core
// numerics legitimately produce residuals ~eps16-scaled; gating them at fp32
// tolerances would flag every clean solve). The thresholds are deliberately
// loose — an order of magnitude above a clean solve's typical estimate —
// because the gate exists to catch *corruption* (silent data corruption, a
// missed saturation, a broken fallback), which shows up orders of magnitude
// above any legitimate rounding floor.
//
// evd::solve consumes these estimates through its VerifyPolicy (see
// src/evd/evd.hpp): `Estimate` annotates a breach on the result, while
// `EstimateEscalate` re-solves on a higher-accuracy engine
// (Tc -> EcTc -> Fp32) until the estimate passes or the chain is
// exhausted. The fault site "verify.residual" (TCEVD_FAULTS) forces a breach
// to exercise that escalation machinery end to end.
#pragma once

#include <string>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd::verify {

/// What evd::solve does with the residual estimates.
enum class Policy {
  Off,               ///< no verification (default; zero overhead)
  Estimate,          ///< estimate + annotate breaches; never re-solves
  EstimateEscalate,  ///< estimate + re-solve on a higher-accuracy engine on breach
};

/// Human-readable policy name ("off", "estimate", "estimate+escalate").
const char* policy_name(Policy policy) noexcept;

/// Estimator knobs, carried inside EvdOptions by the drivers.
struct Options {
  /// Probe vectors per estimate. Four keeps the sampling error of the
  /// Frobenius estimate well under the safety margin baked into the
  /// thresholds; the cost is probes * 5 matvecs.
  int probes = 4;
  /// Multiplies both thresholds (tighten < 1, loosen > 1).
  double tol_scale = 1.0;
};

/// Acceptance thresholds for the two estimates.
struct Thresholds {
  double residual = 0.0;       ///< on est. ‖A − QΛQᵀ‖_F / ‖A‖_F
  double orthogonality = 0.0;  ///< on est. ‖QᵀQ − I‖_F
};

/// Per-engine-kind thresholds at problem order n. Fp32 and EcTc gate at
/// fp32-scaled tolerances (EcTc's corrected product is fp32-accurate by
/// construction, with extra slack for the split's rounding); Tc gates at
/// fp16/TF32-scaled tolerances. All grow with the accumulation length so a
/// clean large solve is never flagged.
Thresholds thresholds_for(tc::EngineKind kind, index_t n, double tol_scale = 1.0) noexcept;

/// One verification verdict. The estimator fills the estimate/threshold
/// fields; the driving solver (evd::solve) fills the attempt accounting.
struct Report {
  bool checked = false;  ///< an estimate was actually computed
  bool passed = true;    ///< every computed estimate is within its threshold
  /// The "verify.residual" fault site fired and forced this breach (the
  /// estimates were not computed; residual is +inf).
  bool fault_forced = false;
  /// Eigensystem: est. ‖A − QΛQᵀ‖_F / ‖A‖_F. Eigenvalue-only: the larger of
  /// the trace and Frobenius invariant errors (both relative to ‖A‖_F).
  double residual = 0.0;
  double orthogonality = 0.0;  ///< est. ‖QᵀQ − I‖_F; 0 for eigenvalue-only
  double residual_tol = 0.0;
  double orthogonality_tol = 0.0;
  int attempts = 0;     ///< solve attempts consumed (1 = no re-solve)
  int escalations = 0;  ///< engine escalations taken
  std::string engine;   ///< engine that produced the accepted result
};

/// Stochastic residual + orthogonality estimate for a full eigensystem
/// (lambda ascending, q's columns the matching eigenvectors). O(probes·n²),
/// double-accumulated. `kind` selects the thresholds.
Report estimate(ConstMatrixView<float> a, const std::vector<float>& lambda,
                ConstMatrixView<float> q, tc::EngineKind kind, const Options& opt);

/// Invariant gate for eigenvalue-only solves: relative trace error
/// |Σλ − tr A| / ‖A‖_F and Frobenius error |sqrt(Σλ²) − ‖A‖_F| / ‖A‖_F,
/// reported as Report::residual (the larger of the two). O(n²).
Report estimate_values(ConstMatrixView<float> a, const std::vector<float>& lambda,
                       tc::EngineKind kind, const Options& opt);

}  // namespace tcevd::verify
