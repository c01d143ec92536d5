// One EVD solve, start to finish, on the calling thread.
//
// run_solve is the pipeline evd::solve, evd::solve_selected and every
// EvdService request share. Its stages run in order: the input screen and the
// reduction (SBR / sytrd), the bulge chase, the tridiagonal solver, and
// verification. A verified solve that breaches its estimate under
// EstimateEscalate runs the stages again on the next engine of the chain
// Tc -> EcTc -> Fp32. A solve with a selected index range runs bisection and
// inverse iteration for that range only in its solver stage and ends there
// (no verification).
//
// Everything a solve holds — its workspace scope, SBR result, d/e, Q, engine
// override, recovery and ABFT scopes — is a local of the call, so nothing
// outlives it, and the service's results are bitwise-identical to the
// synchronous calls by construction.
#pragma once

#include <functional>
#include <optional>

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"
#include "src/evd/evd.hpp"

namespace tcevd::evd {

/// Selected eigenvalue indices [il, iu]: 0-based, inclusive, ascending order.
struct IndexRange {
  index_t il = 0;
  index_t iu = 0;
};

/// The request checks evd::solve, evd::solve_selected and EvdService::submit
/// make before any work: InvalidArgument (message prefixed with `who`) when
/// `a` is not square, opt.bandwidth < 1, or `range` is not within [0, n).
/// These are caller data, not programmer contracts, so a bad request is
/// refused with a Status instead of aborting the process.
Status validate_request(ConstMatrixView<float> a, const EvdOptions& opt,
                        std::optional<IndexRange> range, const char* who);

/// The stages of one pass down the pipeline, in order. The input screen is
/// part of Reduction; a one-stage reduction has no Bulge; a selected range
/// and an unverified solve have no Verify. An escalated solve starts again
/// at Reduction.
enum class Stage { Reduction, Bulge, Solver, Verify };

/// Runs on the solving thread before each stage. A non-OK Status ends the
/// solve with that Status; it must not be recoverable (is_recoverable), or a
/// verified solve would escalate on it.
using StageGate = std::function<Status(Stage)>;

/// Solves `a` on `ctx`, which nothing else may use during the call. With
/// `range` set, the solver stage computes eigenvalues range->il..range->iu by
/// Sturm bisection and, when opt.vectors, their eigenvectors by inverse
/// iteration back-transformed through Q. The solve's recovery log lands on
/// ctx.telemetry() once; on success it is EvdResult::recovery, and on failure
/// it goes to the caller's recovery::Scope (as it does, unrecorded, when the
/// solve throws). The request must pass
/// validate_request (checked: an invalid one aborts; callers validate first).
StatusOr<EvdResult> run_solve(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt,
                              std::optional<IndexRange> range = std::nullopt,
                              const StageGate& gate = {});

}  // namespace tcevd::evd
