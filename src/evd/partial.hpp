// Partial (selected) eigensolve: eigenvalues with indices [il, iu] and,
// optionally, their eigenvectors — the "portion of the eigenvalues and
// eigenvectors requested" workload the paper discusses around the SICE
// algorithm and the bisection method of its related work.
//
// Pipeline: the SolveJob reduction and bulge stages of evd::solve, then Sturm
// bisection for the selected eigenvalues -> inverse iteration (stein) for
// the tridiagonal eigenvectors -> back-transformation through the
// accumulated Q (see src/evd/solve_job.hpp).
#pragma once

#include "src/common/matrix.hpp"
#include "src/evd/evd.hpp"

namespace tcevd::evd {

/// Compute eigenvalues il..iu (0-based, inclusive, ascending order) of
/// symmetric `a`, optionally with eigenvectors (n x (iu - il + 1)). Uses
/// opt.reduction / bandwidth / big_block / panel and the input screen, ABFT
/// and recovery options exactly as evd::solve does; opt.solver and
/// opt.vectors are ignored (bisection + stein by construction; `vectors`
/// decides). The result is not verified: a verify policy other than Off is
/// noted at recovery site "evd.verify". If inverse iteration fails on a
/// vector (or the stein.stagnate fault fires) and opt.allow_fallbacks is
/// set, the selected vectors are recomputed with the full QL solver instead
/// (noted at "evd.partial"); only when that also fails does the error
/// propagate. An out-of-bounds index range returns InvalidArgument (it is
/// request data, not a programmer contract — batch and streaming drivers
/// surface it per problem instead of aborting).
StatusOr<EvdResult> solve_selected(ConstMatrixView<float> a, Context& ctx,
                                   const EvdOptions& opt, index_t il, index_t iu,
                                   bool vectors = false);

}  // namespace tcevd::evd
