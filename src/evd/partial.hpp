// Partial (selected) eigensolve: eigenvalues with indices [il, iu] and,
// optionally, their eigenvectors — the "portion of the eigenvalues and
// eigenvectors requested" workload the paper discusses around the SICE
// algorithm and the bisection method of its related work.
//
// Pipeline: the reduction and bulge stages of evd::solve, then Sturm
// bisection for the selected eigenvalues -> inverse iteration (stein) for
// the tridiagonal eigenvectors -> back-transformation through the
// accumulated Q, all in one evd::run_solve call (src/evd/pipeline.hpp).
#pragma once

#include "src/common/matrix.hpp"
#include "src/evd/evd.hpp"

namespace tcevd::evd {

/// Compute eigenvalues il..iu (0-based, inclusive, ascending order) of
/// symmetric `a` and, with opt.vectors, their eigenvectors (n x (iu - il + 1)).
/// Uses opt.reduction / bandwidth / big_block / panel, the input screen and
/// ABFT exactly as evd::solve does; opt.solver is ignored (bisection + stein
/// by construction). The result is not verified: a verify policy other than
/// Off is noted at recovery site "evd.verify". If inverse iteration fails on
/// a vector (or the stein.stagnate fault fires), the selected vectors are
/// recomputed with the full QL solver instead (noted at "evd.partial"); only
/// when that also fails does the error propagate. A non-square matrix, a
/// bandwidth below 1 or an out-of-bounds index range returns InvalidArgument
/// (request data, not a programmer contract — EvdService refuses such a
/// request at submit).
StatusOr<EvdResult> solve_selected(ConstMatrixView<float> a, Context& ctx,
                                   const EvdOptions& opt, index_t il, index_t iu);

}  // namespace tcevd::evd
