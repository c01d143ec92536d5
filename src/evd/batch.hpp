// Batched EVD driver: many same-shape symmetric problems, one shared GEMM
// engine, a fixed worker pool.
//
// solve_many is a synchronous wrapper over the streaming EvdService
// (src/evd/service.hpp): every problem is submitted up front, the workers
// drain them with at most one problem mid-pipeline per worker, and the
// wrapper waits in index order. The N-threads x N-Contexts x 1-engine shape
// the Context/Workspace split exists for (see src/common/context.hpp) is
// preserved through the service's context pool: each in-flight problem runs
// on a warm Context whose arena is pre-reserved with evd::workspace_query,
// so the steady state of a long batch performs zero arena growth per
// problem, while the engine — stateless per call, its one diagnostic counter
// atomic — is shared by every worker.
//
// Failure isolation: each problem reports its own Status and RecoveryLog in
// BatchResult::problems; a poisoned problem (bad input, injected fault,
// exhausted fallbacks, a malformed request such as a non-square or
// odd-shaped matrix or an out-of-range selected window) fails alone with a
// per-problem Status — never a process abort — and its neighbors complete
// normally. Determinism: per-problem results are computed on exactly the
// single-solve step sequence with a private arena, so solve_many output is
// bitwise identical to a sequential evd::solve loop, at any thread count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/evd/evd.hpp"

namespace tcevd::evd {

struct BatchOptions {
  /// Per-problem configuration, shared by the whole batch (evd.vectors is
  /// the jobz switch; evd.solver, bandwidth, big_block, fallbacks as usual).
  EvdOptions evd;
  /// Worker count; 0 picks min(ThreadPool::hardware_threads(), batch size).
  /// Values larger than the batch are clamped — a worker with no problems
  /// would only cost an idle Context.
  int num_threads = 0;
  /// Partial-spectrum mode: solve each problem for eigenvalue indices
  /// [il, iu] (0-based, inclusive) as evd::solve_selected does, instead of
  /// the full solve. evd.vectors then requests the selected vectors only.
  /// Selected problems are not verified: evd.verify != Off is noted at
  /// recovery site "evd.verify" in each problem's recovery log.
  bool selected = false;
  index_t il = 0;
  index_t iu = 0;
};

/// Outcome of one problem in the batch.
struct ProblemResult {
  Status status;                   ///< Ok => the value fields below are valid
  std::vector<float> eigenvalues;  ///< ascending (iu-il+1 values when selected)
  Matrix<float> vectors;           ///< empty unless evd.vectors
  RecoveryLog recovery;            ///< per-problem degradation events
  /// Per-problem verification verdict (evd.verify != Off, full solves only;
  /// a selected problem notes the skipped verification at "evd.verify").
  verify::Report verify;
  int worker = -1;                 ///< pool worker that solved it (diagnostics)
  double seconds = 0.0;            ///< wall time of this problem's solve
};

struct BatchResult {
  std::vector<ProblemResult> problems;  ///< index-aligned with the input span
  /// Per-worker telemetry merged into one aggregate view
  /// (Telemetry::merge_from): stage seconds/call counts sum across workers,
  /// recovery logs and recorded GEMM shapes concatenate.
  Telemetry telemetry;
  int num_threads = 0;  ///< workers actually used
  double total_s = 0.0; ///< batch wall time (pool spin-up included)
  /// Verification aggregates over the batch (zero when evd.verify is Off):
  /// total engine escalations taken, and problems whose verification never
  /// passed — an Estimate-policy result returned annotated, or an
  /// EstimateEscalate problem that exhausted its chain/budget and failed
  /// with PrecisionLoss.
  long verify_escalations = 0;
  long verify_failures = 0;

  std::size_t num_ok() const noexcept;
  bool all_ok() const noexcept;
};

/// Solve every problem in `problems` (all square, all the same order as
/// problems[0] — violations fail that problem with InvalidArgument, not the
/// batch) with `engine` shared across a pool of worker threads. Never throws
/// out of a worker and never fails as a whole: per-problem errors land in
/// BatchResult::problems[i].status. An empty batch returns an empty result.
BatchResult solve_many(std::span<const ConstMatrixView<float>> problems,
                       tc::GemmEngine& engine, const BatchOptions& opt);

/// Convenience overload for owned matrices.
BatchResult solve_many(const std::vector<Matrix<float>>& problems, tc::GemmEngine& engine,
                       const BatchOptions& opt);

}  // namespace tcevd::evd
