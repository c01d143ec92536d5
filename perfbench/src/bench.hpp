// Shared pieces of the benchmark: run configuration, the result every
// workload returns, output fingerprints, order statistics and the
// correctness oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/tensorcore/engine.hpp"

namespace perfbench {

class Tracer;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Smoke-test size: every workload shrinks to a few-second run.
  bool tiny = false;
  /// stream-mixed only: submit one NaN matrix, which must count as failed.
  bool inject_nan = false;
  /// Dense workloads only: matrix order in place of the workload's own
  /// (0 keeps it), e.g. n = 2048 for the ROADMAP's reduce/bulge/solver row.
  tcevd::index_t n = 0;
  /// Where a traced run writes its spans (Chrome trace-event JSON); empty
  /// keeps them in memory only.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// Fingerprint of the output bits (see the workload for what it covers).
  std::uint64_t output_hash = 0;
  long hashed_outputs = 0;
  /// Largest oracle errors seen, and the largest share of its bound any
  /// error used (1.0 = at the bound).
  double max_value_error = 0.0;
  double max_residual = 0.0;
  double max_orthogonality = 0.0;
  double max_bound_share = 0.0;
  /// Outputs that passed the oracle but differed bitwise from an earlier
  /// output of the same problem (the pipeline is meant to be deterministic).
  long hash_mismatches = 0;
  long samples = 0;
  std::string notes;
};

/// FNV-1a over raw bytes.
class Fingerprint {
 public:
  void add(const void* data, std::size_t bytes) noexcept;
  void add(const std::vector<float>& v) noexcept { add(v.data(), v.size() * sizeof(float)); }
  /// Column by column, so padding in the leading dimension never counts.
  void add(tcevd::ConstMatrixView<float> m) noexcept;
  void add_u64(std::uint64_t v) noexcept { add(&v, sizeof v); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hash of one eigen-solve output: eigenvalue bits, then vector bits.
std::uint64_t output_hash(const std::vector<float>& values, tcevd::ConstMatrixView<float> vectors);

double median(std::vector<double> v);
/// Nearest-rank quantile: the ceil(q * N)-th smallest sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Independent check of one eigen-solve output against a double-precision
/// oracle, with the per-engine bounds of verify::thresholds_for.
struct OracleCheck {
  double value_error = 0.0;    ///< ||lambda - ref||_2 / ||A||_F
  double residual = 0.0;       ///< evd::eigenpair_residual (vectors only)
  double orthogonality = 0.0;  ///< ||V^T V - I||_F in double (vectors only)
  bool passed = false;
};

/// `ref` holds the reference eigenvalues matching `values` (ascending, same
/// count); `vectors` is empty for eigenvalue-only solves. `anorm` is ||A||_F.
OracleCheck check_output(tcevd::ConstMatrixView<float> a, double anorm,
                         const std::vector<float>& values, const double* ref,
                         tcevd::ConstMatrixView<float> vectors, tcevd::tc::EngineKind kind);

/// Fold a check into the run's error maxima.
void record_check(RunResult& out, const OracleCheck& check, tcevd::tc::EngineKind kind,
                  tcevd::index_t n);

/// Write the traced spans to `path` (when set), noting in `out` a failed
/// write and any spans left out of the file.
void note_trace_file(RunResult& out, const Tracer& tracer, const std::string& path);

/// GEMM totals and Table-1 shape buckets of a traced window; `per` scales
/// counts and times to one operation (1 / operations traced).
void append_gemm_metrics(std::vector<Metric>& metrics, const Tracer& tracer, double per);

RunResult run_dense(const RunConfig& cfg);
RunResult run_stream(const RunConfig& cfg);

}  // namespace perfbench
