#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "src/blas/blas.hpp"
#include "src/common/verify.hpp"
#include "src/evd/evd.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace tcevd;

void Fingerprint::add(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Fingerprint::add(ConstMatrixView<float> m) noexcept {
  for (index_t j = 0; j < m.cols(); ++j)
    add(m.data() + j * m.ld(), static_cast<std::size_t>(m.rows()) * sizeof(float));
}

std::uint64_t output_hash(const std::vector<float>& values, ConstMatrixView<float> vectors) {
  Fingerprint fp;
  fp.add(values);
  fp.add(vectors);
  return fp.value();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

OracleCheck check_output(ConstMatrixView<float> a, double anorm, const std::vector<float>& values,
                         const double* ref, ConstMatrixView<float> vectors,
                         tc::EngineKind kind) {
  OracleCheck c;
  // Weyl / Hoffman-Wielandt: ||lambda - ref||_2 is bounded by the backward
  // error ||E||_F, which is what the residual threshold gates.
  double sq = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double d = static_cast<double>(values[i]) - ref[i];
    sq += d * d;
  }
  c.value_error = std::sqrt(sq) / anorm;
  if (vectors.cols() > 0) {
    c.residual = evd::eigenpair_residual(a, values, vectors);
    const index_t k = vectors.cols();
    Matrix<double> vd(vectors.rows(), k), g(k, k);
    convert_matrix<float, double>(vectors, vd.view());
    blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, ConstMatrixView<double>(vd.view()),
               ConstMatrixView<double>(vd.view()), 0.0, g.view());
    double off = 0.0;
    for (index_t j = 0; j < k; ++j)
      for (index_t i = 0; i < k; ++i) {
        const double d = g(i, j) - (i == j ? 1.0 : 0.0);
        off += d * d;
      }
    c.orthogonality = std::sqrt(off);
  }
  const verify::Thresholds th = verify::thresholds_for(kind, a.rows());
  c.passed = std::isfinite(c.value_error) && c.value_error <= th.residual &&
             std::isfinite(c.residual) && c.residual <= th.residual &&
             std::isfinite(c.orthogonality) && c.orthogonality <= th.orthogonality;
  return c;
}

void record_check(RunResult& out, const OracleCheck& check, tc::EngineKind kind, index_t n) {
  out.max_value_error = std::max(out.max_value_error, check.value_error);
  out.max_residual = std::max(out.max_residual, check.residual);
  out.max_orthogonality = std::max(out.max_orthogonality, check.orthogonality);
  const verify::Thresholds th = verify::thresholds_for(kind, n);
  out.max_bound_share = std::max({out.max_bound_share, check.value_error / th.residual,
                                  check.residual / th.residual,
                                  check.orthogonality / th.orthogonality});
}

void note_trace_file(RunResult& out, const Tracer& tracer, const std::string& path) {
  if (!path.empty() && !tracer.write_chrome_trace(path)) out.notes += "could not write " + path + "; ";
  if (const std::size_t dropped = tracer.spans_dropped())
    out.notes += std::to_string(dropped) + " spans counted but left out of the trace file; ";
}

void append_gemm_metrics(std::vector<Metric>& metrics, const Tracer& tracer, double per) {
  auto append = [&](const std::string& base, const GemmTotals& t, bool totals) {
    metrics.push_back({base + ".calls", static_cast<double>(t.calls) * per, "count"});
    metrics.push_back({base + ".busy_s", t.busy_s * per, "s"});
    if (totals) {
      metrics.push_back({base + ".flops", t.flops * per, "flop"});
      metrics.push_back({base + ".bytes_computed", t.bytes * per, "B"});
    }
    metrics.push_back({base + ".gflops", t.busy_s > 0 ? 1e-9 * t.flops / t.busy_s : 0.0,
                       "GFLOP/s"});
  };
  append("gemm", tracer.gemm_total(), true);
  const auto buckets = tracer.gemm_buckets();
  for (std::size_t b = 0; b < buckets.size(); ++b)
    append(std::string("gemm.") + kGemmBuckets[b], buckets[b], false);
}

}  // namespace perfbench
