#include "src/common/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/fault.hpp"
#include "src/common/norms.hpp"
#include "src/common/rng.hpp"

namespace tcevd::verify {

namespace {

// Unit roundoffs of the accumulation formats the engines feed the pipeline.
constexpr double kEps32 = 1.1920929e-7;    // fp32
constexpr double kEps16 = 4.8828125e-4;    // fp16 (and TF32's 10-bit mantissa)

// Probe RNG seed: fixed, so verification is deterministic.
constexpr std::uint64_t kProbeSeed = 0x76657269667921ull;

/// Shared skeleton: thresholds + the forced-breach fault hook.
Report init_report(tc::EngineKind kind, index_t n, double tol_scale) {
  Report rep;
  rep.checked = true;
  const Thresholds th = thresholds_for(kind, n, tol_scale);
  rep.residual_tol = th.residual;
  rep.orthogonality_tol = th.orthogonality;
  if (fault::should_fire(fault::Site::VerifyResidual)) {
    rep.fault_forced = true;
    rep.residual = std::numeric_limits<double>::infinity();
    rep.passed = false;
  }
  return rep;
}

}  // namespace

const char* policy_name(Policy policy) noexcept {
  switch (policy) {
    case Policy::Off: return "off";
    case Policy::Estimate: return "estimate";
    case Policy::EstimateEscalate: return "estimate+escalate";
  }
  return "?";
}

Thresholds thresholds_for(tc::EngineKind kind, index_t n, double tol_scale) noexcept {
  const double nn = static_cast<double>(std::max<index_t>(n, 1));
  Thresholds th;
  switch (kind) {
    case tc::EngineKind::Tc:
      // fp16/TF32 operands: errors grow like sqrt(n)·eps16 through the
      // blocked accumulations; 64x headroom over that floor.
      th.residual = 64.0 * std::sqrt(nn) * kEps16;
      th.orthogonality = 64.0 * std::sqrt(nn) * kEps16;
      break;
    case tc::EngineKind::EcTc:
      // Error-corrected products are fp32-accurate; 2x extra slack over the
      // fp32 gate for the split/merge rounding.
      th.residual = 512.0 * nn * kEps32;
      th.orthogonality = 256.0 * nn * kEps32;
      break;
    case tc::EngineKind::Fp32:
      th.residual = 256.0 * nn * kEps32;
      th.orthogonality = 128.0 * nn * kEps32;
      break;
  }
  th.residual *= tol_scale;
  th.orthogonality *= tol_scale;
  return th;
}

Report estimate(ConstMatrixView<float> a, const std::vector<float>& lambda,
                ConstMatrixView<float> q, tc::EngineKind kind, const Options& opt) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n && q.rows() == n && q.cols() == n &&
                  static_cast<index_t>(lambda.size()) == n,
              "verify::estimate shape mismatch");
  Report rep = init_report(kind, n, opt.tol_scale);
  if (rep.fault_forced || n == 0) return rep;

  const double anorm = std::max(frobenius_norm<float>(a), 1e-300);
  Rng rng(kProbeSeed);
  const int probes = std::max(1, opt.probes);

  const std::size_t nz = static_cast<std::size_t>(n);
  std::vector<double> w(nz), z(nz), u(nz), v(nz), g(nz), h(nz);
  double rsum = 0.0;
  double osum = 0.0;
  for (int p = 0; p < probes; ++p) {
    for (index_t i = 0; i < n; ++i) w[static_cast<std::size_t>(i)] = rng.normal();

    // z = A w  (column-major sweep, double accumulation over float data).
    std::fill(z.begin(), z.end(), 0.0);
    for (index_t j = 0; j < n; ++j) {
      const double wj = w[static_cast<std::size_t>(j)];
      for (index_t i = 0; i < n; ++i)
        z[static_cast<std::size_t>(i)] += static_cast<double>(a(i, j)) * wj;
    }
    // u = Qᵀ w  and  g = Q w in the same column sweep.
    std::fill(g.begin(), g.end(), 0.0);
    for (index_t k = 0; k < n; ++k) {
      double dot = 0.0;
      const double wk = w[static_cast<std::size_t>(k)];
      for (index_t i = 0; i < n; ++i) {
        const double qik = static_cast<double>(q(i, k));
        dot += qik * w[static_cast<std::size_t>(i)];
        g[static_cast<std::size_t>(i)] += qik * wk;
      }
      u[static_cast<std::size_t>(k)] = dot;
    }
    // v = Q (λ ∘ u)  and  h = Qᵀ g, again one sweep over Q.
    std::fill(v.begin(), v.end(), 0.0);
    for (index_t k = 0; k < n; ++k) {
      const double lu = static_cast<double>(lambda[static_cast<std::size_t>(k)]) *
                        u[static_cast<std::size_t>(k)];
      double dot = 0.0;
      for (index_t i = 0; i < n; ++i) {
        const double qik = static_cast<double>(q(i, k));
        v[static_cast<std::size_t>(i)] += qik * lu;
        dot += qik * g[static_cast<std::size_t>(i)];
      }
      h[static_cast<std::size_t>(k)] = dot;
    }

    double rn = 0.0;
    double on = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double dr = z[static_cast<std::size_t>(i)] - v[static_cast<std::size_t>(i)];
      const double dq = h[static_cast<std::size_t>(i)] - w[static_cast<std::size_t>(i)];
      rn += dr * dr;
      on += dq * dq;
    }
    rsum += rn;
    osum += on;
  }

  rep.residual = std::sqrt(rsum / probes) / anorm;
  rep.orthogonality = std::sqrt(osum / probes);
  rep.passed =
      rep.residual <= rep.residual_tol && rep.orthogonality <= rep.orthogonality_tol;
  return rep;
}

Report estimate_values(ConstMatrixView<float> a, const std::vector<float>& lambda,
                       tc::EngineKind kind, const Options& opt) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n && static_cast<index_t>(lambda.size()) == n,
              "verify::estimate_values shape mismatch");
  Report rep = init_report(kind, n, opt.tol_scale);
  if (rep.fault_forced || n == 0) return rep;

  double trace = 0.0;
  for (index_t i = 0; i < n; ++i) trace += static_cast<double>(a(i, i));
  // The clamp only keeps A = 0 from dividing by zero; its exact zero
  // spectrum must then read as no error, so the difference takes ||A||_F.
  const double fro = frobenius_norm<float>(a);
  const double anorm = std::max(fro, 1e-300);

  double lsum = 0.0;
  double lsq = 0.0;
  for (float l : lambda) {
    lsum += static_cast<double>(l);
    lsq += static_cast<double>(l) * static_cast<double>(l);
  }

  const double trace_err = std::abs(lsum - trace) / anorm;
  const double frob_err = std::abs(std::sqrt(lsq) - fro) / anorm;
  rep.residual = std::max(trace_err, frob_err);
  rep.passed = rep.residual <= rep.residual_tol;
  return rep;
}

}  // namespace tcevd::verify
