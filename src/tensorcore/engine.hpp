// Pluggable GEMM engine.
//
// The SBR and EVD drivers are written once against this interface and run
// with any of three numerics:
//
//   * Fp32Engine  — plain fp32 SGEMM (the "SGEMM" lines in Figs. 7, 9, 10)
//   * TcEngine    — emulated Tensor Core GEMM, fp16 or TF32 operands
//   * EcTcEngine  — error-corrected Tensor Core GEMM (Fig. 10 blue line)
//
// Engines are stateless apart from diagnostics and are shareable across
// threads/Contexts: do_gemm touches only its arguments, and the only mutable
// member (EcTcEngine's fallback counter) is atomic. Per-call instrumentation
// — GEMM shape recording, stage timers — lives on tcevd::Context's telemetry
// sink (src/common/context.hpp), not here, so two concurrent solves sharing
// one engine never race on recording state.
#pragma once

#include <atomic>
#include <string>

#include "src/blas/blas.hpp"
#include "src/common/matrix.hpp"
#include "src/tensorcore/ec_tcgemm.hpp"
#include "src/tensorcore/tc_gemm.hpp"

namespace tcevd::tc {

/// Numerics family of an engine — recorded with every GEMM shape so flop
/// aggregation can account for engines that issue several Tensor Core
/// products per logical GEMM.
enum class EngineKind {
  Fp32,  ///< one fp32 SGEMM per call
  Tc,    ///< one Tensor Core GEMM per call
  EcTc,  ///< error-corrected: three TC GEMMs per call (head*head + cross terms)
};

/// Hardware products issued per logical GEMM under each engine kind.
constexpr double engine_cost_factor(EngineKind kind) noexcept {
  return kind == EngineKind::EcTc ? 3.0 : 1.0;
}

/// One recorded GEMM: C(m x n) += op(A) * op(B) with inner dimension k.
struct GemmShape {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  /// Engine that executed the call (default Fp32 — cost factor 1 — so shape
  /// traces built from bare {m, n, k} aggregates keep their meaning).
  EngineKind engine = EngineKind::Fp32;

  /// Useful arithmetic of the logical GEMM, independent of engine.
  double logical_flops() const noexcept { return 2.0 * double(m) * double(n) * double(k); }
  /// Flops actually issued to the hardware: EC-TC runs three TC products per
  /// logical GEMM, so its shapes cost 3x (paper Sec. 6.3 accounting).
  double flops() const noexcept { return logical_flops() * engine_cost_factor(engine); }
  /// Smallest dimension — the "skinniness" measure from paper Table 1.
  index_t min_dim() const noexcept { return std::min(m, std::min(n, k)); }
};

class GemmEngine {
 public:
  virtual ~GemmEngine() = default;

  /// Human-readable engine name ("fp32", "tc-fp16", ...).
  virtual const std::string& name() const noexcept = 0;

  /// Numerics family (drives the recorded-shape cost factor).
  virtual EngineKind kind() const noexcept = 0;

  /// C = alpha * op(A) * op(B) + beta * C under this engine's numerics.
  /// Prefer Context::gemm, which also records the shape into the context's
  /// telemetry sink; calling the engine directly performs no recording.
  ///
  /// const — and therefore callable through the `const GemmEngine&` a shared
  /// engine hands concurrent workers: execution touches only its arguments
  /// plus (for EcTcEngine) one atomic diagnostic counter. This signature is
  /// the engine-sharing contract EvdService relies on; an engine whose
  /// do_gemm needs non-atomic mutable state is not shareable and does not
  /// belong under this interface.
  void gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
            ConstMatrixView<float> b, float beta, MatrixView<float> c) const {
    do_gemm(transa, transb, alpha, a, b, beta, c);
  }

 protected:
  virtual void do_gemm(blas::Trans transa, blas::Trans transb, float alpha,
                       ConstMatrixView<float> a, ConstMatrixView<float> b, float beta,
                       MatrixView<float> c) const = 0;
};

/// Plain fp32 GEMM (cuBLAS-SGEMM stand-in).
class Fp32Engine final : public GemmEngine {
 public:
  const std::string& name() const noexcept override { return name_; }
  EngineKind kind() const noexcept override { return EngineKind::Fp32; }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override;

 private:
  std::string name_ = "fp32";
};

/// Emulated Tensor Core GEMM.
class TcEngine final : public GemmEngine {
 public:
  explicit TcEngine(TcPrecision prec = TcPrecision::Fp16)
      : prec_(prec), name_(prec == TcPrecision::Fp16 ? "tc-fp16" : "tc-tf32") {}

  const std::string& name() const noexcept override { return name_; }
  EngineKind kind() const noexcept override { return EngineKind::Tc; }
  TcPrecision precision() const noexcept { return prec_; }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override;

 private:
  TcPrecision prec_;
  std::string name_;
};

/// Error-corrected Tensor Core GEMM. A GEMM whose operands exceed the fp16
/// range (or hit the ec_tcgemm.saturate fault site) is transparently re-run
/// with a full-precision fp32 GEMM; each such event is counted here and
/// noted in the ambient recovery scope.
class EcTcEngine final : public GemmEngine {
 public:
  explicit EcTcEngine(TcPrecision prec = TcPrecision::Fp16)
      : prec_(prec), name_(prec == TcPrecision::Fp16 ? "ectc-fp16" : "ectc-tf32") {}

  const std::string& name() const noexcept override { return name_; }
  EngineKind kind() const noexcept override { return EngineKind::EcTc; }

  /// Number of GEMM calls that fell back to fp32 since construction. Atomic:
  /// the engine may be shared by concurrent Contexts.
  long fp32_fallbacks() const noexcept { return fp32_fallbacks_.load(std::memory_order_relaxed); }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override;

 private:
  TcPrecision prec_;
  std::string name_;
  mutable std::atomic<long> fp32_fallbacks_{0};
};

}  // namespace tcevd::tc
