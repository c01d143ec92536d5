#include "src/tensorcore/engine.hpp"

#include "src/common/recovery.hpp"

namespace tcevd::tc {

void Fp32Engine::do_gemm(blas::Trans transa, blas::Trans transb, float alpha,
                         ConstMatrixView<float> a, ConstMatrixView<float> b, float beta,
                         MatrixView<float> c) const {
  blas::gemm(transa, transb, alpha, a, b, beta, c);
}

void TcEngine::do_gemm(blas::Trans transa, blas::Trans transb, float alpha,
                       ConstMatrixView<float> a, ConstMatrixView<float> b, float beta,
                       MatrixView<float> c) const {
  tc_gemm(transa, transb, alpha, a, b, beta, c, prec_);
}

void EcTcEngine::do_gemm(blas::Trans transa, blas::Trans transb, float alpha,
                         ConstMatrixView<float> a, ConstMatrixView<float> b, float beta,
                         MatrixView<float> c) const {
  Status st = ec_tcgemm(transa, transb, alpha, a, b, beta, c, prec_);
  if (st.ok()) return;
  // ec_tcgemm reports saturation before touching C, so the identical update
  // (beta accumulation included) can be replayed at full fp32 precision —
  // the per-block CUDA-core fallback a real GPU implementation would take.
  fp32_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  recovery::note("ec_tcgemm", st.to_string() + "; re-ran block with fp32 GEMM");
  blas::gemm(transa, transb, alpha, a, b, beta, c);
}

}  // namespace tcevd::tc
