// Cross-module integration: the full pipeline exercised end to end in
// configurations the unit tests don't combine — every engine x reduction x
// solver on spectrum-controlled matrices, the refine-after-TC workflow (the
// library's intended mixed-precision recipe), and engine substitution by a
// forwarding wrapper.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/refine.hpp"
#include "src/evd/service.hpp"
#include "src/matgen/matgen.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

struct FullCase {
  const char* engine;  // "fp32" | "tc" | "ectc"
  evd::Reduction red;
  evd::TriSolver solver;
};

class FullPipelineTest : public ::testing::TestWithParam<FullCase> {};

TEST_P(FullPipelineTest, GeoMatrixWithVectors) {
  const auto p = GetParam();
  const index_t n = 96;
  Rng rng(10);
  auto ad = matgen::generate(matgen::MatrixType::Geo, n, 1e3, rng);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());

  tc::Fp32Engine fp;
  tc::TcEngine tchalf(tc::TcPrecision::Fp16);
  tc::EcTcEngine ec(tc::TcPrecision::Fp16);
  tc::GemmEngine* eng = &fp;
  double tol = 1e-5;
  if (std::string(p.engine) == "tc") {
    eng = &tchalf;
    tol = 1e-2;
  } else if (std::string(p.engine) == "ectc") {
    eng = &ec;
    tol = 1e-4;
  }

  evd::EvdOptions opt;
  opt.reduction = p.red;
  opt.solver = p.solver;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  Context ctx(*eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), tol);
  EXPECT_LT(orthogonality_error<float>(res.vectors.view()), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FullPipelineTest,
    ::testing::Values(FullCase{"fp32", evd::Reduction::TwoStageWy, evd::TriSolver::Ql},
                      FullCase{"fp32", evd::Reduction::TwoStageZy, evd::TriSolver::DivideConquer},
                      FullCase{"tc", evd::Reduction::TwoStageWy, evd::TriSolver::DivideConquer},
                      FullCase{"tc", evd::Reduction::TwoStageZy, evd::TriSolver::Ql},
                      FullCase{"ectc", evd::Reduction::TwoStageWy, evd::TriSolver::DivideConquer},
                      FullCase{"fp32", evd::Reduction::OneStage, evd::TriSolver::Ql}));

TEST(Workflow, TcSolveThenRefineSelected) {
  // The intended mixed-precision recipe: fast low-precision full solve on
  // the (emulated) Tensor Core, then refine the few pairs that matter.
  const index_t n = 128;
  Rng rng(20);
  auto a = matgen::generate_f(matgen::MatrixType::Arith, n, 1e3, rng);

  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 64;
  opt.vectors = true;
  auto coarse = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(coarse.converged);

  const index_t k = 4;  // refine the k largest pairs
  std::vector<float> lam(coarse.eigenvalues.end() - k, coarse.eigenvalues.end());
  auto vk = coarse.vectors.sub(0, n - k, n, k);
  auto refined = evd::refine_eigenpairs(ctx, a.view(), lam, ConstMatrixView<float>(vk));

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  const double anorm = frobenius_norm<double>(ad.view());
  for (double r : refined.residuals) EXPECT_LT(r, 1e-10 * anorm);
}

TEST(Workflow, PartialMatchesFullOnTc) {
  const index_t n = 96;
  Rng rng(21);
  auto a = matgen::generate_f(matgen::MatrixType::Geo, n, 1e2, rng);
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  auto full = *evd::solve(a.view(), ctx, opt);
  auto part = *evd::solve_selected(a.view(), ctx, opt, 0, 9);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_NEAR(part.eigenvalues[static_cast<std::size_t>(i)],
                full.eigenvalues[static_cast<std::size_t>(i)], 2e-3);
}

TEST(Workflow, LowRankReconstructionAccuracyChain) {
  // Build rank-6 + noise, take top-6 eigenpairs via the TC pipeline, refine,
  // and check the refined reconstruction beats the unrefined one.
  const index_t n = 96, r = 6;
  Rng rng(23);
  Matrix<float> b(n, r);
  fill_normal(rng, b.view());
  Matrix<float> a(n, n);
  blas::syrk(blas::Uplo::Lower, blas::Trans::No, 1.0f, b.view(), 0.0f, a.view());
  symmetrize_from_lower(a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += 0.01f;  // noise floor

  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);

  std::vector<float> lam(res.eigenvalues.end() - r, res.eigenvalues.end());
  auto vr = res.vectors.sub(0, n - r, n, r);
  auto refined = evd::refine_eigenpairs(ctx, a.view(), lam, ConstMatrixView<float>(vr));

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto recon_err = [&](auto&& lamv, ConstMatrixView<double> v) {
    Matrix<double> vl(n, r);
    for (index_t j = 0; j < r; ++j)
      for (index_t i = 0; i < n; ++i)
        vl(i, j) = v(i, j) * static_cast<double>(lamv[static_cast<std::size_t>(j)]);
    Matrix<double> rec(n, n);
    blas::gemm(blas::Trans::No, blas::Trans::Yes, 1.0, ConstMatrixView<double>(vl.view()), v,
               0.0, rec.view());
    return frobenius_diff<double>(rec.view(), ad.view());
  };
  Matrix<double> v0(n, r);
  convert_matrix<float, double>(ConstMatrixView<float>(vr), v0.view());
  const double before = recon_err(lam, v0.view());
  const double after = recon_err(refined.eigenvalues, refined.vectors.view());
  EXPECT_LE(after, before);
}

// ---------------------------------------------------------------------------
// Engine substitution: a GemmEngine that forwards every call to a
// TcEngine(Fp16) but is not itself a TcEngine. A harness that times or
// records GEMMs installs exactly this shape, so the layers must pick their
// kernels through Context::gemm alone and never by the engine's type:
// swapping the wrapper in for the engine it wraps must not change a bit.
// ---------------------------------------------------------------------------

class ForwardingEngine final : public tc::GemmEngine {
 public:
  explicit ForwardingEngine(const tc::GemmEngine& inner) : inner_(inner) {}
  const std::string& name() const noexcept override { return inner_.name(); }
  tc::EngineKind kind() const noexcept override { return inner_.kind(); }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override {
    inner_.gemm(transa, transb, alpha, a, b, beta, c);
  }

 private:
  const tc::GemmEngine& inner_;
};

void expect_same_bits(ConstMatrixView<float> got, ConstMatrixView<float> want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t j = 0; j < want.cols(); ++j) {
    for (index_t i = 0; i < want.rows(); ++i) {
      ASSERT_EQ(std::memcmp(&got(i, j), &want(i, j), sizeof(float)), 0)
          << what << " (" << i << ", " << j << ")";
    }
  }
}

void expect_same_bits(const std::vector<float>& got, const std::vector<float>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!want.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0) << what;
  }
}

TEST(ForwardingEngine, SbrBandsMatchTheWrappedEngineBitwise) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 41);
  tc::TcEngine tc_engine(tc::TcPrecision::Fp16);
  ForwardingEngine forward(tc_engine);
  const char* names[] = {"sbr_wy", "sbr_zy", "sbr_dbr"};
  for (const index_t b : {8, 32}) {  // b < nb and b == nb
    sbr::SbrOptions opt;
    opt.bandwidth = b;
    opt.big_block = 32;
    opt.accumulate_q = true;
    for (int v = 0; v < 3; ++v) {
      auto reduce = [&](tc::GemmEngine& engine) {
        Context ctx(engine);
        return v == 0   ? sbr::sbr_wy(a.view(), ctx, opt)
               : v == 1 ? sbr::sbr_zy(a.view(), ctx, opt)
                        : sbr::sbr_dbr(a.view(), ctx, opt);
      };
      auto want = reduce(tc_engine);
      auto got = reduce(forward);
      const std::string what = std::string(names[v]) + " b=" + std::to_string(b);
      ASSERT_TRUE(want.ok() && got.ok()) << what;
      expect_same_bits(got->band.view(), want->band.view(), what + " band");
      expect_same_bits(got->q.view(), want->q.view(), what + " Q");
    }
  }
}

TEST(ForwardingEngine, SolvesMatchTheWrappedEngineBitwise) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 42);
  tc::TcEngine tc_engine(tc::TcPrecision::Fp16);
  ForwardingEngine forward(tc_engine);
  const std::pair<evd::Reduction, const char*> reductions[] = {
      {evd::Reduction::TwoStageWy, "wy"},
      {evd::Reduction::TwoStageDbr, "dbr"},
      {evd::Reduction::TwoStageZy, "zy"},
      {evd::Reduction::OneStage, "one-stage"}};
  for (const auto& [reduction, name] : reductions)
    for (const bool vectors : {false, true}) {
      evd::EvdOptions opt;
      opt.reduction = reduction;
      opt.bandwidth = 8;
      opt.big_block = 32;
      opt.vectors = vectors;
      auto solve = [&](tc::GemmEngine& engine) {
        Context ctx(engine);
        return evd::solve(a.view(), ctx, opt);
      };
      auto want = solve(tc_engine);
      auto got = solve(forward);
      const std::string what = std::string(name) + (vectors ? " vectors" : " values");
      ASSERT_TRUE(want.ok() && got.ok()) << what;
      expect_same_bits(got->eigenvalues, want->eigenvalues, what + " eigenvalues");
      expect_same_bits(got->vectors.view(), want->vectors.view(), what + " vectors");
    }
}

TEST(ForwardingEngine, ServiceRequestMatchesTheWrappedEngineBitwise) {
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 43);
  tc::TcEngine tc_engine(tc::TcPrecision::Fp16);
  ForwardingEngine forward(tc_engine);
  evd::RequestOptions ropt;
  ropt.evd.reduction = evd::Reduction::TwoStageDbr;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;

  Context ctx(tc_engine);
  auto want = evd::solve(a.view(), ctx, ropt.evd);
  ASSERT_TRUE(want.ok());

  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  evd::EvdService service(forward, sopt);
  auto id = service.submit(a.view(), ropt);
  ASSERT_TRUE(id.ok());
  const evd::RequestResult got = service.wait(*id);
  ASSERT_TRUE(got.status.ok()) << got.status.to_string();
  expect_same_bits(got.eigenvalues, want->eigenvalues, "service eigenvalues");
  expect_same_bits(got.vectors.view(), want->vectors.view(), "service vectors");
}

}  // namespace
}  // namespace tcevd
