// tcevd_tool — command-line driver for the full library: generate a test
// matrix, run the selected pipeline, print eigenvalues/timings/accuracy.
//
// Usage:
//   tcevd_tool [--n N] [--type normal|uniform|cluster0|cluster1|arith|geo]
//              [--cond C] [--engine fp32|tc|tf32|ectc]
//              [--reduction wy|dbr|zy|one]
//              [--solver dc|ql|bisect] [--b B] [--nb NB] [--vectors]
//              [--check] [--seed S]
//
// Examples:
//   tcevd_tool --n 300 --type geo --cond 1e3 --engine tc --check
//   tcevd_tool --n 200 --engine ectc --reduction zy --solver ql --vectors
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/matgen/matgen.hpp"

using namespace tcevd;

namespace {

[[noreturn]] void usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: tcevd_tool [--n N] [--type T] [--cond C] [--engine E]\n"
               "                  [--reduction R] [--solver S] [--b B] [--nb NB]\n"
               "                  [--vectors] [--check] [--seed S]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  index_t n = 256;
  matgen::MatrixType type = matgen::MatrixType::Normal;
  double cond = 1e3;
  std::string engine_name = "tc";
  evd::EvdOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 64;
  bool check = false;
  std::uint64_t seed = 1234;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      n = std::atoll(next());
    } else if (arg == "--type") {
      const std::string t = next();
      if (t == "normal") type = matgen::MatrixType::Normal;
      else if (t == "uniform") type = matgen::MatrixType::Uniform;
      else if (t == "cluster0") type = matgen::MatrixType::Cluster0;
      else if (t == "cluster1") type = matgen::MatrixType::Cluster1;
      else if (t == "arith") type = matgen::MatrixType::Arith;
      else if (t == "geo") type = matgen::MatrixType::Geo;
      else usage("unknown --type");
    } else if (arg == "--cond") {
      cond = std::atof(next());
    } else if (arg == "--engine") {
      engine_name = next();
    } else if (arg == "--reduction") {
      const std::string r = next();
      if (r == "wy") opt.reduction = evd::Reduction::TwoStageWy;
      else if (r == "dbr") opt.reduction = evd::Reduction::TwoStageDbr;
      else if (r == "zy") opt.reduction = evd::Reduction::TwoStageZy;
      else if (r == "one") opt.reduction = evd::Reduction::OneStage;
      else usage("unknown --reduction");
    } else if (arg == "--solver") {
      const std::string s = next();
      if (s == "dc") opt.solver = evd::TriSolver::DivideConquer;
      else if (s == "ql") opt.solver = evd::TriSolver::Ql;
      else if (s == "bisect") opt.solver = evd::TriSolver::Bisection;
      else usage("unknown --solver");
    } else if (arg == "--b") {
      opt.bandwidth = std::atoll(next());
    } else if (arg == "--nb") {
      opt.big_block = std::atoll(next());
    } else if (arg == "--vectors") {
      opt.vectors = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (n < 2) usage("--n must be >= 2");

  Rng rng(seed);
  Matrix<double> ad = matgen::generate(type, n, cond, rng);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());

  tc::Fp32Engine e_fp;
  tc::TcEngine e_tc(tc::TcPrecision::Fp16);
  tc::TcEngine e_tf(tc::TcPrecision::Tf32);
  tc::EcTcEngine e_ec(tc::TcPrecision::Fp16);
  tc::GemmEngine* engine = nullptr;
  if (engine_name == "fp32") engine = &e_fp;
  else if (engine_name == "tc") engine = &e_tc;
  else if (engine_name == "tf32") engine = &e_tf;
  else if (engine_name == "ectc") engine = &e_ec;
  else usage("unknown --engine");

  std::printf("matrix: %s, n = %lld | engine %s | b = %lld nb = %lld\n",
              matgen::matrix_type_name(type, cond).c_str(), (long long)n,
              engine->name().c_str(), (long long)opt.bandwidth, (long long)opt.big_block);

  Context ctx(*engine);
  auto res_or = evd::solve(a.view(), ctx, opt);
  if (!res_or.ok()) {
    std::fprintf(stderr, "eigensolver failed: %s\n", res_or.status().to_string().c_str());
    return 1;
  }
  evd::EvdResult& res = *res_or;
  for (const auto& ev : res.recovery)
    std::printf("recovery: [%s] %s\n", ev.site.c_str(), ev.action.c_str());

  std::printf("timings: reduce %.1f ms | bulge %.1f ms | solver %.1f ms | total %.1f ms\n",
              res.timings.reduction_s * 1e3, res.timings.bulge_s * 1e3,
              res.timings.solver_s * 1e3, res.timings.total_s * 1e3);
  std::printf("eigenvalues: min %.6g | max %.6g\n", res.eigenvalues.front(),
              res.eigenvalues.back());

  if (check) {
    auto ref = *evd::reference_eigenvalues(ad.view());
    std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
    std::printf("E_s vs fp64 reference: %.2e\n", eigenvalue_error(ref.data(), got.data(), n));
    if (opt.vectors) {
      std::printf("eigenpair residual: %.2e\n",
                  evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()));
      std::printf("E_o (orthogonality): %.2e\n",
                  orthogonality_error<float>(res.vectors.view()));
    }
  }
  return 0;
}
