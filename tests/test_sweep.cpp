// Seeded sweep over the solve's option space.
//
// OptionSweep: case i fixes the reduction to i % 4, the tridiagonal solver to
// (i / 4) % 3 and the engine to (i / 12) % 5, so the 60 cases cover every
// reduction x solver x engine triple once. Rng(i) draws the rest: the order n
// (0-3 or a prime up to 199), a matrix of the paper's accuracy tables, the
// bandwidth b in [1, 16] with nb equal to b, a multiple of b or a
// non-multiple, the panel, vectors, the verify policy, ABFT (1 case in 4) and
// a selected eigenvalue range (1 case in 4, n >= 1).
//
// AdversarialSweep: case i fixes the matrix kind to i % 7 (zero, all-ones,
// rank-1 u u^T, identity, diagonal, tridiagonal, band of half-width 3) and
// the reduction to i / 7, so the 28 cases cover every kind x reduction pair
// once. Rng(1000 + i) draws the engine, the solver, n (a prime in
// [61, 199]), the options as above and the matrix entries. The all-ones and
// rank-1 cases, whose spectra are one big cluster, always ask for vectors.
//
// Every case must solve, and:
//   * each eigenvalue lies within thresholds_for(engine, n).residual * ||A||_F
//     of the double reference, on the engine that produced the result: Weyl's
//     bound for a backward error the verify gate accepts;
//   * with vectors, the eigenpair residual and ||V^T V - I||_F are within
//     that engine's thresholds (for A = 0, whose relative residual is 0/0,
//     every eigenvalue must be exactly 0 instead);
//   * its bits equal a one-runner EvdService request, the same solve inside a
//     SerialGemmScope, and, for DBR with b == nb, the WY solve.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/rng.hpp"
#include "src/common/verify.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/service.hpp"
#include "src/matgen/matgen.hpp"
#include "src/tensorcore/engine.hpp"
#include "tests/test_util.hpp"

namespace tcevd {
namespace {

constexpr int kCases = 60;
constexpr int kAdversarialCases = 28;

const char* const kEngineNames[] = {"fp32", "tc-fp16", "tc-tf32", "ectc-fp16", "ectc-tf32"};
const char* const kReductionNames[] = {"wy", "zy", "dbr", "one-stage"};  // Reduction order

std::unique_ptr<tc::GemmEngine> make_engine(int engine) {
  switch (engine) {
    case 0: return std::make_unique<tc::Fp32Engine>();
    case 1: return std::make_unique<tc::TcEngine>(tc::TcPrecision::Fp16);
    case 2: return std::make_unique<tc::TcEngine>(tc::TcPrecision::Tf32);
    case 3: return std::make_unique<tc::EcTcEngine>(tc::TcPrecision::Fp16);
    default: return std::make_unique<tc::EcTcEngine>(tc::TcPrecision::Tf32);
  }
}

tc::EngineKind kind_of(const std::string& engine_name) {
  if (engine_name.rfind("ectc", 0) == 0) return tc::EngineKind::EcTc;
  if (engine_name.rfind("tc", 0) == 0) return tc::EngineKind::Tc;
  return tc::EngineKind::Fp32;
}

bool is_prime(index_t v) {
  bool prime = v >= 2;
  for (index_t d = 2; d * d <= v && prime; ++d) prime = v % d != 0;
  return prime;
}

/// 0, 1, 2, 3 and the primes up to 199.
std::vector<index_t> sweep_orders() {
  std::vector<index_t> orders;
  for (index_t v = 0; v <= 199; ++v)
    if (v <= 3 || is_prime(v)) orders.push_back(v);
  return orders;
}

/// The adversarial matrix kinds, in case order.
enum class Kind { Zero, Ones, RankOne, Identity, Diagonal, Tridiagonal, Band3 };
const char* const kKindNames[] = {"zero",     "all-ones",    "rank-1", "identity",
                                  "diagonal", "tridiagonal", "band-3"};

struct SweepCase {
  int engine = 0;
  index_t n = 0;
  matgen::TableRow matrix{};
  const char* kind = nullptr;  ///< adversarial kind; `matrix` otherwise
  evd::EvdOptions opt;
  bool selected = false;
  index_t il = 0;
  index_t iu = 0;

  std::string describe() const {
    std::ostringstream s;
    s << kEngineNames[engine] << " n=" << n << " "
      << (kind != nullptr ? kind : matgen::matrix_type_name(matrix.type, matrix.cond))
      << " reduction=" << kReductionNames[static_cast<int>(opt.reduction)]
      << " solver=" << evd::tri_solver_name(opt.solver) << " b=" << opt.bandwidth
      << " nb=" << opt.big_block
      << " panel=" << (opt.panel == sbr::PanelKind::Tsqr ? "tsqr" : "blocked-qr")
      << " vectors=" << opt.vectors << " verify=" << verify::policy_name(opt.verify)
      << " abft=" << opt.abft;
    if (selected) s << " range=[" << il << ", " << iu << "]";
    return s.str();
  }
};

/// Draws b, nb, the panel, vectors, the verify policy, ABFT and a selected
/// range for a case of order c.n.
void draw_options(Rng& rng, SweepCase& c) {
  const index_t b = 1 + static_cast<index_t>(rng.bounded(16));
  c.opt.bandwidth = b;
  switch (rng.bounded(3)) {
    case 0: c.opt.big_block = b; break;
    case 1: c.opt.big_block = b * static_cast<index_t>(2 + rng.bounded(4)); break;
    default: {
      // A non-multiple exists for b >= 2 only; b = 1 keeps nb = b.
      if (b == 1) {
        c.opt.big_block = b;
        break;
      }
      const auto k = static_cast<index_t>(1 + rng.bounded(4));
      const auto r = static_cast<index_t>(1 + rng.bounded(static_cast<std::uint64_t>(b - 1)));
      c.opt.big_block = b * k + r;
      break;
    }
  }
  c.opt.panel = static_cast<sbr::PanelKind>(rng.bounded(2));
  c.opt.vectors = rng.bounded(2) == 1;
  c.opt.verify = static_cast<verify::Policy>(rng.bounded(3));
  c.opt.abft = rng.bounded(4) == 0;
  if (c.n >= 1 && rng.bounded(4) == 0) {
    c.selected = true;
    const auto n = static_cast<std::uint64_t>(c.n);
    c.il = static_cast<index_t>(rng.bounded(n));
    c.iu = c.il + static_cast<index_t>(rng.bounded(n - static_cast<std::uint64_t>(c.il)));
  }
}

SweepCase draw_case(int i) {
  static const std::vector<index_t> orders = sweep_orders();
  static const std::vector<matgen::TableRow> rows = matgen::paper_accuracy_rows();
  SweepCase c;
  c.opt.reduction = static_cast<evd::Reduction>(i % 4);
  c.opt.solver = static_cast<evd::TriSolver>((i / 4) % 3);
  c.engine = (i / 12) % 5;

  Rng rng(static_cast<std::uint64_t>(i));
  c.n = orders[rng.bounded(orders.size())];
  c.matrix = rows[rng.bounded(rows.size())];
  draw_options(rng, c);
  return c;
}

/// The symmetric matrix of kind `kind` and order n; random entries come from
/// `rng`.
Matrix<float> adversarial_matrix(Kind kind, index_t n, Rng& rng) {
  Matrix<float> a(n, n);
  const auto normal = [&rng] { return static_cast<float>(rng.normal()); };
  const auto set_band = [&](index_t half_width) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < n && i - j <= half_width; ++i) a(i, j) = a(j, i) = normal();
  };
  switch (kind) {
    case Kind::Zero: break;
    case Kind::Ones:
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) a(i, j) = 1.0f;
      break;
    case Kind::RankOne: {
      std::vector<float> u(static_cast<std::size_t>(n));
      for (float& x : u) x = static_cast<float>(2.0 * rng.uniform() - 1.0);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i)
          a(i, j) = u[static_cast<std::size_t>(i)] * u[static_cast<std::size_t>(j)];
      break;
    }
    case Kind::Identity:
      for (index_t i = 0; i < n; ++i) a(i, i) = 1.0f;
      break;
    case Kind::Diagonal: set_band(0); break;
    case Kind::Tridiagonal: set_band(1); break;
    case Kind::Band3: set_band(3); break;
  }
  return a;
}

SweepCase draw_adversarial_case(int i, Rng& rng) {
  static const std::vector<index_t> orders = [] {
    std::vector<index_t> o;
    for (index_t v = 61; v <= 199; ++v)
      if (is_prime(v)) o.push_back(v);
    return o;
  }();
  SweepCase c;
  c.kind = kKindNames[i % 7];
  c.opt.reduction = static_cast<evd::Reduction>(i / 7);
  c.engine = static_cast<int>(rng.bounded(5));
  c.opt.solver = static_cast<evd::TriSolver>(rng.bounded(3));
  c.n = orders[rng.bounded(orders.size())];
  draw_options(rng, c);
  const auto kind = static_cast<Kind>(i % 7);
  if (kind == Kind::Ones || kind == Kind::RankOne) c.opt.vectors = true;
  return c;
}

StatusOr<evd::EvdResult> run(const SweepCase& c, ConstMatrixView<float> a,
                             const evd::EvdOptions& opt, tc::GemmEngine& engine) {
  Context ctx(engine);
  return c.selected ? evd::solve_selected(a, ctx, opt, c.il, c.iu)
                    : evd::solve(a, ctx, opt);
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

bool same_bits(const Matrix<float>& x, const Matrix<float>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(float)) != 0) return false;
  return true;
}

/// ||V^T V - I||_F in double.
double orthogonality_error(ConstMatrixView<float> v) {
  Matrix<double> vd(v.rows(), v.cols());
  convert_matrix<float, double>(v, vd.view());
  Matrix<double> vtv(v.cols(), v.cols());
  blas::gemm<double>(blas::Trans::Yes, blas::Trans::No, 1.0, ConstMatrixView<double>(vd.view()),
                     ConstMatrixView<double>(vd.view()), 0.0, vtv.view());
  for (index_t i = 0; i < v.cols(); ++i) vtv(i, i) -= 1.0;
  return frobenius_norm<double>(vtv.view());
}

/// Solves case `c` on `a` and checks it against the oracles and the bitwise
/// classes.
void check_case(const SweepCase& c, const Matrix<float>& a) {
  SCOPED_TRACE(c.describe());
  const index_t n = c.n;
  const auto engine = make_engine(c.engine);

  StatusOr<evd::EvdResult> res = run(c, a.view(), c.opt, *engine);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  const index_t nev = c.selected ? c.iu - c.il + 1 : n;
  ASSERT_EQ(static_cast<index_t>(res->eigenvalues.size()), nev);

  // Oracles, on the engine that produced the result.
  const tc::EngineKind kind =
      kind_of(res->verify.checked ? res->verify.engine : std::string(engine->name()));
  const verify::Thresholds th = verify::thresholds_for(kind, n);
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  const double anorm = frobenius_norm<double>(ad.view());
  const std::vector<double> ref = *evd::reference_eigenvalues(ad.view());
  for (index_t k = 0; k < nev; ++k)
    EXPECT_LE(std::abs(res->eigenvalues[static_cast<std::size_t>(k)] -
                       ref[static_cast<std::size_t>(c.il + k)]),
              th.residual * anorm)
        << "lambda[" << c.il + k << "]";
  if (anorm == 0.0) {
    for (index_t k = 0; k < nev; ++k)
      EXPECT_EQ(res->eigenvalues[static_cast<std::size_t>(k)], 0.0f)
          << "lambda[" << c.il + k << "]";
  }
  if (c.opt.vectors && nev > 0) {
    ASSERT_EQ(res->vectors.rows(), n);
    ASSERT_EQ(res->vectors.cols(), nev);
    const ConstMatrixView<float> v(res->vectors.view());
    if (anorm > 0.0) {
      EXPECT_LE(evd::eigenpair_residual(a.view(), res->eigenvalues, v), th.residual);
    }
    EXPECT_LE(orthogonality_error(v), th.orthogonality);
  }

  // Paths that must not move a bit.
  tc::GemmEngine& shared = *engine;
  {
    evd::ServiceOptions sopt;
    sopt.num_threads = 1;
    evd::EvdService service(shared, sopt);
    evd::RequestOptions ropt;
    ropt.evd = c.opt;
    ropt.selected = c.selected;
    ropt.il = c.il;
    ropt.iu = c.iu;
    const std::vector<evd::RequestResult> streamed =
        test::solve_all(service, {Matrix<float>(a)}, ropt);
    ASSERT_TRUE(streamed[0].status.ok()) << streamed[0].status.to_string();
    EXPECT_TRUE(same_bits(streamed[0].eigenvalues, res->eigenvalues)) << "service values";
    EXPECT_TRUE(same_bits(streamed[0].vectors, res->vectors)) << "service vectors";
  }
  {
    blas::SerialGemmScope serial;
    StatusOr<evd::EvdResult> s = run(c, a.view(), c.opt, shared);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    EXPECT_TRUE(same_bits(s->eigenvalues, res->eigenvalues)) << "serial values";
    EXPECT_TRUE(same_bits(s->vectors, res->vectors)) << "serial vectors";
  }
  if (c.opt.reduction == evd::Reduction::TwoStageDbr && c.opt.big_block == c.opt.bandwidth) {
    evd::EvdOptions wy = c.opt;
    wy.reduction = evd::Reduction::TwoStageWy;
    StatusOr<evd::EvdResult> w = run(c, a.view(), wy, shared);
    ASSERT_TRUE(w.ok()) << w.status().to_string();
    EXPECT_TRUE(same_bits(w->eigenvalues, res->eigenvalues)) << "WY values";
    EXPECT_TRUE(same_bits(w->vectors, res->vectors)) << "WY vectors";
  }
}

class OptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(OptionSweep, SolveMatchesOraclesAndPaths) {
  const SweepCase c = draw_case(GetParam());
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  check_case(c, matgen::generate_f(c.matrix.type, c.n, c.matrix.cond, rng));
}

INSTANTIATE_TEST_SUITE_P(Seeded, OptionSweep, ::testing::Range(0, kCases));

class AdversarialSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialSweep, SolveMatchesOraclesAndPaths) {
  const int i = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(i));
  const SweepCase c = draw_adversarial_case(i, rng);
  check_case(c, adversarial_matrix(static_cast<Kind>(i % 7), c.n, rng));
}

INSTANTIATE_TEST_SUITE_P(Seeded, AdversarialSweep, ::testing::Range(0, kAdversarialCases));

}  // namespace
}  // namespace tcevd
