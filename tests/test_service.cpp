// EvdService: the streaming driver (DESIGN.md §15).
//
// The acceptance bar this file enforces: per-request results are
// bitwise-identical to sequential evd::solve at any worker count and request
// mix; admission control honors the overflow policy; priorities pick which
// waiting request starts next and deadlines are honored before the start and
// between stages; faults, throws and verification stay isolated per request,
// each keeping its recovery log; a steady-state stream performs the same
// number of heap allocations every round (runner contexts + slot recycling
// leave nothing to grow); and each runner solves on one Context under a
// SerialGemmScope.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/norms.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/service.hpp"
#include "src/tensorcore/engine.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "tests/alloc_counter.hpp"
#include "tests/test_util.hpp"

namespace tcevd {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " eigenvalue " << i;
}

void expect_bitwise_equal(const Matrix<float>& got, const Matrix<float>& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i)
      ASSERT_EQ(got(i, j), want(i, j)) << what << " vectors(" << i << ", " << j << ")";
}

// A mixed-size, mixed-option stream must return, per request, exactly the
// bits a sequential evd::solve of that request produces — the service
// reorders work, never numerics.
TEST_F(ServiceTest, BitwiseMatchesSequentialSolveAcrossMixedRequests) {
  tc::Fp32Engine eng;
  struct Spec {
    index_t n;
    std::uint64_t seed;
    evd::EvdOptions opt;
  };
  std::vector<Spec> specs;
  evd::EvdOptions base;
  base.bandwidth = 8;
  base.big_block = 32;
  for (int i = 0; i < 12; ++i) {
    Spec s;
    s.n = std::vector<index_t>{1, 24, 33, 48, 64, 96}[static_cast<std::size_t>(i) % 6];
    s.seed = 1000 + static_cast<std::uint64_t>(i);
    s.opt = base;
    s.opt.vectors = (i % 2 == 0);
    s.opt.solver = (i % 3 == 0) ? evd::TriSolver::Ql : evd::TriSolver::DivideConquer;
    if (i % 4 == 0) s.opt.bandwidth = 16;
    specs.push_back(s);
  }
  std::vector<Matrix<float>> mats;
  for (const Spec& s : specs) mats.push_back(test::random_symmetric<float>(s.n, s.seed));

  evd::ServiceOptions sopt;
  sopt.num_threads = 4;
  evd::EvdService service(eng, sopt);
  std::vector<evd::RequestId> ids;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    evd::RequestOptions ropt;
    ropt.evd = specs[i].opt;
    auto id = service.submit(mats[i].view(), ropt);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(*id);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    evd::RequestResult got = service.wait(ids[i]);
    ASSERT_TRUE(got.status.ok()) << "request " << i << ": " << got.status.to_string();
    Context ref_ctx(eng);
    auto want = evd::solve(mats[i].view(), ref_ctx, specs[i].opt);
    ASSERT_TRUE(want.ok());
    expect_bitwise_equal(got.eigenvalues, want->eigenvalues, "request");
    if (specs[i].opt.vectors) expect_bitwise_equal(got.vectors, want->vectors, "request");
  }
}

TEST_F(ServiceTest, SelectedRequestsMatchSolveSelected) {
  tc::Fp32Engine eng;
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 77);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  ropt.selected = true;
  ropt.il = 3;
  ropt.iu = 11;

  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  evd::EvdService service(eng, sopt);
  auto id = service.submit(a.view(), ropt);
  ASSERT_TRUE(id.ok());
  evd::RequestResult got = service.wait(*id);
  ASSERT_TRUE(got.status.ok()) << got.status.to_string();

  Context ref_ctx(eng);
  auto want = evd::solve_selected(a.view(), ref_ctx, ropt.evd, ropt.il, ropt.iu, true);
  ASSERT_TRUE(want.ok());
  expect_bitwise_equal(got.eigenvalues, want->eigenvalues, "selected");
  expect_bitwise_equal(got.vectors, want->vectors, "selected");
}

// Malformed requests are refused at submit — a Status, never an abort, and
// never a consumed slot.
TEST_F(ServiceTest, SubmitRejectsMalformedRequests) {
  tc::Fp32Engine eng;
  evd::EvdService service(eng, {});
  Matrix<float> rect(4, 5);
  auto bad_shape = service.submit(rect.view(), {});
  ASSERT_FALSE(bad_shape.ok());
  EXPECT_EQ(bad_shape.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(bad_shape.status().message().find("square"), std::string::npos);

  auto a = test::random_symmetric<float>(16, 5);
  for (index_t bandwidth : {0, -3}) {
    // Sizing the workspace of a bandwidth-0 request divided by zero.
    evd::RequestOptions narrow;
    narrow.evd.bandwidth = bandwidth;
    auto bad_band = service.submit(a.view(), narrow);
    ASSERT_FALSE(bad_band.ok());
    EXPECT_EQ(bad_band.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(bad_band.status().message().find("bandwidth"), std::string::npos);
  }

  evd::RequestOptions ropt;
  ropt.selected = true;
  ropt.il = 5;
  ropt.iu = 2;  // inverted
  auto bad_range = service.submit(a.view(), ropt);
  ASSERT_FALSE(bad_range.ok());
  EXPECT_EQ(bad_range.status().code(), ErrorCode::InvalidArgument);
  ropt.il = 0;
  ropt.iu = 16;  // == n
  auto bad_hi = service.submit(a.view(), ropt);
  ASSERT_FALSE(bad_hi.ok());
  EXPECT_EQ(bad_hi.status().code(), ErrorCode::InvalidArgument);

  EXPECT_EQ(service.stats().submitted, 0);
  // The service is still up: a well-formed request solves.
  auto good = service.submit(a.view(), {});
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(service.wait(*good).status.ok());
}

TEST_F(ServiceTest, WaitClaimsEachIdExactlyOnce) {
  tc::Fp32Engine eng;
  evd::EvdService service(eng, {});
  auto a = test::random_symmetric<float>(8, 3);
  auto id = service.submit(a.view(), {});
  ASSERT_TRUE(id.ok());
  evd::RequestResult first = service.wait(*id);
  EXPECT_TRUE(first.status.ok());
  evd::RequestResult second = service.wait(*id);
  EXPECT_EQ(second.status.code(), ErrorCode::InvalidArgument);
  evd::RequestResult bogus = service.wait(static_cast<evd::RequestId>(0xdeadbeefULL << 32));
  EXPECT_EQ(bogus.status.code(), ErrorCode::InvalidArgument);
}

// Reject policy: with one chunky request in flight and max_in_flight == 1,
// the next submit must be refused with ResourceExhausted immediately.
TEST_F(ServiceTest, RejectPolicyReturnsResourceExhausted) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  sopt.max_in_flight = 1;
  sopt.overflow = evd::OverflowPolicy::Reject;
  evd::EvdService service(eng, sopt);

  auto big = test::random_symmetric<float>(256, 9);
  evd::RequestOptions ropt;
  ropt.evd.vectors = true;
  auto id1 = service.submit(big.view(), ropt);
  ASSERT_TRUE(id1.ok());
  auto small = test::random_symmetric<float>(8, 10);
  auto id2 = service.submit(small.view(), {});
  ASSERT_FALSE(id2.ok());
  EXPECT_EQ(id2.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(service.stats().rejected, 1);

  evd::RequestResult r1 = service.wait(*id1);
  EXPECT_TRUE(r1.status.ok());
  // The slot freed: admission works again.
  auto id3 = service.submit(small.view(), {});
  ASSERT_TRUE(id3.ok());
  EXPECT_TRUE(service.wait(*id3).status.ok());
}

// Block policy: submission throttles instead of failing; everything lands.
TEST_F(ServiceTest, BlockPolicyCompletesEveryRequest) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  sopt.max_in_flight = 2;
  sopt.overflow = evd::OverflowPolicy::Block;
  evd::EvdService service(eng, sopt);

  std::vector<Matrix<float>> mats;
  for (int i = 0; i < 12; ++i) mats.push_back(test::random_symmetric<float>(48, 100 + i));
  std::vector<evd::RequestId> ids;
  for (int i = 0; i < 12; ++i) {
    // With max_in_flight == 2 most of these submits block until a worker
    // finishes an earlier request; none may fail.
    auto id = service.submit(mats[static_cast<std::size_t>(i)].view(), {});
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(*id);
    evd::RequestResult r = service.wait(*id);  // claim as we go: frees the slot
    EXPECT_TRUE(r.status.ok()) << "request " << i;
  }
  EXPECT_EQ(service.stats().completed, 12);
  EXPECT_EQ(service.stats().rejected, 0);
}

// A request whose deadline expires while a higher-priority solve occupies the
// only worker fails with DeadlineExceeded before it starts instead of running
// late.
TEST_F(ServiceTest, DeadlineExpiresBehindHigherPriorityWork) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);

  auto blocker_mat = test::random_symmetric<float>(256, 21);
  evd::RequestOptions blocker;
  blocker.evd.vectors = true;
  blocker.priority = 1;
  auto blocker_id = service.submit(blocker_mat.view(), blocker);
  ASSERT_TRUE(blocker_id.ok());

  auto doomed_mat = test::random_symmetric<float>(32, 22);
  evd::RequestOptions doomed;
  doomed.priority = 0;
  doomed.deadline_s = 1e-4;  // the blocker takes orders of magnitude longer
  auto doomed_id = service.submit(doomed_mat.view(), doomed);
  ASSERT_TRUE(doomed_id.ok());

  evd::RequestResult doomed_res = service.wait(*doomed_id);
  EXPECT_EQ(doomed_res.status.code(), ErrorCode::DeadlineExceeded);
  EXPECT_TRUE(service.wait(*blocker_id).status.ok());
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

// A deadline the steady clock cannot represent from now, or a non-finite
// one, means no deadline: the request runs to completion and returns the
// bits of the same request without a deadline.
TEST_F(ServiceTest, UnrepresentableDeadlineMeansNoDeadline) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);

  auto a = test::random_symmetric<float>(48, 31);
  evd::RequestOptions plain;
  plain.evd.vectors = true;
  auto plain_id = service.submit(a.view(), plain);
  ASSERT_TRUE(plain_id.ok());
  const evd::RequestResult want = service.wait(*plain_id);
  ASSERT_TRUE(want.status.ok()) << want.status.to_string();

  for (const double deadline : {1e10, 1e300, std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
    evd::RequestOptions ropt = plain;
    ropt.deadline_s = deadline;
    auto id = service.submit(a.view(), ropt);
    ASSERT_TRUE(id.ok());
    const evd::RequestResult got = service.wait(*id);
    ASSERT_TRUE(got.status.ok()) << "deadline_s " << deadline << ": "
                                 << got.status.to_string();
    expect_bitwise_equal(got.eigenvalues, want.eigenvalues, "eigenvalues");
    expect_bitwise_equal(got.vectors, want.vectors, "vectors");
  }
  EXPECT_EQ(service.stats().deadline_expired, 0);
}

// Zero and negative deadlines mean no deadline as well.
TEST_F(ServiceTest, NonPositiveDeadlineMeansNoDeadline) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);

  auto a = test::random_symmetric<float>(40, 32);
  for (const double deadline : {0.0, -1.0, -std::numeric_limits<double>::infinity()}) {
    evd::RequestOptions ropt;
    ropt.deadline_s = deadline;
    auto id = service.submit(a.view(), ropt);
    ASSERT_TRUE(id.ok());
    const evd::RequestResult got = service.wait(*id);
    EXPECT_TRUE(got.status.ok()) << "deadline_s " << deadline << ": "
                                 << got.status.to_string();
  }
  EXPECT_EQ(service.stats().deadline_expired, 0);
}

// With one worker pinned by a long blocker, later-submitted higher-priority
// work must start, and so complete, before earlier lower-priority work.
TEST_F(ServiceTest, PriorityPicksWhichWaitingRequestStartsNext) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);

  auto blocker_mat = test::random_symmetric<float>(192, 31);
  evd::RequestOptions blocker;
  blocker.evd.vectors = true;
  blocker.priority = 10;
  auto blocker_id = service.submit(blocker_mat.view(), blocker);
  ASSERT_TRUE(blocker_id.ok());

  auto low_mat = test::random_symmetric<float>(24, 32);
  evd::RequestOptions low;
  low.priority = 0;
  auto low_id = service.submit(low_mat.view(), low);
  ASSERT_TRUE(low_id.ok());

  auto high_mat = test::random_symmetric<float>(24, 33);
  evd::RequestOptions high;
  high.priority = 5;
  auto high_id = service.submit(high_mat.view(), high);
  ASSERT_TRUE(high_id.ok());

  evd::RequestResult low_res = service.wait(*low_id);
  evd::RequestResult high_res = service.wait(*high_id);
  ASSERT_TRUE(low_res.status.ok());
  ASSERT_TRUE(high_res.status.ok());
  EXPECT_LT(high_res.completion_seq, low_res.completion_seq)
      << "priority 5 must finish before priority 0 on a single worker";
  EXPECT_TRUE(service.wait(*blocker_id).status.ok());
}

// The service's aggregate telemetry carries the new tiers: service.queue and
// service.stage.* as both throughput stages and latency histograms, plus the
// per-problem evd.* stages from the runner contexts.
TEST_F(ServiceTest, TelemetryRecordsQueueAndStageTiers) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  evd::EvdService service(eng, sopt);
  const int count = 4;
  std::vector<Matrix<float>> mats;
  for (int i = 0; i < count; ++i) mats.push_back(test::random_symmetric<float>(64, 200 + i));
  std::vector<evd::RequestId> ids;
  for (int i = 0; i < count; ++i) {
    // The last request is a selected range: it is staged like any other.
    evd::RequestOptions ropt;
    ropt.selected = i == count - 1;
    ropt.il = 8;
    ropt.iu = 15;
    auto id = service.submit(mats[static_cast<std::size_t>(i)].view(), ropt);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  service.wait_all();
  Telemetry t = service.telemetry_snapshot();

  auto stage_calls = [&](const char* name) {
    long calls = 0;
    for (const auto& s : t.stages())
      if (s.name == name) calls = s.calls;
    return calls;
  };
  EXPECT_EQ(stage_calls("service.queue"), count);
  EXPECT_EQ(stage_calls("service.stage.reduction"), count);
  EXPECT_EQ(stage_calls("service.stage.bulge"), count);
  EXPECT_EQ(stage_calls("service.stage.solver"), count);
  EXPECT_EQ(stage_calls("service.stage.partial"), 0);
  // Per-problem pipeline stages arrive via the runner contexts.
  EXPECT_EQ(stage_calls("evd.reduction"), count);
  EXPECT_EQ(stage_calls("evd.solver"), count);

  bool found_solver_latency = false;
  for (const auto& l : t.latencies())
    if (l.name == "service.stage.solver") {
      found_solver_latency = true;
      EXPECT_EQ(l.count, count);
      EXPECT_GT(l.max_s, 0.0);
    }
  EXPECT_TRUE(found_solver_latency);
  EXPECT_GT(t.latency_quantile("service.stage.solver", 0.5), 0.0);
  EXPECT_GT(t.latency_quantile("service.queue", 0.99), 0.0);

  for (int i = 0; i < count; ++i) (void)service.wait(ids[static_cast<std::size_t>(i)]);
}

// Fault isolation, ABFT tier: with gemm.tile_corrupt armed, ABFT-protected
// streamed requests detect and recompute the corrupted tiles, and every
// result stays bitwise-identical to the fault-free sequential solve.
TEST_F(ServiceTest, AbftRecoversTileCorruptionBitwiseInStream) {
  tc::TcEngine eng;
  const int count = 6;
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  ropt.evd.abft = true;

  std::vector<Matrix<float>> mats;
  for (int i = 0; i < count; ++i) mats.push_back(test::random_symmetric<float>(64, 300 + i));
  // Fault-free references first (the fault budget is process-global).
  std::vector<evd::EvdResult> want;
  for (int i = 0; i < count; ++i) {
    Context ref_ctx(eng);
    auto r = evd::solve(mats[static_cast<std::size_t>(i)].view(), ref_ctx, ropt.evd);
    ASSERT_TRUE(r.ok());
    want.push_back(std::move(*r));
  }

  fault::arm(fault::Site::GemmTileCorrupt, 4);  // bites whichever requests run first
  evd::ServiceOptions sopt;
  sopt.num_threads = 3;
  evd::EvdService service(eng, sopt);
  std::vector<evd::RequestId> ids;
  for (int i = 0; i < count; ++i) {
    auto id = service.submit(mats[static_cast<std::size_t>(i)].view(), ropt);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  int recovered = 0;
  for (int i = 0; i < count; ++i) {
    evd::RequestResult got = service.wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.status.ok()) << got.status.to_string();
    expect_bitwise_equal(got.eigenvalues, want[static_cast<std::size_t>(i)].eigenvalues,
                         "abft stream");
    expect_bitwise_equal(got.vectors, want[static_cast<std::size_t>(i)].vectors,
                         "abft stream");
    for (const RecoveryEvent& ev : got.recovery)
      if (ev.site == "blas.abft") ++recovered;
  }
  EXPECT_EQ(fault::fired(fault::Site::GemmTileCorrupt), 4);
  EXPECT_GE(recovered, 1) << "at least one request must have logged an ABFT recompute";
}

// Fault isolation, verification tier: one injected residual breach escalates
// exactly one request to a better engine; its neighbors verify cleanly and
// stay bitwise-identical to their sequential solves.
TEST_F(ServiceTest, VerifyEscalationStaysIsolatedPerRequest) {
  tc::TcEngine eng;
  const int count = 6;
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  ropt.evd.verify = verify::Policy::EstimateEscalate;

  std::vector<Matrix<float>> mats;
  for (int i = 0; i < count; ++i) mats.push_back(test::random_symmetric<float>(48, 400 + i));
  std::vector<evd::EvdResult> want;
  for (int i = 0; i < count; ++i) {
    Context ref_ctx(eng);
    auto r = evd::solve(mats[static_cast<std::size_t>(i)].view(), ref_ctx, ropt.evd);
    ASSERT_TRUE(r.ok());
    want.push_back(std::move(*r));
  }

  fault::arm(fault::Site::VerifyResidual, 1);
  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  evd::EvdService service(eng, sopt);
  std::vector<evd::RequestId> ids;
  for (int i = 0; i < count; ++i) {
    auto id = service.submit(mats[static_cast<std::size_t>(i)].view(), ropt);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  int escalated = 0;
  for (int i = 0; i < count; ++i) {
    evd::RequestResult got = service.wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.status.ok()) << got.status.to_string();
    EXPECT_TRUE(got.verify.checked);
    EXPECT_TRUE(got.verify.passed);
    if (got.verify.escalations > 0) {
      ++escalated;
    } else {
      expect_bitwise_equal(got.eigenvalues, want[static_cast<std::size_t>(i)].eigenvalues,
                           "unescalated request");
      expect_bitwise_equal(got.vectors, want[static_cast<std::size_t>(i)].vectors,
                           "unescalated request");
    }
  }
  EXPECT_EQ(escalated, 1) << "exactly one request absorbs the injected breach";
}

/// Submit every matrix of `mats`, then claim each result, and return the heap
/// allocations made meanwhile. `ids` holds one entry per matrix, sized by the
/// caller so that it allocates nothing here.
std::uint64_t round_allocations(evd::EvdService& service, const std::vector<Matrix<float>>& mats,
                                const evd::RequestOptions& ropt,
                                std::vector<evd::RequestId>& ids) {
  const std::uint64_t before = test::heap_allocs();
  for (std::size_t i = 0; i < mats.size(); ++i) ids[i] = *service.submit(mats[i].view(), ropt);
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const evd::RequestResult r = service.wait(ids[i]);
    if (!r.status.ok()) ADD_FAILURE() << r.status.to_string();
  }
  return test::heap_allocs() - before;
}

// Steady-state allocation parity: once slots, contexts, and telemetry tables
// are warm, every round of a homogeneous stream performs exactly the same
// number of heap allocations — nothing (queues, pools, histograms) grows per
// request. Arena stability is asserted through the pooled-context count.
TEST_F(ServiceTest, SteadyStateStreamHasAllocationParityAcrossRounds) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  sopt.max_in_flight = 64;
  evd::EvdService service(eng, sopt);

  const int per_round = 24;
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  std::vector<Matrix<float>> mats;
  for (int i = 0; i < per_round; ++i)
    mats.push_back(test::random_symmetric<float>(64, 500 + i));
  std::vector<evd::RequestId> ids(mats.size(), 0);
  auto run_round = [&] { return round_allocations(service, mats, ropt, ids); };

  run_round();  // warm-up: slots, contexts, telemetry tables, vector capacities
  run_round();  // second warm-up: late context creation, histogram entries
  const std::size_t pooled = service.stats().pooled_contexts;
  const std::uint64_t round_a = run_round();
  const std::uint64_t round_b = run_round();
  EXPECT_EQ(round_a, round_b)
      << "steady-state rounds must allocate identically (something grows per request)";
  EXPECT_EQ(service.stats().pooled_contexts, pooled)
      << "steady-state rounds must not found new contexts";
}

// Soak: a few hundred mixed requests (size, options, priority) through a
// small pool; everything completes, spot checks stay bitwise-correct. The
// TSan CI leg scales this shape up via bench_service.
TEST_F(ServiceTest, SoakMixedStreamCompletesAndSpotChecksBitwise) {
  int count = 240;
  if (const char* env = std::getenv("TCEVD_SERVICE_SOAK_REQUESTS"))
    count = std::max(1, std::atoi(env));
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 4;
  sopt.max_in_flight = 64;
  evd::EvdService service(eng, sopt);

  const std::vector<index_t> sizes{1, 16, 24, 32, 48};
  std::vector<Matrix<float>> mats;
  std::vector<evd::RequestOptions> opts;
  mats.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const index_t n = sizes[static_cast<std::size_t>(i) % sizes.size()];
    mats.push_back(test::random_symmetric<float>(n, 900 + static_cast<std::uint64_t>(i)));
    evd::RequestOptions ropt;
    ropt.evd.bandwidth = 8;
    ropt.evd.big_block = 32;
    ropt.evd.vectors = (i % 3 == 0);
    ropt.priority = i % 5;
    opts.push_back(ropt);
  }

  std::vector<evd::RequestId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto id = service.submit(mats[static_cast<std::size_t>(i)].view(),
                             opts[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(*id);
  }
  for (int i = 0; i < count; ++i) {
    evd::RequestResult got = service.wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.status.ok()) << "request " << i << ": " << got.status.to_string();
    if (i % 37 == 0) {
      Context ref_ctx(eng);
      auto want = evd::solve(mats[static_cast<std::size_t>(i)].view(), ref_ctx,
                             opts[static_cast<std::size_t>(i)].evd);
      ASSERT_TRUE(want.ok());
      expect_bitwise_equal(got.eigenvalues, want->eigenvalues, "soak spot check");
    }
  }
  const evd::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, count);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.deadline_expired, 0);
}


// ---------------------------------------------------------------------------
// Same-shape request sets: many problems of one order through one service,
// submitted up front and claimed in order (test::solve_all).
// ---------------------------------------------------------------------------

std::vector<Matrix<float>> make_set(index_t n, std::size_t count, std::uint64_t seed0) {
  std::vector<Matrix<float>> mats;
  mats.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    mats.push_back(test::random_symmetric<float>(n, seed0 + i));
  return mats;
}

TEST_F(ServiceTest, SameShapeSetBitwiseMatchesSequentialSolve) {
  // With vectors on, each request also runs the back-transform through Q on
  // a runner (serial GEMM tiles): values AND vectors must still equal the
  // caller-thread solve bit for bit.
  const index_t n = 64;
  auto mats = make_set(n, 10, 1000);
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 4;
  evd::EvdService service(eng, sopt);
  for (bool vectors : {false, true}) {
    evd::RequestOptions ropt;
    ropt.evd.bandwidth = 8;
    ropt.evd.big_block = 32;
    ropt.evd.vectors = vectors;
    auto res = test::solve_all(service, mats, ropt);
    ASSERT_EQ(test::num_ok(res), mats.size());
    for (std::size_t i = 0; i < mats.size(); ++i) {
      Context ctx(eng);
      auto ref = *evd::solve(mats[i].view(), ctx, ropt.evd);
      expect_bitwise_equal(res[i].eigenvalues, ref.eigenvalues, "same-shape set");
      if (!vectors) continue;
      ASSERT_EQ(res[i].vectors.rows(), n);
      ASSERT_EQ(res[i].vectors.cols(), n);
      for (index_t c = 0; c < n; ++c)
        for (index_t r = 0; r < n; ++r)
          ASSERT_EQ(std::memcmp(&res[i].vectors(r, c), &ref.vectors(r, c), sizeof(float)), 0)
              << "request " << i << " vector entry (" << r << ", " << c << ")";
    }
  }
}

TEST_F(ServiceTest, VectorsSatisfyResidualAndOrthogonalityBounds) {
  const index_t n = 48;
  auto mats = make_set(n, 6, 2000);
  tc::EcTcEngine eng;  // shared atomic-counter engine, the production pick
  evd::ServiceOptions sopt;
  sopt.num_threads = 3;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 16;
  ropt.evd.vectors = true;
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(test::num_ok(res), mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const evd::RequestResult& r = res[i];
    ASSERT_EQ(r.vectors.rows(), n);
    ASSERT_EQ(r.vectors.cols(), n);
    EXPECT_LT(evd::eigenpair_residual(mats[i].view(), r.eigenvalues, r.vectors.view()), 1e-2)
        << "request " << i;
    EXPECT_LT(orthogonality_error<float>(r.vectors.view()), 1e-3) << "request " << i;
    EXPECT_GE(r.worker, 0);
    EXPECT_LT(r.worker, service.num_threads());
  }
}

TEST_F(ServiceTest, SelectedWindowMatchesFullSpectrumSlice) {
  const index_t n = 40;
  auto mats = make_set(n, 4, 3000);
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 4;
  ropt.evd.big_block = 8;
  ropt.selected = true;
  ropt.il = 2;
  ropt.iu = 9;
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(test::num_ok(res), mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    ASSERT_EQ(res[i].eigenvalues.size(), 8u);
    Context ctx(eng);
    auto full = *evd::solve(mats[i].view(), ctx, ropt.evd);
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(res[i].eigenvalues[j], full.eigenvalues[j + 2], 1e-3) << "request " << i;
  }
}

TEST_F(ServiceTest, NonPositiveThreadCountPicksHardwareThreads) {
  auto mats = make_set(24, 3, 5200);
  tc::Fp32Engine eng;
  for (int threads : {0, -7}) {
    evd::ServiceOptions sopt;
    sopt.num_threads = threads;
    evd::EvdService service(eng, sopt);
    EXPECT_EQ(service.num_threads(), ThreadPool::hardware_threads()) << threads;
    evd::RequestOptions ropt;
    ropt.evd.bandwidth = 4;
    auto res = test::solve_all(service, mats, ropt);
    EXPECT_EQ(test::num_ok(res), mats.size()) << threads;
  }
}

TEST_F(ServiceTest, TinyRequestsSolveInsteadOfAborting) {
  // n = 1 can never reach the SBR pipeline (bandwidth must sit in [1, n));
  // it is answered directly, never from inside a runner's SBR stage.
  std::vector<Matrix<float>> mats;
  for (int i = 0; i < 4; ++i) {
    Matrix<float> a(1, 1);
    a(0, 0) = 2.5f + static_cast<float>(i);
    mats.push_back(std::move(a));
  }
  tc::Fp32Engine eng;
  evd::EvdService service(eng, {});
  evd::RequestOptions ropt;
  ropt.evd.vectors = true;
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(test::num_ok(res), mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    ASSERT_EQ(res[i].eigenvalues.size(), 1u);
    EXPECT_EQ(res[i].eigenvalues[0], 2.5f + static_cast<float>(i));
    EXPECT_EQ(res[i].vectors(0, 0), 1.0f);
  }
}

// Malformed request data — a non-square matrix, an out-of-range selected
// window — fails that request alone with InvalidArgument; its neighbours
// solve normally.
TEST_F(ServiceTest, NonSquareRequestFailsAloneWithInvalidArgument) {
  auto mats = make_set(24, 2, 7300);
  mats.push_back(Matrix<float>(24, 16));
  tc::Fp32Engine eng;
  evd::EvdService service(eng, {});
  auto res = test::solve_all(service, mats);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_TRUE(res[0].status.ok());
  EXPECT_TRUE(res[1].status.ok());
  EXPECT_EQ(res[2].status.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(res[2].status.message().find("square"), std::string::npos);
}

TEST_F(ServiceTest, SelectedRangeOutOfBoundsFailsPerRequestWithInvalidArgument) {
  auto mats = make_set(16, 3, 7400);
  tc::Fp32Engine eng;
  evd::EvdService service(eng, {});
  evd::RequestOptions ropt;
  ropt.selected = true;
  ropt.il = 4;
  ropt.iu = 16;  // iu == n: out of bounds for every request
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(res.size(), 3u);
  for (const evd::RequestResult& r : res) {
    EXPECT_EQ(r.status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.status.message().find("range"), std::string::npos);
  }
  EXPECT_EQ(service.stats().submitted, 0);
}

TEST_F(ServiceTest, NanInputFailsAloneWithInvalidInput) {
  auto mats = make_set(32, 5, 8000);
  mats[2](4, 5) = std::nanf("");  // poison one request's input
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 4;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 4;
  auto res = test::solve_all(service, mats, ropt);
  EXPECT_EQ(test::num_ok(res), mats.size() - 1);
  EXPECT_EQ(res[2].status.code(), ErrorCode::InvalidInput);
  for (std::size_t i = 0; i < mats.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(res[i].status.ok()) << "request " << i;
    }
  }
}

// Failure isolation under injection: a poisoned request must not fail its
// neighbours.
TEST_F(ServiceTest, PoisonedRequestFailsAloneUnderInjection) {
  const index_t n = 48;
  auto mats = make_set(n, 8, 6000);
  // Enough injected failures to exhaust one request's whole solver chain:
  // its QL attempt and the divide-and-conquer fallback's QL leaf exhaust,
  // then bisection's inverse iteration stagnates. On a one-runner service
  // exactly the first request to reach its solver stage draws all three and
  // reports the fault; every other request — including later ones on the
  // same runner — succeeds.
  fault::arm(fault::Site::SteqrExhaust, 2);
  fault::arm(fault::Site::SteinStagnate, 1);
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.solver = evd::TriSolver::Ql;
  ropt.evd.vectors = true;
  auto res = test::solve_all(service, mats, ropt);

  EXPECT_EQ(fault::fired(fault::Site::SteqrExhaust), 2);
  EXPECT_EQ(fault::fired(fault::Site::SteinStagnate), 1);
  EXPECT_EQ(test::num_ok(res), mats.size() - 1);
  std::size_t failed = 0;
  for (const evd::RequestResult& r : res) {
    if (!r.status.ok()) {
      ++failed;
      EXPECT_EQ(r.status.code(), ErrorCode::FaultInjected) << r.status.to_string();
    } else {
      EXPECT_EQ(r.eigenvalues.size(), std::size_t(n));
    }
  }
  EXPECT_EQ(failed, 1u);
}

TEST_F(ServiceTest, FailedRequestReturnsItsRecoveryLog) {
  // Every solver of the one request fails. The request carries its two
  // solver-fallback notes, and the service snapshot holds them once.
  fault::arm(fault::Site::SteqrExhaust, -1);
  fault::arm(fault::Site::SteinStagnate, -1);
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.vectors = true;
  const auto mats = make_set(64, 1, 22);
  const auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].status.code(), ErrorCode::FaultInjected) << res[0].status.to_string();
  const Telemetry snapshot = service.telemetry_snapshot();
  for (const RecoveryLog* seen : {&res[0].recovery, &snapshot.recovery()}) {
    ASSERT_EQ(seen->size(), 2u);
    EXPECT_EQ((*seen)[0].site, "evd.solver");
    EXPECT_NE((*seen)[0].action.find("retrying with ql"), std::string::npos);
    EXPECT_EQ((*seen)[1].site, "evd.solver");
    EXPECT_NE((*seen)[1].action.find("retrying with bisection"), std::string::npos);
  }
}

// A GEMM engine with Fp32Engine's numerics that misbehaves on its first
// call only: it throws, or it stalls for 50 ms first.
class FirstGemmEngine final : public tc::GemmEngine {
 public:
  enum class Mode { Throw, Stall };
  explicit FirstGemmEngine(Mode mode) : mode_(mode) {}
  const std::string& name() const noexcept override { return inner_.name(); }
  tc::EngineKind kind() const noexcept override { return inner_.kind(); }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override {
    if (!first_done_.exchange(true)) {
      if (mode_ == Mode::Throw) throw std::runtime_error("first GEMM failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    inner_.gemm(transa, transb, alpha, a, b, beta, c);
  }

 private:
  Mode mode_;
  tc::Fp32Engine inner_;
  mutable std::atomic<bool> first_done_{false};
};

/// A request whose solve notes "evd.options" (big_block below the
/// bandwidth) before its first GEMM.
evd::RequestOptions request_noting_options() {
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 16;
  ropt.evd.big_block = 8;
  return ropt;
}

long count_site(const RecoveryLog& log, const std::string& site) {
  return std::count_if(log.begin(), log.end(),
                       [&](const RecoveryEvent& ev) { return ev.site == site; });
}

TEST_F(ServiceTest, ThrowingSolveFailsAloneAndKeepsItsRecoveryLog) {
  // The throw fails the request with Internal; the note made before it
  // reaches the result and, once, the context's telemetry.
  FirstGemmEngine eng(FirstGemmEngine::Mode::Throw);
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  const auto a = test::random_symmetric<float>(48, 41);
  auto id = service.submit(a.view(), request_noting_options());
  ASSERT_TRUE(id.ok());
  const evd::RequestResult res = service.wait(*id);
  EXPECT_EQ(res.status.code(), ErrorCode::Internal) << res.status.to_string();
  EXPECT_EQ(count_site(res.recovery, "evd.options"), 1);
  EXPECT_EQ(count_site(service.telemetry_snapshot().recovery(), "evd.options"), 1);

  // The unwound solve left its runner's context fit for the next request.
  auto again = service.submit(a.view(), request_noting_options());
  ASSERT_TRUE(again.ok());
  const evd::RequestResult next = service.wait(*again);
  EXPECT_TRUE(next.status.ok()) << next.status.to_string();
  EXPECT_EQ(service.stats().pooled_contexts, 1u);
}

TEST_F(ServiceTest, DeadlineExpiresBetweenStagesAndKeepsTheRecoveryLog) {
  // The request starts at once on the idle runner; its first GEMM outlasts
  // the deadline, so it fails before its next stage, note included.
  FirstGemmEngine eng(FirstGemmEngine::Mode::Stall);
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  const auto a = test::random_symmetric<float>(48, 42);
  evd::RequestOptions ropt = request_noting_options();
  ropt.deadline_s = 0.010;
  auto id = service.submit(a.view(), ropt);
  ASSERT_TRUE(id.ok());
  const evd::RequestResult res = service.wait(*id);
  EXPECT_EQ(res.status.code(), ErrorCode::DeadlineExceeded) << res.status.to_string();
  EXPECT_NE(res.status.message().find("between pipeline stages"), std::string::npos)
      << res.status.to_string();
  EXPECT_EQ(count_site(res.recovery, "evd.options"), 1);
  EXPECT_EQ(count_site(service.telemetry_snapshot().recovery(), "evd.options"), 1);
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

TEST_F(ServiceTest, PoisonedRequestRecoversWithFallbacksAndLogsIt) {
  auto mats = make_set(48, 6, 7000);
  fault::arm(fault::Site::SteqrExhaust, 1);
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 3;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.solver = evd::TriSolver::Ql;
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(test::num_ok(res), mats.size());
  // The degradation is visible per request and in the service snapshot.
  std::size_t recovered = 0;
  for (const evd::RequestResult& r : res) recovered += r.recovery.empty() ? 0 : 1;
  EXPECT_EQ(recovered, 1u);
  EXPECT_FALSE(service.telemetry_snapshot().recovery().empty());
}

TEST_F(ServiceTest, StageCallCountsCoverEveryRequest) {
  // Two sizes: every runner keeps its context for the service's life, so
  // the snapshot accounts for each request's reduction/bulge/solver stage.
  std::vector<Matrix<float>> mats = make_set(32, 6, 9000);
  for (Matrix<float>& a : make_set(96, 3, 9100)) mats.push_back(std::move(a));
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 3;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 4;
  auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(test::num_ok(res), mats.size());
  const Telemetry t = service.telemetry_snapshot();
  for (const char* stage : {"evd.reduction", "evd.bulge", "evd.solver"}) {
    long calls = 0;
    for (const auto& s : t.stages())
      if (s.name == stage) calls = s.calls;
    EXPECT_EQ(calls, static_cast<long>(mats.size())) << stage;
    EXPECT_GE(t.stage_seconds(stage), 0.0);
  }
}

// The contexts are bounded by the runner count: each runner creates one, on
// its first request, and reuses it for every later one.
TEST_F(ServiceTest, ContextPoolNeverExceedsStartedRequests) {
  tc::Fp32Engine eng;
  for (int threads : {1, 2}) {
    evd::ServiceOptions sopt;
    sopt.num_threads = threads;
    evd::EvdService service(eng, sopt);
    // Many more requests than runners, all queued at once, with a spread of
    // priorities.
    std::vector<Matrix<float>> mats = make_set(48, 24, 9300);
    std::vector<evd::RequestId> ids;
    for (std::size_t i = 0; i < mats.size(); ++i) {
      evd::RequestOptions ropt;
      ropt.evd.bandwidth = 8;
      ropt.evd.vectors = true;
      ropt.priority = static_cast<int>(i % 3);
      auto id = service.submit(mats[i].view(), ropt);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (evd::RequestId id : ids) EXPECT_TRUE(service.wait(id).status.ok());
    const std::size_t pooled = service.stats().pooled_contexts;
    EXPECT_GE(pooled, 1u);
    EXPECT_LE(pooled, static_cast<std::size_t>(threads)) << threads << " runners";
  }
}

// One runner keeps one Context for every request it runs, whatever its size:
// n = 48 and n = 256 with vectors need arenas in different power-of-two size
// classes (1 and 2 MiB), and they alternate.
TEST_F(ServiceTest, OneContextPerRunnerAcrossSizeClasses) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  std::vector<Matrix<float>> mats;
  for (int i = 0; i < 4; ++i)
    mats.push_back(test::random_symmetric<float>(i % 2 == 0 ? 48 : 256, 9500 + i));
  const auto res = test::solve_all(service, mats, ropt);
  ASSERT_EQ(test::num_ok(res), mats.size());
  EXPECT_EQ(service.stats().pooled_contexts, 1u);
}

// A GEMM engine with Fp32Engine's numerics that counts its calls, and those
// made outside a blas::SerialGemmScope.
class ScopeRecordingEngine final : public tc::GemmEngine {
 public:
  const std::string& name() const noexcept override { return inner_.name(); }
  tc::EngineKind kind() const noexcept override { return inner_.kind(); }
  long calls() const noexcept { return calls_.load(); }
  long unscoped_calls() const noexcept { return unscoped_.load(); }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override {
    calls_.fetch_add(1);
    if (!blas::gemm_serial_forced()) unscoped_.fetch_add(1);
    inner_.gemm(transa, transb, alpha, a, b, beta, c);
  }

 private:
  tc::Fp32Engine inner_;
  mutable std::atomic<long> calls_{0};
  mutable std::atomic<long> unscoped_{0};
};

// Every runner holds a SerialGemmScope, so every GEMM of every request runs
// its tile loop on the runner's thread.
TEST_F(ServiceTest, RunnersSolveUnderSerialGemmScope) {
  ScopeRecordingEngine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 3;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  const auto res = test::solve_all(service, make_set(64, 6, 9600), ropt);
  ASSERT_EQ(test::num_ok(res), res.size());
  EXPECT_GT(eng.calls(), 0);
  EXPECT_EQ(eng.unscoped_calls(), 0) << "a runner issued a GEMM outside a SerialGemmScope";
}

// Allocation parity holds for a mixed-size stream too: a runner's arena grows
// to its largest request during warm-up and is reused at that size.
TEST_F(ServiceTest, MixedSizeStreamHasAllocationParityAcrossRounds) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;  // one runner: every round runs in the same order
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  ropt.evd.vectors = true;
  const index_t sizes[] = {32, 96, 256};
  std::vector<Matrix<float>> mats;
  for (int i = 0; i < 6; ++i)
    mats.push_back(test::random_symmetric<float>(sizes[i % 3], 9700 + i));
  std::vector<evd::RequestId> ids(mats.size(), 0);
  auto run_round = [&] { return round_allocations(service, mats, ropt, ids); };

  run_round();  // warm-up: the arena grows to the n = 256 request
  run_round();  // second warm-up: slots, telemetry tables, vector capacities
  const std::uint64_t round_a = run_round();
  const std::uint64_t round_b = run_round();
  EXPECT_EQ(round_a, round_b)
      << "mixed-size rounds must allocate identically (something grows per request)";
  EXPECT_EQ(service.stats().pooled_contexts, 1u);
}

// A GEMM engine with Fp32Engine's numerics whose next call, once armed,
// parks until the test releases it.
class ParkingEngine final : public tc::GemmEngine {
 public:
  const std::string& name() const noexcept override { return inner_.name(); }
  tc::EngineKind kind() const noexcept override { return inner_.kind(); }
  void arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void wait_parked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 protected:
  void do_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (armed_) {
        armed_ = false;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    inner_.gemm(transa, transb, alpha, a, b, beta, c);
  }

 private:
  tc::Fp32Engine inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool armed_ = false;
  mutable bool parked_ = false;
  mutable bool released_ = false;
};

// telemetry_snapshot() and stats() never wait for a running request, and the
// snapshot skips the Context its runner is solving on: that Context already
// holds the first request's reduction, so merging it would count one.
TEST_F(ServiceTest, SnapshotSkipsTheContextOfARunningRequest) {
  ParkingEngine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  evd::EvdService service(eng, sopt);
  evd::RequestOptions ropt;
  ropt.evd.bandwidth = 8;
  ropt.evd.big_block = 32;
  const auto mats = make_set(48, 2, 9800);
  auto reduction_calls = [&] {
    const Telemetry t = service.telemetry_snapshot();
    long calls = 0;
    for (const auto& s : t.stages())
      if (s.name == "evd.reduction") calls = s.calls;
    return calls;
  };

  auto first = service.submit(mats[0].view(), ropt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service.wait(*first).status.ok());
  EXPECT_EQ(reduction_calls(), 1);

  eng.arm();
  auto second = service.submit(mats[1].view(), ropt);
  ASSERT_TRUE(second.ok());
  eng.wait_parked();  // the runner is mid-request, inside its reduction
  EXPECT_EQ(reduction_calls(), 0);
  const evd::ServiceStats mid = service.stats();
  EXPECT_EQ(mid.completed, 1);
  EXPECT_EQ(mid.pooled_contexts, 1u);
  eng.release();
  EXPECT_TRUE(service.wait(*second).status.ok());
  EXPECT_EQ(reduction_calls(), 2);
}

}  // namespace
}  // namespace tcevd
