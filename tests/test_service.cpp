// EvdService: the stage-pipelined streaming driver (DESIGN.md §15).
//
// The acceptance bar this file enforces: per-request results are
// bitwise-identical to sequential evd::solve at any worker count and request
// mix; admission control honors the overflow policy; deadlines and
// priorities are honored at stage boundaries; faults and verification stay
// isolated per request; and a homogeneous steady-state stream performs the
// same number of heap allocations every round (context pool + slot recycling
// leave nothing to grow).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/recovery.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/partial.hpp"
#include "src/evd/service.hpp"
#include "src/tensorcore/engine.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "tests/test_util.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter backing the steady-state allocation-parity
// regression below (same methodology as test_workspace.cpp: replacing the
// global operator new/delete pair is the only way to observe library-internal
// heap allocations from a test).
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t sz, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      static_cast<std::size_t>(al) < sizeof(void*) ? sizeof(void*)
                                                   : static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, align, sz ? sz : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) { return ::operator new(sz, al); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz ? sz : 1);
}
void* operator new[](std::size_t sz, const std::nothrow_t& tag) noexcept {
  return ::operator new(sz, tag);
}
void* operator new(std::size_t sz, std::align_val_t al, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      static_cast<std::size_t>(al) < sizeof(void*) ? sizeof(void*)
                                                   : static_cast<std::size_t>(al);
  void* p = nullptr;
  return posix_memalign(&p, align, sz ? sz : 1) == 0 ? p : nullptr;
}
void* operator new[](std::size_t sz, std::align_val_t al, const std::nothrow_t& tag) noexcept {
  return ::operator new(sz, al, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

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
// only worker fails with DeadlineExceeded at the next stage boundary instead
// of running late.
TEST_F(ServiceTest, DeadlineExpiresBehindHigherPriorityWork) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  sopt.max_started = 1;
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

// With one worker pinned by a long blocker, later-submitted higher-priority
// work must complete before earlier lower-priority work.
TEST_F(ServiceTest, PriorityOrdersExecutionAtStageBoundaries) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 1;
  sopt.max_started = 1;
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
// per-problem evd.* stages from the pooled contexts.
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
  // Per-problem pipeline stages arrive via the pooled contexts.
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

// Steady-state allocation parity: once slots, contexts, and telemetry tables
// are warm, every round of a homogeneous stream performs exactly the same
// number of heap allocations — nothing (queues, pools, histograms) grows per
// request. Arena stability is asserted through the pooled-context count.
TEST_F(ServiceTest, SteadyStateStreamHasAllocationParityAcrossRounds) {
  tc::Fp32Engine eng;
  evd::ServiceOptions sopt;
  sopt.num_threads = 2;
  sopt.max_started = 2;  // context pool holds exactly the live set
  sopt.max_idle_contexts_per_class = 2;
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
  std::vector<evd::RequestId> ids(static_cast<std::size_t>(per_round), 0);

  auto run_round = [&]() -> std::uint64_t {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < per_round; ++i)
      ids[static_cast<std::size_t>(i)] =
          *service.submit(mats[static_cast<std::size_t>(i)].view(), ropt);
    for (int i = 0; i < per_round; ++i) {
      evd::RequestResult r = service.wait(ids[static_cast<std::size_t>(i)]);
      if (!r.status.ok()) ADD_FAILURE() << r.status.to_string();
    }
    return g_heap_allocs.load(std::memory_order_relaxed) - before;
  };

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

}  // namespace
}  // namespace tcevd
