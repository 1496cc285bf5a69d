// Kernel-family tests (ctest label `kernels`; also in the ASan/TSan nets):
//  * KernelDispatch — runtime CPU dispatch plumbing: hardware probe,
//    env/option/test-override forcing, clean scalar fallback.
//  * KernelPrimitive — the three simdops primitives produce BIT-IDENTICAL
//    results at every SIMD level (the contract cpu_dispatch.h documents),
//    across run lengths covering every vector/tail split.
//  * KernelEquivalence — property tests: the adaptive and forced-dense
//    push kernels land within eps of the power-iteration oracle and
//    within 2*eps of PushIterationOpt, dense rounds actually fire, the
//    scalar and SIMD engines agree bitwise, and the one-thread signed
//    run matches a plain reference loop bit for bit under deletions.
//  * FrontierDense — the dense bitvector frontier mode's conversions.
//  * NumaTopology — cpulist parsing and ScopedNodeBinding's no-op and
//    restore guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/power_iteration.h"
#include "core/cpu_dispatch.h"
#include "core/dynamic_ppr.h"
#include "core/frontier.h"
#include "core/invariant.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"
#include "util/macros.h"
#include "util/numa.h"
#include "util/parallel.h"
#include "util/random.h"

namespace dppr {
namespace {

// libgomp's team barriers are invisible to TSan (the reason ci/run_tsan.sh
// pins OMP_NUM_THREADS=1): an OpenMP join would report false races between
// worker reads and post-join writes. Under TSan the equivalence tests run
// their teams at 1 thread; the regular and ASan jobs cover the parallel
// grains.
constexpr int kTeamThreads = DPPR_TSAN_BUILD ? 1 : 4;

// ------------------------------------------------------ KernelDispatch

class KernelDispatchTest : public testing::Test {
 protected:
  void TearDown() override {
    ClearSimdOverrideForTest();
    unsetenv("DPPR_FORCE_SCALAR_KERNELS");
  }
};

TEST_F(KernelDispatchTest, HardwareLevelIsStableAndNamed) {
  const SimdLevel hw = HardwareSimdLevel();
  EXPECT_EQ(hw, HardwareSimdLevel());  // cached probe
  EXPECT_STRNE(SimdLevelName(hw), "");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST_F(KernelDispatchTest, EnvVarForcesScalar) {
  setenv("DPPR_FORCE_SCALAR_KERNELS", "1", /*overwrite=*/1);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // "0" and absence both mean no forcing — back to hardware detection.
  setenv("DPPR_FORCE_SCALAR_KERNELS", "0", /*overwrite=*/1);
  EXPECT_EQ(ActiveSimdLevel(), HardwareSimdLevel());
  unsetenv("DPPR_FORCE_SCALAR_KERNELS");
  EXPECT_EQ(ActiveSimdLevel(), HardwareSimdLevel());
}

TEST_F(KernelDispatchTest, TestOverrideClampsToHardware) {
  SetSimdOverrideForTest(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // Forcing a level the CPU lacks must degrade to scalar, never crash.
  SetSimdOverrideForTest(SimdLevel::kAvx2);
  EXPECT_EQ(ActiveSimdLevel(), HardwareSimdLevel());
  ClearSimdOverrideForTest();
  EXPECT_EQ(ActiveSimdLevel(), HardwareSimdLevel());
}

TEST_F(KernelDispatchTest, EnvBeatsTestOverride) {
  SetSimdOverrideForTest(SimdLevel::kAvx2);
  setenv("DPPR_FORCE_SCALAR_KERNELS", "1", /*overwrite=*/1);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

// ----------------------------------------------------- KernelPrimitive

// Every n in [0, 67] crosses the 4-lane vector/tail boundary somewhere;
// the primitives must agree bitwise at each split.
TEST(KernelPrimitiveTest, BitwiseAgreementAcrossLengths) {
  const SimdLevel hw = HardwareSimdLevel();
  if (hw == SimdLevel::kScalar) {
    GTEST_SKIP() << "no SIMD level to compare against on this machine";
  }
  Rng rng(4242);
  for (int64_t n = 0; n <= 67; ++n) {
    std::vector<double> r(static_cast<size_t>(n));
    std::vector<uint8_t> flags(static_cast<size_t>(n));
    std::vector<VertexId> idx(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      r[static_cast<size_t>(i)] =
          (static_cast<double>(rng.NextBounded(2000)) - 1000.0) * 1e-5;
      flags[static_cast<size_t>(i)] = rng.NextBounded(2) != 0 ? 1 : 0;
      idx[static_cast<size_t>(i)] =
          static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(n)));
    }

    std::vector<double> w_scalar(static_cast<size_t>(n)),
        w_simd(static_cast<size_t>(n));
    simdops::BuildMaskedResiduals(SimdLevel::kScalar, flags.data(), r.data(),
                                  w_scalar.data(), n);
    simdops::BuildMaskedResiduals(hw, flags.data(), r.data(), w_simd.data(),
                                  n);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(w_scalar[static_cast<size_t>(i)],
                w_simd[static_cast<size_t>(i)])
          << "n=" << n << " i=" << i;
    }

    const double sum_scalar =
        simdops::GatherSum(SimdLevel::kScalar, w_scalar.data(), idx.data(), n);
    const double sum_simd =
        simdops::GatherSum(hw, w_scalar.data(), idx.data(), n);
    ASSERT_EQ(sum_scalar, sum_simd) << "GatherSum n=" << n;  // bitwise

    std::vector<double> p_scalar(static_cast<size_t>(n), 0.25),
        p_simd(static_cast<size_t>(n), 0.25);
    std::vector<double> r_scalar = r, r_simd = r;
    std::vector<uint8_t> next_scalar(static_cast<size_t>(n), 2),
        next_simd(static_cast<size_t>(n), 2);
    const int64_t c_scalar = simdops::SelfUpdateAndFlag(
        SimdLevel::kScalar, p_scalar.data(), r_scalar.data(), w_scalar.data(),
        0.15, 1e-4, /*positive_phase=*/true, next_scalar.data(), 0, n);
    const int64_t c_simd = simdops::SelfUpdateAndFlag(
        hw, p_simd.data(), r_simd.data(), w_scalar.data(), 0.15, 1e-4,
        /*positive_phase=*/true, next_simd.data(), 0, n);
    ASSERT_EQ(c_scalar, c_simd) << "flag count n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      const auto s = static_cast<size_t>(i);
      ASSERT_EQ(p_scalar[s], p_simd[s]) << "p n=" << n << " i=" << i;
      ASSERT_EQ(r_scalar[s], r_simd[s]) << "r n=" << n << " i=" << i;
      ASSERT_EQ(next_scalar[s], next_simd[s]) << "flag n=" << n << " i=" << i;
    }
  }
}

TEST(KernelPrimitiveTest, SelfUpdateWritesEveryFlagAndCounts) {
  // The contract: flags are written for EVERY v in [lo, hi) — callers
  // never pre-clear the next dense frontier — and the return value is the
  // number set. Run at both phases and an interior [lo, hi) window.
  constexpr int64_t kN = 64;
  for (SimdLevel level : {SimdLevel::kScalar, HardwareSimdLevel()}) {
    for (bool positive : {true, false}) {
      std::vector<double> p(kN, 0.0), r(kN), w(kN);
      std::vector<uint8_t> flags(kN, 7);  // poison: must be overwritten
      for (int64_t i = 0; i < kN; ++i) {
        // Alternate signs so both phases see violations.
        w[static_cast<size_t>(i)] = (i % 2 == 0 ? 1.0 : -1.0) * 1e-3;
        r[static_cast<size_t>(i)] = 2.0 * w[static_cast<size_t>(i)];
      }
      const int64_t lo = 5, hi = 61;
      const int64_t count = simdops::SelfUpdateAndFlag(
          level, p.data(), r.data(), w.data(), 0.2, 1e-4, positive,
          flags.data(), lo, hi);
      int64_t recount = 0;
      for (int64_t i = lo; i < hi; ++i) {
        const uint8_t f = flags[static_cast<size_t>(i)];
        ASSERT_TRUE(f == 0 || f == 1) << "unwritten flag at " << i;
        recount += f;
        // r - w alternates sign: after the update exactly the matching
        // phase's vertices violate the threshold.
        ASSERT_EQ(f == 1, positive == (i % 2 == 0)) << "flag value at " << i;
      }
      EXPECT_EQ(count, recount);
      EXPECT_EQ(flags[0], 7);   // outside [lo, hi): untouched
      EXPECT_EQ(flags[63], 7);
    }
  }
}

// ---------------------------------------------------- KernelEquivalence

DynamicGraph KernelTestGraph(int kind) {
  switch (kind) {
    case 0:
      return DynamicGraph::FromEdges(GenerateErdosRenyi(512, 4096, 77), 512);
    case 1:
      return DynamicGraph::FromEdges(
          GenerateRmat({.scale = 9, .avg_degree = 10, .seed = 78}), 1 << 9);
    default:
      return StarGraph(512);
  }
}

PprOptions KernelOptions() {
  PprOptions options;
  options.alpha = 0.15;
  options.eps = 1e-6;
  options.variant = PushVariant::kAdaptive;
  return options;
}

// Forced-dense (every non-empty round takes the pull sweep) matches the
// oracle and actually runs dense rounds, on every graph family and with
// parallel rounds.
TEST(KernelEquivalenceTest, ForcedDenseMatchesOracle) {
  for (int kind = 0; kind < 3; ++kind) {
    for (int threads : {1, kTeamThreads}) {
      ScopedNumThreads guard(threads);
      DynamicGraph g = KernelTestGraph(kind);
      PprOptions options = KernelOptions();
      options.dense_threshold_den = int64_t{1} << 60;  // m/den == 0: dense
      DynamicPpr ppr(&g, 0, options);
      ppr.Initialize();
      EXPECT_GT(ppr.last_stats().counters.dense_rounds, 0)
          << "kind=" << kind << " threads=" << threads;
      EXPECT_LE(ppr.state().MaxAbsResidual(), options.eps);
      PowerIterationOptions opt;
      opt.alpha = options.alpha;
      const auto truth = PowerIterationPpr(g, 0, opt);
      EXPECT_LE(MaxAbsError(ppr.Estimates(), truth), options.eps * 1.0001)
          << "kind=" << kind << " threads=" << threads;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        ASSERT_NEAR(InvariantDefect(g, 0, v, options.alpha, ppr.state().p,
                                    ppr.state().r),
                    0.0, 1e-9);
      }
    }
  }
}

// den=0 disables the switch: adaptive degrades to exactly PushIterationOpt
// (same estimates bit for bit at one thread, zero dense rounds).
TEST(KernelEquivalenceTest, ZeroDenominatorDisablesDense) {
  ScopedNumThreads one(1);
  DynamicGraph g = KernelTestGraph(1);
  PprOptions options = KernelOptions();
  options.dense_threshold_den = 0;
  DynamicPpr adaptive(&g, 0, options);
  adaptive.Initialize();
  EXPECT_EQ(adaptive.last_stats().counters.dense_rounds, 0);

  options.variant = PushVariant::kOpt;
  DynamicPpr opt(&g, 0, options);
  opt.Initialize();
  ASSERT_EQ(adaptive.Estimates().size(), opt.Estimates().size());
  for (size_t v = 0; v < opt.Estimates().size(); ++v) {
    ASSERT_EQ(adaptive.Estimates()[v], opt.Estimates()[v]) << "v=" << v;
  }
}

// Adaptive vs opt under sliding-window maintenance: both are
// eps-approximations of the same vector, so they differ by at most 2 eps
// at every vertex after every slide — and adaptive does go dense.
TEST(KernelEquivalenceTest, AdaptiveTracksOptUnderMaintenance) {
  ScopedNumThreads guard(kTeamThreads);
  DynamicGraph base = KernelTestGraph(1);
  EdgeStream stream = EdgeStream::RandomPermutation(base.ToEdgeList(), 99);
  SlidingWindow window(&stream, 0.4);
  DynamicGraph g_opt =
      DynamicGraph::FromEdges(window.InitialEdges(), base.NumVertices());
  DynamicGraph g_adp = g_opt;
  PprOptions options = KernelOptions();
  options.eps = 1e-5;
  options.variant = PushVariant::kOpt;
  DynamicPpr opt(&g_opt, 1, options);
  options.variant = PushVariant::kAdaptive;
  DynamicPpr adaptive(&g_adp, 1, options);
  opt.Initialize();
  adaptive.Initialize();
  int64_t dense_rounds = adaptive.last_stats().counters.dense_rounds;
  const EdgeCount k = std::max<EdgeCount>(window.WindowSize() / 20, 1);
  for (int slide = 0; slide < 4 && window.CanSlide(k); ++slide) {
    const UpdateBatch batch = window.NextBatch(k);
    opt.ApplyBatch(batch);
    adaptive.ApplyBatch(batch);
    dense_rounds += adaptive.last_stats().counters.dense_rounds;
    ASSERT_LE(adaptive.state().MaxAbsResidual(), options.eps);
    ASSERT_LE(MaxAbsError(adaptive.Estimates(), opt.Estimates()),
              2.0 * options.eps)
        << "slide " << slide;
  }
  EXPECT_GT(dense_rounds, 0) << "threshold never fired — not adaptive";
}

// The per-engine force_scalar_kernels option and the SIMD path must agree
// bitwise: same rounds, same gather order, contraction-free elementwise
// ops (cpu_dispatch.h's contract, applied end-to-end through a real push).
TEST(KernelEquivalenceTest, ScalarAndSimdEnginesAgreeBitwise) {
  if (HardwareSimdLevel() == SimdLevel::kScalar) {
    GTEST_SKIP() << "no SIMD level to compare against on this machine";
  }
  for (int threads : {1, kTeamThreads}) {
    ScopedNumThreads guard(threads);
    DynamicGraph g_scalar = KernelTestGraph(0);
    DynamicGraph g_simd = g_scalar;
    PprOptions options = KernelOptions();
    options.dense_threshold_den = int64_t{1} << 60;  // all-dense rounds
    options.force_scalar_kernels = true;
    DynamicPpr scalar(&g_scalar, 0, options);
    options.force_scalar_kernels = false;
    DynamicPpr simd(&g_simd, 0, options);
    scalar.Initialize();
    simd.Initialize();
    EXPECT_EQ(scalar.last_stats().counters.iterations,
              simd.last_stats().counters.iterations);
    ASSERT_EQ(scalar.Estimates().size(), simd.Estimates().size());
    for (size_t v = 0; v < scalar.Estimates().size(); ++v) {
      ASSERT_EQ(scalar.Estimates()[v], simd.Estimates()[v])
          << "threads=" << threads << " v=" << v;
      ASSERT_EQ(scalar.Residuals()[v], simd.Residuals()[v])
          << "threads=" << threads << " v=" << v;
    }
  }
}

// The one-thread signed run (ParallelPushEngine::RunSigned, the push of
// every serving path) written as plainly as possible: kOpt's two sessions
// per round over a std::vector frontier, |r| > eps as the push and enqueue
// test, counters bumped where the work happens.
struct ReferenceCounts {
  int64_t push_ops = 0;
  int64_t edge_traversals = 0;
  int64_t enqueued = 0;
  int64_t iterations = 0;
};

void ReferenceSignedPush(const DynamicGraph& g, PprState* s, double alpha,
                         double eps, const std::vector<VertexId>& touched,
                         ReferenceCounts* c) {
  s->Resize(g.NumVertices());
  std::vector<uint8_t> queued(static_cast<size_t>(g.NumVertices()), 0);
  std::vector<VertexId> frontier, next;
  auto enqueue = [&](VertexId v, std::vector<VertexId>* out) {
    if (queued[v] == 0 && std::abs(s->r[v]) > eps) {
      queued[v] = 1;
      out->push_back(v);
    }
  };
  for (VertexId u : touched) enqueue(u, &frontier);
  while (!frontier.empty()) {
    ++c->iterations;
    std::vector<double> w(frontier.size(), 0.0);
    for (size_t i = 0; i < frontier.size(); ++i) {
      const double ru = s->r[frontier[i]];
      if (std::abs(ru) <= eps) continue;
      w[i] = ru;
      ++c->push_ops;
      for (VertexId v : g.InNeighbors(frontier[i])) {
        s->r[v] += (1.0 - alpha) * ru / static_cast<double>(g.OutDegree(v));
        ++c->edge_traversals;
        enqueue(v, &next);
      }
    }
    for (size_t i = 0; i < frontier.size(); ++i) {
      const VertexId u = frontier[i];
      s->p[u] += alpha * w[i];
      s->r[u] -= w[i];
      if (std::abs(s->r[u]) > eps) {
        next.push_back(u);
      } else {
        queued[u] = 0;
      }
    }
    c->enqueued += static_cast<int64_t>(next.size());
    frontier.swap(next);
    next.clear();
  }
}

// The engine's signed run is pinned BITWISE to the reference loop above
// through an initialization and 8 sliding-window batches whose deletions
// drive residuals negative: same estimates, same residuals, same work.
TEST(KernelEquivalenceTest, SignedRunMatchesReferenceLoopUnderDeletions) {
  constexpr uint64_t kSeed = 83;
  SCOPED_TRACE(testing::Message() << "seed=" << kSeed);
  auto edges = GenerateRmat({.scale = 9, .avg_degree = 8, .seed = kSeed});
  EdgeStream stream =
      EdgeStream::RandomPermutation(std::move(edges), kSeed + 1);
  SlidingWindow window(&stream, 0.5);
  DynamicGraph g_engine =
      DynamicGraph::FromEdges(window.InitialEdges(), stream.NumVertices());
  DynamicGraph g_ref = g_engine;
  PprOptions options = KernelOptions();
  const VertexId source = 1;
  DynamicPpr ppr(&g_engine, source, options);
  ppr.SetSignedPush(true);
  PprState ref(source, g_ref.NumVertices());

  auto expect_same = [&](const std::string& when,
                         const ReferenceCounts& counts) {
    const PushCounters& c = ppr.last_stats().counters;
    EXPECT_EQ(c.push_ops, counts.push_ops) << when;
    EXPECT_EQ(c.edge_traversals, counts.edge_traversals) << when;
    EXPECT_EQ(c.enqueued, counts.enqueued) << when;
    EXPECT_EQ(c.iterations, counts.iterations) << when;
    EXPECT_EQ(ppr.last_stats().neg_iterations, 0) << when;
    ASSERT_EQ(ppr.Estimates().size(), ref.p.size()) << when;
    for (size_t v = 0; v < ref.p.size(); ++v) {
      ASSERT_EQ(ppr.Estimates()[v], ref.p[v]) << when << " v=" << v;
      ASSERT_EQ(ppr.Residuals()[v], ref.r[v]) << when << " v=" << v;
    }
  };

  ppr.Initialize();
  ReferenceCounts counts;
  ref.ResetToUnitResidual();
  ReferenceSignedPush(g_ref, &ref, options.alpha, options.eps, {source},
                      &counts);
  expect_same("initialize", counts);

  const EdgeCount k = std::max<EdgeCount>(window.WindowSize() / 25, 1);
  int deletions = 0;
  for (int slide = 0; slide < 8; ++slide) {
    ASSERT_TRUE(window.CanSlide(k));
    const UpdateBatch batch = window.NextBatch(k);
    ppr.ApplyBatch(batch);
    std::vector<VertexId> touched;
    for (const EdgeUpdate& update : batch) {
      g_ref.Apply(update);
      RestoreInvariant(g_ref, &ref, update, options.alpha);
      touched.push_back(update.u);
      deletions += update.op == UpdateOp::kDelete ? 1 : 0;
    }
    counts = ReferenceCounts();
    ReferenceSignedPush(g_ref, &ref, options.alpha, options.eps, touched,
                        &counts);
    expect_same("slide " + std::to_string(slide), counts);
    ASSERT_LE(ppr.state().MaxAbsResidual(), options.eps);
  }
  EXPECT_GT(deletions, 0);
}

// --------------------------------------------------------- FrontierDense

TEST(FrontierDenseTest, ConvertRoundTripPreservesMembership) {
  Frontier f(/*num_threads=*/2);
  f.EnsureCapacity(100);
  // Stage {3, 7, 42} through the normal sparse path.
  f.Enqueue(0, 3);
  f.Enqueue(1, 7);
  f.Enqueue(0, 42);
  f.FlushToCurrent();
  ASSERT_EQ(f.CurrentSize(), 3);
  ASSERT_EQ(f.mode(), FrontierMode::kSparse);

  f.ConvertToDense(100);
  EXPECT_EQ(f.mode(), FrontierMode::kDense);
  EXPECT_EQ(f.CurrentSize(), 3);
  const uint8_t* flags = f.DenseCurrent();
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(flags[v] != 0, v == 3 || v == 7 || v == 42) << "v=" << v;
  }

  f.ConvertToSparse();
  EXPECT_EQ(f.mode(), FrontierMode::kSparse);
  ASSERT_EQ(f.CurrentSize(), 3);
  // Packing is ascending by construction.
  EXPECT_EQ(f.Current()[0], 3);
  EXPECT_EQ(f.Current()[1], 7);
  EXPECT_EQ(f.Current()[2], 42);
}

TEST(FrontierDenseTest, DenseFlushAdoptsNextFlags) {
  Frontier f(/*num_threads=*/1);
  f.EnsureCapacity(64);
  f.Enqueue(0, 5);
  f.FlushToCurrent();
  f.ConvertToDense(64);

  uint8_t* next = f.DenseNext();
  std::memset(next, 0, 64);
  next[9] = 1;
  next[33] = 1;
  f.SetDenseNextSize(2);
  f.FlushToCurrent();
  EXPECT_EQ(f.mode(), FrontierMode::kDense);
  EXPECT_EQ(f.CurrentSize(), 2);
  EXPECT_TRUE(f.DenseCurrent()[9] != 0);
  EXPECT_TRUE(f.DenseCurrent()[33] != 0);
  EXPECT_TRUE(f.DenseCurrent()[5] == 0);

  f.Clear();
  EXPECT_EQ(f.mode(), FrontierMode::kSparse);
  EXPECT_EQ(f.CurrentSize(), 0);
}

// ---------------------------------------------------------- NumaTopology

TEST(NumaTopologyTest, ParseCpuList) {
  using numa::ParseCpuList;
  EXPECT_EQ(ParseCpuList("0"), (std::vector<int>{0}));
  EXPECT_EQ(ParseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ParseCpuList("0-2,8,10-11"),
            (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(ParseCpuList("3,1,1-2"), (std::vector<int>{1, 2, 3}));  // dedup
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("a-b").empty());
  EXPECT_TRUE(ParseCpuList("4-2").empty());   // inverted range
  EXPECT_TRUE(ParseCpuList("-3").empty());    // negative
  EXPECT_TRUE(ParseCpuList("1,,2").empty());  // empty element
}

TEST(NumaTopologyTest, TopologyIsSane) {
  const numa::Topology& topo = numa::GetTopology();
  ASSERT_GE(topo.NumNodes(), 1);
  if (topo.IsMultiNode()) {
    for (const auto& cpus : topo.node_cpus) EXPECT_FALSE(cpus.empty());
  }
}

TEST(NumaTopologyTest, ScopedBindingNoOpCases) {
  {
    numa::ScopedNodeBinding bind(-1);  // "no node": the pool's off switch
    EXPECT_FALSE(bind.bound());
  }
  {
    numa::ScopedNodeBinding bind(1 << 20);  // out of range: no-op
    EXPECT_FALSE(bind.bound());
  }
  // Node 0 binds only on a genuinely multi-node machine; either way the
  // destructor must leave the thread runnable (the loop below executes).
  {
    numa::ScopedNodeBinding bind(0);
    EXPECT_EQ(bind.bound(), numa::GetTopology().IsMultiNode());
  }
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink += static_cast<double>(i);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace dppr
