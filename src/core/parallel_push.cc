#include "core/parallel_push.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dppr {

void PushStats::Add(const PushStats& other) {
  counters.Add(other.counters);
  pos_iterations += other.pos_iterations;
  neg_iterations += other.neg_iterations;
  restore_seconds += other.restore_seconds;
  push_seconds += other.push_seconds;
  total_residual_change += other.total_residual_change;
  frontier_trace.insert(frontier_trace.end(), other.frontier_trace.begin(),
                        other.frontier_trace.end());
}

ParallelPushEngine::ParallelPushEngine(const PprOptions& options,
                                       int max_threads)
    : options_(options),
      frontier_(max_threads),
      thread_counters_(max_threads) {
  DPPR_CHECK(options.Validate().ok());
  DPPR_CHECK(options.variant != PushVariant::kSequential);
  // kEager consults current-frontier membership during propagation (see
  // push_eager.cc); the other variants don't pay for the tracking.
  frontier_.SetTrackCurrent(options.variant == PushVariant::kEager);
}

int64_t ParallelPushEngine::InitFrontier(const DynamicGraph& g,
                                         const PprState& state, Phase phase,
                                         std::span<const VertexId> touched) {
  frontier_.Clear();
  const double eps = options_.eps;
  if (options_.full_scan_frontier_init) {
    // Algorithm 3 line 1 verbatim: FQ = {u in V | pushCond(Rs(u), phase)}.
    const VertexId n = g.NumVertices();
    internal::ForEachFrontierIndex(
        n, /*parallel=*/n >= 4096, [&](int64_t v, int tid) {
          if (PushCond(state.r[static_cast<size_t>(v)], eps, phase)) {
            frontier_.Enqueue(tid, static_cast<VertexId>(v));
          }
        });
  } else {
    // Batch-local seeding: only residuals RestoreInvariant changed can
    // violate the threshold (the state was converged before the batch).
    // `touched` may contain duplicates, so deduplicate via the flags.
    for (VertexId u : touched) {
      if (PushCond(state.r[static_cast<size_t>(u)], eps, phase)) {
        frontier_.UniqueEnqueue(0, u);
      }
    }
  }
  return frontier_.FlushToCurrent();
}

namespace {

// Below `min_work` estimated edge traversals the OpenMP fork/join plus
// atomic arithmetic cost more than one thread doing the round with plain
// adds (the small-frontier problem of §3.1). Above it, memory parallelism
// wins. The degree scan early-exits, and very large frontiers skip it.
constexpr int64_t kParallelRoundMaxScan = 65536;

bool ShouldParallelizeRound(const DynamicGraph& g,
                            std::span<const VertexId> frontier,
                            int64_t min_work) {
  if (NumThreads() == 1) return false;
  const auto n = static_cast<int64_t>(frontier.size());
  if (n >= kParallelRoundMaxScan || n >= min_work) return true;
  int64_t work = n;
  for (VertexId u : frontier) {
    work += g.InDegree(u);
    if (work >= min_work) return true;
  }
  return false;
}

// Per-round accounting shared by both run shapes.
void RecordRound(const PprOptions& options, int64_t frontier_size,
                 PushStats* stats) {
  if (options.record_iteration_trace) {
    stats->frontier_trace.push_back(frontier_size);
  }
  ++stats->counters.iterations;
  stats->counters.frontier_total += frontier_size;
  stats->counters.frontier_max =
      std::max(stats->counters.frontier_max, frontier_size);
}

}  // namespace

void ParallelPushEngine::RunPhase(const DynamicGraph& g, PprState* state,
                                  Phase phase,
                                  std::span<const VertexId> touched,
                                  PushStats* stats) {
  int64_t frontier_size = InitFrontier(g, *state, phase, touched);
  PushContext ctx;
  ctx.graph = &g;
  ctx.state = state;
  ctx.alpha = options_.alpha;
  ctx.eps = options_.eps;
  ctx.phase = phase;
  ctx.frontier = &frontier_;
  ctx.scratch = &scratch_;
  ctx.counters = &thread_counters_;
  ctx.options = &options_;

  while (frontier_size > 0) {
    if (frontier_.mode() == FrontierMode::kDense) {
      // Dense rounds (adaptive kernel) have no sparse list to scan, are
      // only entered past the direction threshold — far beyond any
      // sensible min_work — and use no atomics, so a team is always worth
      // forking when one exists.
      ctx.parallel_round = options_.force_parallel_rounds || NumThreads() > 1;
    } else {
      ctx.parallel_round =
          options_.force_parallel_rounds ||
          ShouldParallelizeRound(g, frontier_.Current(),
                                 options_.parallel_round_min_work);
    }
    RecordRound(options_, frontier_size, stats);
    if (phase == Phase::kPos) {
      ++stats->pos_iterations;
    } else {
      ++stats->neg_iterations;
    }

    switch (options_.variant) {
      case PushVariant::kVanilla:
        PushIterationVanilla(ctx);
        break;
      case PushVariant::kEager:
        PushIterationEager(ctx);
        break;
      case PushVariant::kDupDetect:
        PushIterationDupDetect(ctx);
        break;
      case PushVariant::kOpt:
        PushIterationOpt(ctx);
        break;
      case PushVariant::kSortAggregate:
        PushIterationSortAggregate(ctx);
        break;
      case PushVariant::kAdaptive:
        PushIterationAdaptive(ctx);
        break;
      case PushVariant::kSequential:
        DPPR_CHECK_MSG(false, "sequential variant has no parallel kernel");
    }
    frontier_size = frontier_.FlushToCurrent();
  }
}

void ParallelPushEngine::Run(const DynamicGraph& g, PprState* state,
                             std::span<const VertexId> touched,
                             PushStats* stats) {
  if (InParallelRegion()) {
    RunSigned(g, state, touched, stats);
    return;
  }
  DPPR_CHECK(state != nullptr && stats != nullptr);
  state->Resize(g.NumVertices());
  frontier_.EnsureCapacity(g.NumVertices());
  frontier_.EnsureThreads(NumThreads());
  thread_counters_.EnsureThreads(NumThreads());
  thread_counters_.Reset();

  WallTimer timer;
  RunPhase(g, state, Phase::kPos, touched, stats);
  RunPhase(g, state, Phase::kNeg, touched, stats);
  stats->push_seconds += timer.Seconds();

  PushCounters aggregated = thread_counters_.Aggregate();
  // 24B per edge traversal (target id + degree read + residual RMW) and
  // 16B per push (estimate + residual of the frontier vertex): the
  // random-access traffic proxy for the Fig. 9 locality discussion.
  aggregated.random_bytes =
      24 * aggregated.edge_traversals + 16 * aggregated.push_ops;
  stats->counters.Add(aggregated);
}

// One thread, one signed phase: kOpt's round structure with |r| > eps as
// the push condition. Residuals are no longer monotone within a round, so
// "crossed the threshold on this increment" no longer proves a vertex is
// not queued yet; queued_ answers that instead. Every push moves at least
// eps of residual mass (pushes of a residual that cancelled down to
// |r| <= eps before its turn are skipped), so Σ|r|·w for PageRank-weighted
// w falls by at least alpha*eps per push and the run terminates.
//
// The per-edge loop has no data-dependent branch: an enqueue always
// writes the candidate at next[tail] and advances tail by the 0/1 test
// result, so a rejected candidate is overwritten by the next one.
void ParallelPushEngine::RunSigned(const DynamicGraph& g, PprState* state,
                                   std::span<const VertexId> touched,
                                   PushStats* stats) {
  DPPR_CHECK(state != nullptr && stats != nullptr);
  state->Resize(g.NumVertices());
  WallTimer timer;
  const auto n = static_cast<size_t>(g.NumVertices());
  if (queued_.size() < n) queued_.resize(n, 0);
  // queued_ keeps a vertex at most once in a round's next frontier, so n
  // slots hold any frontier; the extra slot takes the unconditional write
  // of a rejected candidate when all n are queued.
  if (signed_current_.size() < n + 1) {
    signed_current_.resize(n + 1);
    signed_next_.resize(n + 1);
  }
  uint8_t* const queued = queued_.data();
  VertexId* current = signed_current_.data();
  VertexId* next = signed_next_.data();
  double* const r = state->r.data();
  double* const p = state->p.data();
  const double eps = options_.eps;
  const double alpha = options_.alpha;
  size_t tail = 0;
  auto enqueue_new = [&](VertexId v) {
    const auto vi = static_cast<size_t>(v);
    const auto add =
        static_cast<uint8_t>((queued[vi] == 0) & (std::abs(r[vi]) > eps));
    queued[vi] |= add;
    next[tail] = v;
    tail += add;
  };

  if (options_.full_scan_frontier_init) {
    for (size_t v = 0; v < n; ++v) enqueue_new(static_cast<VertexId>(v));
  } else {
    for (VertexId u : touched) enqueue_new(u);
  }
  int64_t push_ops = 0, edge_traversals = 0, enqueued = 0;
  auto& w = scratch_.frontier_w;

  while (tail > 0) {
    std::swap(current, next);
    const size_t frontier_size = tail;
    tail = 0;
    RecordRound(options_, static_cast<int64_t>(frontier_size), stats);
    w.resize(frontier_size);

    // Session 1 — read each frontier vertex's fresh residual and scatter
    // it along its in-edges, enqueueing receivers that are not queued yet
    // and now violate the threshold.
    for (size_t i = 0; i < frontier_size; ++i) {
      const VertexId u = current[i];
      const double ru = r[static_cast<size_t>(u)];
      if (std::abs(ru) <= eps) {
        w[i] = 0.0;
        continue;
      }
      w[i] = ru;
      ++push_ops;
      const auto nbrs = g.InNeighbors(u);
      const auto deg = static_cast<int64_t>(nbrs.size());
      edge_traversals += deg;
      for (int64_t j = 0; j < deg; ++j) {
        if (j + kPrefetchDistance < deg) {
          PrefetchWrite(&r[static_cast<size_t>(nbrs[j + kPrefetchDistance])]);
        }
        const VertexId v = nbrs[static_cast<size_t>(j)];
        r[static_cast<size_t>(v)] +=
            (1.0 - alpha) * ru / static_cast<double>(g.OutDegree(v));
        enqueue_new(v);
      }
    }

    // Session 2 — subtract what was pushed (increments that arrived after
    // the session-1 read survive) and keep u queued while |r[u]| > eps.
    for (size_t i = 0; i < frontier_size; ++i) {
      const VertexId u = current[i];
      const auto ui = static_cast<size_t>(u);
      const double ru = w[i];
      p[ui] += alpha * ru;
      r[ui] -= ru;
      const auto keep = static_cast<uint8_t>(std::abs(r[ui]) > eps);
      queued[ui] = keep;
      next[tail] = u;
      tail += keep;
    }
    // Every next-frontier entry is one enqueue (session 1's new receivers
    // plus session 2's re-queued vertices).
    enqueued += static_cast<int64_t>(tail);
  }
  stats->push_seconds += timer.Seconds();

  PushCounters& c = stats->counters;
  c.push_ops += push_ops;
  c.edge_traversals += edge_traversals;
  c.enqueue_attempts += enqueued;
  c.enqueued += enqueued;
  c.random_bytes += 24 * edge_traversals + 16 * push_ops;
}

size_t ParallelPushEngine::ApproxScratchBytes() const {
  size_t bytes = frontier_.ApproxBytes() + queued_.capacity();
  bytes += (signed_current_.capacity() + signed_next_.capacity()) *
           sizeof(VertexId);
  bytes += scratch_.frontier_w.capacity() * sizeof(double);
  bytes += scratch_.dense_w.capacity() * sizeof(double);
  bytes += scratch_.merged_pairs.capacity() *
           sizeof(std::pair<VertexId, double>);
  for (const auto& pairs : scratch_.thread_pairs) {
    bytes += sizeof(PushScratch::ThreadPairs) +
             pairs.items.capacity() * sizeof(std::pair<VertexId, double>);
  }
  bytes += sizeof(ParallelPushEngine);
  return bytes;
}

}  // namespace dppr
