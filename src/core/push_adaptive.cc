// Direction-adaptive push: the Ligra-style dense/sparse switch layered
// over Algorithm 4.
//
// Sparse iterations delegate to PushIterationOpt (frontier list, atomic
// scatter along in-neighbors). Once the frontier's work estimate —
// |frontier| plus the sum of frontier in-degrees — exceeds
// |E| / dense_threshold_den, the iteration flips to a dense PULL sweep:
// the scatter r[v] += (1-a) * r[u] / dout(v) over every frontier edge
// (u, v in InNeighbors(u)) regroups, per destination v, into
//
//   r[v] += (1-a) / dout(v) * sum over u in OutNeighbors(v) of w[u]
//
// where w is the iteration-start masked residual snapshot (w[u] = r[u] if
// u is in the frontier, else exactly 0, so the gather needs no membership
// branch). Each destination has a single writer, which removes every
// atomic the sparse direction pays for, hoists the per-edge divide to one
// per receiver, and turns the next-frontier generation into a full flag
// sweep (correct because the frontier is by definition the set of
// threshold-violating vertices). The sweeps run in kDenseGrain grains so
// concurrent flag writes never share a cache line, and bottom out in the
// runtime-dispatched SIMD primitives of core/cpu_dispatch.h.
//
// Only team runs reach this kernel. A push nested in an enclosing
// parallel region (PprIndex's across-source push) runs on one thread, and
// ParallelPushEngine::Run gives it the engine's own signed one-phase loop
// instead of any round kernel, so no direction switch applies to it: the
// dense sweep pays off by removing the atomics of a round a team shares,
// and a one-thread push has none to remove.

#include <algorithm>
#include <atomic>

#include "core/cpu_dispatch.h"
#include "core/push_kernels.h"

namespace dppr {
namespace {

SimdLevel KernelSimdLevel(const PushContext& ctx) {
  if (ctx.options != nullptr && ctx.options->force_scalar_kernels) {
    return SimdLevel::kScalar;
  }
  return ActiveSimdLevel();
}

/// Does |frontier| + sum of frontier in-degrees exceed `budget`? The
/// in-degree sum is the edge count a sparse iteration would traverse;
/// the scan early-exits at the first proof of excess.
bool FrontierWorkExceeds(const DynamicGraph& g, const Frontier& f,
                         int64_t budget) {
  int64_t work = f.CurrentSize();
  if (work > budget) return true;
  if (f.mode() == FrontierMode::kDense) {
    const VertexId n = g.NumVertices();
    const uint8_t* const cur = f.DenseCurrent();
    for (VertexId v = 0; v < n; ++v) {
      if (cur[static_cast<size_t>(v)] == 0) continue;
      work += g.InDegree(v);
      if (work > budget) return true;
    }
    return false;
  }
  for (VertexId u : f.Current()) {
    work += g.InDegree(u);
    if (work > budget) return true;
  }
  return false;
}

}  // namespace

void PushIterationDense(const PushContext& ctx) {
  Frontier& f = *ctx.frontier;
  DPPR_CHECK(f.mode() == FrontierMode::kDense);
  const DynamicGraph& g = *ctx.graph;
  const auto n = static_cast<int64_t>(g.NumVertices());
  auto& w = ctx.scratch->dense_w;
  w.resize(static_cast<size_t>(n));
  double* const r = ctx.state->r.data();
  double* const p = ctx.state->p.data();
  const uint8_t* const cur = f.DenseCurrent();
  uint8_t* const next = f.DenseNext();
  const double scale = 1.0 - ctx.alpha;
  const bool positive = ctx.phase == Phase::kPos;
  const SimdLevel level = KernelSimdLevel(ctx);
  const bool par = ctx.parallel_round;
  const int64_t num_grains = (n + kDenseGrain - 1) / kDenseGrain;

  ctx.counters->Local(0).push_ops += f.CurrentSize();

  // Pass 1 — bulk-synchronous residual snapshot. Every pull below reads
  // the same w regardless of scheduling, so the barrier between passes is
  // what makes the dense direction deterministic.
  internal::ForEachFrontierIndex(num_grains, par, [&](int64_t gi, int) {
    const int64_t lo = gi * kDenseGrain;
    const int64_t hi = std::min(n, lo + kDenseGrain);
    simdops::BuildMaskedResiduals(level, cur + lo, r + lo, w.data() + lo,
                                  hi - lo);
  });

  // Pass 2 — fused pull + self-update + next-frontier flags. r[v], p[v]
  // and next[v] are written only by the grain owning v, and the pass reads
  // only the immutable snapshot w: no atomics, no races.
  std::atomic<int64_t> next_size{0};
  internal::ForEachFrontierIndex(num_grains, par, [&](int64_t gi, int tid) {
    const int64_t lo = gi * kDenseGrain;
    const int64_t hi = std::min(n, lo + kDenseGrain);
    PushCounters& c = ctx.counters->Local(tid);
    for (int64_t v = lo; v < hi; ++v) {
      const auto nbrs = g.OutNeighbors(static_cast<VertexId>(v));
      const auto deg = static_cast<int64_t>(nbrs.size());
      if (v + 1 < hi) {
        const auto ahead = g.OutNeighbors(static_cast<VertexId>(v + 1));
        if (!ahead.empty()) PrefetchRead(ahead.data());
      }
      if (deg == 0) continue;
      c.edge_traversals += deg;
      const double sum = simdops::GatherSum(level, w.data(), nbrs.data(), deg);
      if (sum != 0.0) {
        r[v] += scale * sum / static_cast<double>(deg);
      }
    }
    const int64_t flagged = simdops::SelfUpdateAndFlag(
        level, p, r, w.data(), ctx.alpha, ctx.eps, positive, next, lo, hi);
    c.enqueue_attempts += flagged;
    c.enqueued += flagged;
    next_size.fetch_add(flagged, std::memory_order_relaxed);
  });
  f.SetDenseNextSize(next_size.load(std::memory_order_relaxed));
}

void PushIterationAdaptive(const PushContext& ctx) {
  Frontier& f = *ctx.frontier;
  const DynamicGraph& g = *ctx.graph;
  const int64_t den = ctx.options != nullptr
                          ? ctx.options->dense_threshold_den
                          : PprOptions{}.dense_threshold_den;
  const auto m = static_cast<int64_t>(g.NumEdges());
  // den == 0 disables the dense direction; a huge den makes |E|/den zero,
  // forcing dense for any non-empty frontier (the test/bench knob).
  const bool want_dense =
      den > 0 && m > 0 && FrontierWorkExceeds(g, f, m / den);
  if (want_dense && f.mode() == FrontierMode::kSparse) {
    f.ConvertToDense(g.NumVertices());
  } else if (!want_dense && f.mode() == FrontierMode::kDense) {
    f.ConvertToSparse();
  }
  if (f.mode() == FrontierMode::kDense) {
    ++ctx.counters->Local(0).dense_rounds;
    PushIterationDense(ctx);
  } else {
    PushIterationOpt(ctx);
  }
}

}  // namespace dppr
