#include "estimator/walk_index.h"

#include <optional>

#include "mc/walk_repair.h"
#include "util/macros.h"
#include "util/parallel.h"

namespace dppr {

WalkIndex::WalkIndex(const WalkIndexOptions& options)
    : options_(options), store_(0) {
  DPPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  DPPR_CHECK(options.walks_per_vertex > 0);
}

void WalkIndex::Initialize(const DynamicGraph& graph) {
  const VertexId n = graph.NumVertices();
  const int wpv = options_.walks_per_vertex;
  store_ = WalkStore(n);
  num_vertices_ = n;
  walks_repaired_ = 0;
  const int64_t total = static_cast<int64_t>(n) * wpv;
  std::vector<Walk> walks(static_cast<size_t>(total));
  ParallelForChunked(0, total, 256, [&](int64_t id) {
    Rng rng = walk_repair::MakeWalkRng(options_.seed, /*epoch=*/0, id);
    int64_t steps = 0;
    walks[static_cast<size_t>(id)] = walk_repair::Simulate(
        graph, options_.alpha, static_cast<VertexId>(id / wpv), &rng, &steps);
  });
  for (int64_t id = 0; id < total; ++id) {
    store_.AddWalk(std::move(walks[static_cast<size_t>(id)]));
  }
}

void WalkIndex::ApplyUpdate(const DynamicGraph& graph,
                            const EdgeUpdate& update, uint64_t update_epoch) {
  store_.EnsureVertexCapacity(graph.NumVertices());
  // Affected walks are captured BEFORE appending walks for new vertices:
  // fresh walks are simulated on the post-update graph and must not be
  // repaired for the very update that created them.
  const std::vector<int64_t> affected = store_.WalksThrough(update.u);

  std::vector<std::optional<Walk>> replacements(affected.size());
  const auto num_affected = static_cast<int64_t>(affected.size());
  ParallelForChunked(0, num_affected, 16, [&](int64_t i) {
    const int64_t id = affected[static_cast<size_t>(i)];
    Rng rng = walk_repair::MakeWalkRng(options_.seed, update_epoch, id);
    int64_t steps = 0;
    replacements[static_cast<size_t>(i)] =
        update.op == UpdateOp::kInsert
            ? walk_repair::RepairForInsert(graph, options_.alpha,
                                           store_.GetWalk(id), update.u,
                                           update.v, &rng, &steps)
            : walk_repair::RepairForDelete(graph, options_.alpha,
                                           store_.GetWalk(id), update.u,
                                           update.v, &rng, &steps);
  });
  for (size_t i = 0; i < affected.size(); ++i) {
    if (!replacements[i].has_value()) continue;
    store_.ReplaceWalk(affected[i], std::move(*replacements[i]));
    ++walks_repaired_;
  }

  AppendWalksForNewVertices(graph, update_epoch);
}

void WalkIndex::AppendWalksForNewVertices(const DynamicGraph& graph,
                                          uint64_t update_epoch) {
  const VertexId n = graph.NumVertices();
  if (n <= num_vertices_) return;
  const int wpv = options_.walks_per_vertex;
  for (VertexId v = num_vertices_; v < n; ++v) {
    for (int w = 0; w < wpv; ++w) {
      const int64_t id = static_cast<int64_t>(v) * wpv + w;
      Rng rng = walk_repair::MakeWalkRng(options_.seed, update_epoch, id);
      int64_t steps = 0;
      const int64_t got = store_.AddWalk(
          walk_repair::Simulate(graph, options_.alpha, v, &rng, &steps));
      DPPR_CHECK(got == id);  // ids stay v * wpv + w as the graph grows
    }
  }
  num_vertices_ = n;
}

double WalkIndex::TraceSumMean(VertexId s,
                               const std::vector<double>& residuals) const {
  if (s < 0 || s >= num_vertices_) return 0.0;
  const int wpv = options_.walks_per_vertex;
  double sum = 0.0;
  for (int w = 0; w < wpv; ++w) {
    const Walk& walk = store_.GetWalk(static_cast<int64_t>(s) * wpv + w);
    for (const VertexId v : walk.trace) {
      if (static_cast<size_t>(v) < residuals.size()) {
        sum += residuals[static_cast<size_t>(v)];
      }
    }
  }
  return sum / static_cast<double>(wpv);
}

}  // namespace dppr
