#include "mc/incremental_mc.h"

#include <cmath>
#include <optional>

#include "mc/walk_repair.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dppr {

int64_t RecommendedWalkCount(double delta, double failure_prob,
                             double relative_error) {
  DPPR_CHECK(delta > 0.0 && delta < 1.0);
  DPPR_CHECK(failure_prob > 0.0 && failure_prob < 2.0);
  DPPR_CHECK(relative_error > 0.0);
  const double w = 3.0 * std::log(2.0 / failure_prob) /
                   (relative_error * relative_error * delta);
  return static_cast<int64_t>(std::ceil(w));
}

IncrementalMonteCarlo::IncrementalMonteCarlo(DynamicGraph* graph,
                                             VertexId source,
                                             const McOptions& options)
    : graph_(graph),
      source_(source),
      options_(options),
      store_(graph->NumVertices()) {
  DPPR_CHECK(graph != nullptr);
  DPPR_CHECK(graph->IsValid(source));
  DPPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  if (options_.num_walks == 0) {
    options_.num_walks = 6 * static_cast<int64_t>(graph->NumVertices());
  }
  DPPR_CHECK(options_.num_walks > 0);
}

Walk IncrementalMonteCarlo::SimulateFrom(VertexId start, Rng* rng) const {
  int64_t steps = 0;
  return walk_repair::Simulate(*graph_, options_.alpha, start, rng, &steps);
}

void IncrementalMonteCarlo::Initialize() {
  stats_.Reset();
  WallTimer timer;
  store_ = WalkStore(graph_->NumVertices());
  const int64_t w = options_.num_walks;
  std::vector<Walk> walks(static_cast<size_t>(w));
  ParallelForChunked(0, w, 256, [&](int64_t i) {
    Rng rng = walk_repair::MakeWalkRng(options_.seed, /*epoch=*/0, i);
    walks[static_cast<size_t>(i)] = SimulateFrom(source_, &rng);
  });
  for (int64_t i = 0; i < w; ++i) {
    store_.AddWalk(std::move(walks[static_cast<size_t>(i)]));
    stats_.index_updates +=
        static_cast<int64_t>(store_.GetWalk(i).trace.size());
  }
  stats_.walks_regenerated = w;
  stats_.seconds = timer.Seconds();
}

void IncrementalMonteCarlo::ApplyBatch(const UpdateBatch& batch) {
  stats_.Reset();
  WallTimer timer;
  for (const EdgeUpdate& update : batch) {
    graph_->Apply(update);
    store_.EnsureVertexCapacity(graph_->NumVertices());
    // The epoch advances for EVERY processed update, affected walks or
    // not: the RNG stream of update i must be a function of the update
    // sequence alone, so two instances fed the same updates — however
    // their batches were chopped — derive identical walks (the seed-
    // determinism contract the equivalence suites verify).
    ++epoch_;
    if (update.op == UpdateOp::kInsert) {
      HandleInsert(update);
    } else {
      HandleDelete(update);
    }
  }
  stats_.seconds = timer.Seconds();
}

void IncrementalMonteCarlo::HandleInsert(const EdgeUpdate& update) {
  const VertexId u = update.u;
  const VertexId v = update.v;
  const std::vector<int64_t> affected = store_.WalksThrough(u);
  if (affected.empty()) return;

  std::vector<std::optional<Walk>> replacements(affected.size());
  std::vector<int64_t> steps_per_walk(affected.size(), 0);
  const auto num_affected = static_cast<int64_t>(affected.size());
  ParallelForChunked(0, num_affected, 16, [&](int64_t i) {
    const int64_t id = affected[static_cast<size_t>(i)];
    Rng rng = walk_repair::MakeWalkRng(options_.seed, epoch_, id);
    replacements[static_cast<size_t>(i)] = walk_repair::RepairForInsert(
        *graph_, options_.alpha, store_.GetWalk(id), u, v, &rng,
        &steps_per_walk[static_cast<size_t>(i)]);
  });
  CommitReplacements(affected, &replacements, steps_per_walk);
}

void IncrementalMonteCarlo::HandleDelete(const EdgeUpdate& update) {
  const VertexId u = update.u;
  const VertexId v = update.v;
  const std::vector<int64_t> affected = store_.WalksThrough(u);
  if (affected.empty()) return;

  std::vector<std::optional<Walk>> replacements(affected.size());
  std::vector<int64_t> steps_per_walk(affected.size(), 0);
  const auto num_affected = static_cast<int64_t>(affected.size());
  ParallelForChunked(0, num_affected, 16, [&](int64_t i) {
    const int64_t id = affected[static_cast<size_t>(i)];
    Rng rng = walk_repair::MakeWalkRng(options_.seed, epoch_, id);
    replacements[static_cast<size_t>(i)] = walk_repair::RepairForDelete(
        *graph_, options_.alpha, store_.GetWalk(id), u, v, &rng,
        &steps_per_walk[static_cast<size_t>(i)]);
  });
  CommitReplacements(affected, &replacements, steps_per_walk);
}

void IncrementalMonteCarlo::CommitReplacements(
    const std::vector<int64_t>& affected,
    std::vector<std::optional<Walk>>* replacements,
    const std::vector<int64_t>& steps_per_walk) {
  for (size_t i = 0; i < affected.size(); ++i) {
    if (!(*replacements)[i].has_value()) continue;
    const int64_t id = affected[i];
    stats_.index_updates +=
        static_cast<int64_t>(store_.GetWalk(id).trace.size() +
                             (*replacements)[i]->trace.size());
    store_.ReplaceWalk(id, std::move(*(*replacements)[i]));
    ++stats_.walks_regenerated;
    stats_.walk_steps += steps_per_walk[i];
  }
}

double IncrementalMonteCarlo::Estimate(VertexId v) const {
  return static_cast<double>(store_.EndpointCount(v)) /
         static_cast<double>(options_.num_walks);
}

std::vector<double> IncrementalMonteCarlo::Estimates() const {
  std::vector<double> out(static_cast<size_t>(graph_->NumVertices()), 0.0);
  for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
    out[static_cast<size_t>(v)] = Estimate(v);
  }
  return out;
}

}  // namespace dppr
