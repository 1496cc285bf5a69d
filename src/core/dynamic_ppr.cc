#include "core/dynamic_ppr.h"

#include <cmath>

#include "core/invariant.h"
#include "core/seq_push.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dppr {

DynamicPpr::DynamicPpr(DynamicGraph* graph, VertexId source,
                       const PprOptions& options)
    : DynamicPpr(graph, source, options, nullptr) {}

DynamicPpr::DynamicPpr(DynamicGraph* graph, VertexId source,
                       const PprOptions& options, ParallelPushEngine* engine)
    : graph_(graph), options_(options), state_(source, graph->NumVertices()) {
  DPPR_CHECK(graph != nullptr);
  DPPR_CHECK(options.Validate().ok());
  DPPR_CHECK_MSG(graph->IsValid(source), "source must exist in the graph");
  SetEngine(engine);
}

void DynamicPpr::SetEngine(ParallelPushEngine* engine) {
  if (engine != nullptr) {
    const PprOptions& eo = engine->options();
    DPPR_CHECK_MSG(eo.alpha == options_.alpha && eo.eps == options_.eps &&
                       eo.variant == options_.variant,
                   "injected engine configured for different options");
  }
  external_engine_ = engine;
}

void DynamicPpr::Initialize() {
  stats_.Reset();
  state_.Resize(graph_->NumVertices());
  state_.ResetToUnitResidual();
  touched_.clear();
  touched_.push_back(state_.source);
  Push(touched_);
  touched_.clear();
}

void DynamicPpr::ApplyBatch(const UpdateBatch& batch) {
  stats_.Reset();
  touched_.clear();
  WallTimer timer;
  for (const EdgeUpdate& update : batch) {
    graph_->Apply(update);
    RestoreForUpdate(update);
  }
  stats_.restore_seconds += timer.Seconds();
  Push(touched_);
  touched_.clear();
}

void DynamicPpr::ApplySingleUpdates(const UpdateBatch& batch) {
  stats_.Reset();
  for (const EdgeUpdate& update : batch) {
    touched_.clear();
    WallTimer timer;
    graph_->Apply(update);
    RestoreForUpdate(update);
    stats_.restore_seconds += timer.Seconds();
    Push(touched_);
  }
  touched_.clear();
}

void DynamicPpr::RestoreFromState(PprState state) {
  DPPR_CHECK_MSG(state.source == state_.source,
                 "checkpoint source differs from this instance's source");
  DPPR_CHECK_MSG(state.NumVertices() <= graph_->NumVertices(),
                 "checkpoint has more vertices than the attached graph");
  state.Resize(graph_->NumVertices());
  state_ = std::move(state);
  touched_.clear();
  stats_.Reset();
}

void DynamicPpr::RestoreForUpdate(const EdgeUpdate& update) {
  const double delta = RestoreInvariant(*graph_, &state_, update,
                                        options_.alpha);
  stats_.total_residual_change += std::abs(delta);
  ++stats_.counters.restore_ops;
  ++stats_.counters.restore_input_updates;
  touched_.push_back(update.u);
}

void DynamicPpr::RestoreForUpdate(const EdgeUpdate& update,
                                  VertexId dout_after) {
  const double delta = RestoreInvariantWithDegree(&state_, update, dout_after,
                                                  options_.alpha);
  stats_.total_residual_change += std::abs(delta);
  ++stats_.counters.restore_ops;
  ++stats_.counters.restore_input_updates;
  touched_.push_back(update.u);
}

void DynamicPpr::RestoreVertexDirect(VertexId u) {
  const double delta = SolveInvariantAtVertex(*graph_, &state_, u,
                                              options_.alpha);
  stats_.total_residual_change += std::abs(delta);
  ++stats_.counters.restore_ops;
  ++stats_.counters.restore_direct_solves;
  touched_.push_back(u);
}

void DynamicPpr::RunPushOnTouched(bool accumulate) {
  if (!accumulate) stats_.Reset();
  Push(touched_);
  touched_.clear();
}

void DynamicPpr::Push(std::span<const VertexId> touched) {
  state_.Resize(graph_->NumVertices());
  if (options_.variant == PushVariant::kSequential) {
    WallTimer timer;
    SequentialLocalPush(*graph_, &state_, options_.alpha, options_.eps,
                        touched, &stats_.counters);
    stats_.push_seconds += timer.Seconds();
    return;
  }
  ParallelPushEngine* engine = external_engine_;
  if (engine == nullptr) {
    if (owned_engine_ == nullptr) {
      owned_engine_ =
          std::make_unique<ParallelPushEngine>(options_, NumThreads());
    }
    engine = owned_engine_.get();
  }
  if (signed_push_) {
    engine->RunSigned(*graph_, &state_, touched, &stats_);
  } else {
    engine->Run(*graph_, &state_, touched, &stats_);
  }
}

}  // namespace dppr
