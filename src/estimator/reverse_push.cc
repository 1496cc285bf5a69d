#include "estimator/reverse_push.h"

#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace dppr {

ReverseTargetState::ReverseTargetState(const DynamicGraph* graph,
                                       VertexId target,
                                       const ReverseOptions& options)
    : graph_(graph),
      target_(target),
      options_(options),
      threshold_(options.alpha * options.eps) {
  DPPR_CHECK(graph != nullptr);
  DPPR_CHECK(graph->IsValid(target));
  DPPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  DPPR_CHECK(options.eps > 0.0);
  InitializeFromScratch();
}

double ReverseTargetState::BaseMass(VertexId u) const {
  if (u != target_) return 0.0;
  return graph_->OutDegree(target_) > 0 ? options_.alpha : 1.0;
}

void ReverseTargetState::InitializeFromScratch() {
  const auto n = static_cast<size_t>(graph_->NumVertices());
  x_.assign(n, 0.0);
  r_.assign(n, 0.0);
  head_ = tail_ = 0;
  SizeQueue(n);
  in_queue_.assign(n, 0);
  r_[static_cast<size_t>(target_)] = BaseMass(target_);
  EnqueueIfOverThreshold(target_);
  Push();
}

void ReverseTargetState::EnsureCapacity(VertexId num_vertices) {
  const auto n = static_cast<size_t>(num_vertices);
  if (n <= x_.size()) return;
  x_.resize(n, 0.0);
  r_.resize(n, 0.0);
  in_queue_.resize(n, 0);
  SizeQueue(n);
}

void ReverseTargetState::SizeQueue(size_t n) {
  const size_t size = std::bit_ceil(n + 1);
  if (queue_.size() >= size) return;
  std::vector<VertexId> ring(size);
  const size_t mask = queue_.size() - 1;
  size_t count = 0;
  for (size_t i = head_; i != tail_; ++i) ring[count++] = queue_[i & mask];
  queue_ = std::move(ring);
  head_ = 0;
  tail_ = count;
}

void ReverseTargetState::EnqueueIfOverThreshold(VertexId u) {
  const auto i = static_cast<size_t>(u);
  const auto add = static_cast<uint8_t>((in_queue_[i] == 0) &
                                        (std::abs(r_[i]) > threshold_));
  in_queue_[i] |= add;
  queue_[tail_ & (queue_.size() - 1)] = u;
  tail_ += add;
}

void ReverseTargetState::RestoreVertex(VertexId u) {
  DPPR_DCHECK(graph_->IsValid(u));
  const auto i = static_cast<size_t>(u);
  double row = BaseMass(u) - x_[i];
  const VertexId dout = graph_->OutDegree(u);
  if (dout > 0) {
    double sum = 0.0;
    for (const VertexId w : graph_->OutNeighbors(u)) {
      sum += x_[static_cast<size_t>(w)];
    }
    row += (1.0 - options_.alpha) * sum / static_cast<double>(dout);
  }
  r_[i] = row;
  EnqueueIfOverThreshold(u);
}

void ReverseTargetState::Push() {
  // FIFO drain; residuals can be either sign after deletions, so the
  // test is on |r|. A vertex re-enters the queue whenever a neighbor's
  // push lifts it back over threshold. Locals, not members, in the loop:
  // the in_queue_ byte stores could alias any member.
  VertexId* const queue = queue_.data();
  const size_t mask = queue_.size() - 1;
  uint8_t* const in_queue = in_queue_.data();
  double* const x = x_.data();
  double* const r = r_.data();
  const double threshold = threshold_;
  const double alpha = options_.alpha;
  size_t head = head_;
  size_t tail = tail_;
  int64_t pushes = 0;
  while (head != tail) {
    const VertexId v = queue[head++ & mask];
    const auto vi = static_cast<size_t>(v);
    in_queue[vi] = 0;
    const double rv = r[vi];
    if (std::abs(rv) <= threshold) continue;
    x[vi] += rv;
    r[vi] = 0.0;
    ++pushes;
    // f(u) picks up (1-alpha)/dout(u) of f(v) for every edge u -> v.
    for (const VertexId u : graph_->InNeighbors(v)) {
      const auto ui = static_cast<size_t>(u);
      r[ui] += (1.0 - alpha) * rv / static_cast<double>(graph_->OutDegree(u));
      const auto add = static_cast<uint8_t>((in_queue[ui] == 0) &
                                            (std::abs(r[ui]) > threshold));
      in_queue[ui] |= add;
      queue[tail & mask] = u;
      tail += add;
    }
    // Pushing x(v) perturbs v's own restore identity through any
    // self-loop; a self-loop contributes to in(v), handled above.
  }
  head_ = head;
  tail_ = tail;
  push_count_ += pushes;
}

}  // namespace dppr
