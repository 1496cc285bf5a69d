// Reverse (target-side) push: dynamic PPR *into* one target.
//
// Forward push maintains pi_s(.) for one SOURCE; this engine maintains the
// column f_t(s) = pi_s(t) for one TARGET t over ALL sources s at once
// [Lofgren-Goel, "Personalized PageRank to a Target Node", arXiv
// 1304.4658; Andersen et al., "Local computation of PageRank
// contributions", WAW 2007]. With the dangling-absorption walk semantics
// used throughout this repo (a walk forced to stop at a dangling vertex
// "ends" there), f satisfies the linear fixed point
//
//   f(s) = b(s) + (1-alpha)/dout(s) * sum_{v in out(s)} f(v)   (dout(s)>0)
//   f(s) = b(s)                                                (dout(s)=0)
//
// with b(s) = stop(t) * [s == t] and stop(t) = alpha when dout(t) > 0,
// 1 otherwise. The engine keeps estimates x and residuals r tied by the
// invariant
//
//   f(s) = x(s) + sum_u mu_s(u) * r(u)
//
// where mu_s(u) is the expected number of visits of u by an
// alpha-terminating walk from s. Since sum_u mu_s(u) <= 1/alpha, pushing
// until every |r(u)| <= alpha * eps yields |f(s) - x(s)| <= eps for EVERY
// source simultaneously — one state answers pair queries from any s and
// reverse top-k ("who is closest to t") by scanning x.
//
// Dynamic maintenance mirrors the forward engine's restore/push split:
// r is a pure function of x and the current graph,
//
//   r(u) = b(u) - x(u) + (1-alpha)/dout(u) * sum_{w in out(u)} x(w),
//
// so after a batch of edge updates only the rows of vertices whose
// OUT-adjacency changed (each update's u endpoint; b(t) is covered because
// stop(t) can only flip when an update's u == t) need recomputation —
// O(dout) per touched row, path-independent, then one push pass restores
// the global eps bound. Residuals may go NEGATIVE after deletions; the
// push loop drains |r| above threshold in both signs.

#ifndef DPPR_ESTIMATOR_REVERSE_PUSH_H_
#define DPPR_ESTIMATOR_REVERSE_PUSH_H_

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"

namespace dppr {

struct ReverseOptions {
  double alpha = 0.15;
  /// Per-source absolute error bound on x: push threshold is alpha * eps.
  double eps = 1e-4;
};

/// \brief Maintained reverse-push state for one target vertex.
///
/// Thread-safety: none; the owner (EstimatorIndex) serializes maintenance
/// against reads.
class ReverseTargetState {
 public:
  ReverseTargetState(const DynamicGraph* graph, VertexId target,
                     const ReverseOptions& options);

  /// (Re)derives x from nothing on the current graph.
  void InitializeFromScratch();

  /// Grows x/r for a grown vertex set. New vertices start at x = r = 0,
  /// which already satisfies the restore identity for them.
  void EnsureCapacity(VertexId num_vertices);

  /// Recomputes r(u) from x and the CURRENT graph (the restore identity
  /// above). Call for every vertex whose out-adjacency changed after the
  /// updates are applied to the graph, then Push().
  void RestoreVertex(VertexId u);

  /// Drains every |r| > alpha * eps, restoring the global bound.
  void Push();

  /// x(s) ~= pi_s(target), |error| <= eps for every s.
  double Estimate(VertexId s) const {
    return s >= 0 && static_cast<size_t>(s) < x_.size()
               ? x_[static_cast<size_t>(s)]
               : 0.0;
  }
  const std::vector<double>& estimates() const { return x_; }
  const std::vector<double>& residuals() const { return r_; }

  VertexId target() const { return target_; }
  const ReverseOptions& options() const { return options_; }
  int64_t push_count() const { return push_count_; }

 private:
  /// b(u) = stop(target) * [u == target] on the current graph.
  double BaseMass(VertexId u) const;
  void EnqueueIfOverThreshold(VertexId u);

  const DynamicGraph* graph_;
  VertexId target_;
  ReverseOptions options_;
  double threshold_;  ///< alpha * eps

  /// Gives the queue ring a power-of-two size above `n`, keeping the
  /// queued vertices in FIFO order.
  void SizeQueue(size_t n);

  std::vector<double> x_;
  std::vector<double> r_;
  /// FIFO of vertices over threshold. in_queue_ holds each vertex at most
  /// once, so a ring of more than |V| slots never overflows, and the spare
  /// slot at tail takes the unconditional write of a rejected candidate.
  /// head_/tail_ only grow; the slot is the index masked by ring size - 1.
  std::vector<VertexId> queue_;
  size_t head_ = 0;
  size_t tail_ = 0;
  std::vector<uint8_t> in_queue_;
  int64_t push_count_ = 0;
};

}  // namespace dppr

#endif  // DPPR_ESTIMATOR_REVERSE_PUSH_H_
