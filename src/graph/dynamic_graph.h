// Dynamic directed graph: the mutable substrate every algorithm runs on.
//
// Requirements from the paper's dynamic model (§2.2):
//  * edge insertion may introduce new vertices (vertex set grows lazily);
//  * edge deletion must be supported (sliding-window expiry);
//  * push kernels iterate IN-neighbors of a vertex and read OUT-degrees of
//    those neighbors, so both adjacency directions are maintained;
//  * mutations happen in the (sequential) RestoreInvariant step while reads
//    are massively parallel during the push — so reads must be cheap and
//    mutation simple. Adjacency is a per-vertex vector with swap-and-pop
//    deletion: O(1) amortized insert, O(deg) delete, contiguous scans.

#ifndef DPPR_GRAPH_DYNAMIC_GRAPH_H_
#define DPPR_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "util/macros.h"

namespace dppr {

/// \brief Mutable directed graph with in- and out-adjacency.
///
/// Parallel edges are representable (AddEdge never dedups; out-degree counts
/// multiplicity, matching the push semantics where each parallel edge
/// carries transition probability mass). Self-loops are allowed.
///
/// Out-degrees are also kept in a compact array beside the adjacency:
/// out_degree_[v] == out_[v].size() for every vertex, maintained by every
/// mutator (EnsureVertex, AddEdge, RemoveEdge). Push kernels read the
/// out-degree of every in-neighbor they scatter to, so OutDegree() reads 4
/// bytes from a dense array instead of two pointers from a 24-byte vector
/// header.
///
/// Thread-safety: any number of concurrent readers; mutations must be
/// externally serialized and not overlap reads.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Creates a graph with `n` isolated vertices.
  explicit DynamicGraph(VertexId n) { EnsureVertex(n - 1); }

  /// Builds from an edge list, growing the vertex set as needed.
  static DynamicGraph FromEdges(const std::vector<Edge>& edges,
                                VertexId min_vertices = 0);

  /// Number of vertices ever seen (ids are dense [0, NumVertices())).
  VertexId NumVertices() const {
    return static_cast<VertexId>(out_.size());
  }
  EdgeCount NumEdges() const { return num_edges_; }

  /// Grows the vertex set so `v` is a valid id.
  void EnsureVertex(VertexId v);

  /// Inserts u -> v; grows the vertex set if needed. O(1) amortized.
  void AddEdge(VertexId u, VertexId v);

  /// Removes one occurrence of u -> v. Returns false if absent. O(deg).
  bool RemoveEdge(VertexId u, VertexId v);

  /// Applies one update; DPPR_CHECKs that deletions hit an existing edge.
  void Apply(const EdgeUpdate& update);

  bool HasEdge(VertexId u, VertexId v) const;

  VertexId OutDegree(VertexId v) const {
    DPPR_DCHECK(IsValid(v));
    return out_degree_[static_cast<size_t>(v)];
  }
  VertexId InDegree(VertexId v) const {
    DPPR_DCHECK(IsValid(v));
    return static_cast<VertexId>(in_[static_cast<size_t>(v)].size());
  }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    DPPR_DCHECK(IsValid(v));
    return out_[static_cast<size_t>(v)];
  }
  std::span<const VertexId> InNeighbors(VertexId v) const {
    DPPR_DCHECK(IsValid(v));
    return in_[static_cast<size_t>(v)];
  }

  /// Average out-degree d̄ = |E| / |V| (0 for the empty graph).
  double AverageDegree() const {
    return NumVertices() == 0 ? 0.0
                              : static_cast<double>(num_edges_) /
                                    static_cast<double>(NumVertices());
  }

  /// Pre-sizes adjacency storage (optional; avoids growth stalls in benches).
  void ReserveVertices(VertexId n);

  /// Dumps all edges (u, v) in unspecified order.
  std::vector<Edge> ToEdgeList() const;

  /// Content fingerprint of the graph: a commutative accumulator over the
  /// edge MULTISET (mixed per-edge, summed mod 2^64 so insertion order and
  /// adjacency layout don't matter) combined with |V| and |E|. Maintained
  /// incrementally by AddEdge/RemoveEdge — O(1) to read at any time. Two
  /// graphs with equal vertex counts and equal edge multisets agree; the
  /// replication handshake and checkpoint loader use this to refuse state
  /// that was computed against a different graph.
  uint64_t Checksum() const;

  bool IsValid(VertexId v) const {
    return v >= 0 && static_cast<size_t>(v) < out_.size();
  }

 private:
  std::vector<std::vector<VertexId>> out_;
  std::vector<std::vector<VertexId>> in_;
  std::vector<VertexId> out_degree_;  ///< out_degree_[v] == out_[v].size()
  EdgeCount num_edges_ = 0;
  uint64_t edge_acc_ = 0;  ///< commutative multiset hash of the edges
};

}  // namespace dppr

#endif  // DPPR_GRAPH_DYNAMIC_GRAPH_H_
