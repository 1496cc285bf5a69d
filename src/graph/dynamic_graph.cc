#include "graph/dynamic_graph.h"

#include <algorithm>

namespace dppr {

namespace {

// SplitMix64 finalizer over the packed (u, v) pair — a well-mixed per-edge
// value whose 2^64-modular SUM is a commutative multiset hash: adding an
// edge adds its mix, removing subtracts it, so the accumulator is
// order-independent and O(1) per mutation.
uint64_t EdgeMix(VertexId u, VertexId v) {
  uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
               static_cast<uint64_t>(static_cast<uint32_t>(v));
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

DynamicGraph DynamicGraph::FromEdges(const std::vector<Edge>& edges,
                                     VertexId min_vertices) {
  DynamicGraph g;
  if (min_vertices > 0) g.EnsureVertex(min_vertices - 1);
  for (const Edge& e : edges) g.AddEdge(e.u, e.v);
  return g;
}

void DynamicGraph::EnsureVertex(VertexId v) {
  if (v < 0) return;
  if (static_cast<size_t>(v) >= out_.size()) {
    out_.resize(static_cast<size_t>(v) + 1);
    in_.resize(static_cast<size_t>(v) + 1);
    out_degree_.resize(static_cast<size_t>(v) + 1, 0);
  }
}

void DynamicGraph::AddEdge(VertexId u, VertexId v) {
  DPPR_CHECK(u >= 0 && v >= 0);
  EnsureVertex(std::max(u, v));
  out_[static_cast<size_t>(u)].push_back(v);
  in_[static_cast<size_t>(v)].push_back(u);
  ++out_degree_[static_cast<size_t>(u)];
  ++num_edges_;
  edge_acc_ += EdgeMix(u, v);
}

namespace {

// Removes one occurrence of `x` from `vec` by swap-and-pop.
bool SwapErase(std::vector<VertexId>& vec, VertexId x) {
  auto it = std::find(vec.begin(), vec.end(), x);
  if (it == vec.end()) return false;
  *it = vec.back();
  vec.pop_back();
  return true;
}

}  // namespace

bool DynamicGraph::RemoveEdge(VertexId u, VertexId v) {
  if (!IsValid(u) || !IsValid(v)) return false;
  if (!SwapErase(out_[static_cast<size_t>(u)], v)) return false;
  const bool in_ok = SwapErase(in_[static_cast<size_t>(v)], u);
  DPPR_CHECK_MSG(in_ok, "in/out adjacency desynchronized");
  --out_degree_[static_cast<size_t>(u)];
  --num_edges_;
  edge_acc_ -= EdgeMix(u, v);
  return true;
}

void DynamicGraph::Apply(const EdgeUpdate& update) {
  if (update.op == UpdateOp::kInsert) {
    AddEdge(update.u, update.v);
  } else {
    const bool removed = RemoveEdge(update.u, update.v);
    DPPR_CHECK_MSG(removed, "deleting a non-existent edge");
  }
}

bool DynamicGraph::HasEdge(VertexId u, VertexId v) const {
  if (!IsValid(u) || !IsValid(v)) return false;
  const auto& nbrs = out_[static_cast<size_t>(u)];
  return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
}

void DynamicGraph::ReserveVertices(VertexId n) {
  out_.reserve(static_cast<size_t>(n));
  in_.reserve(static_cast<size_t>(n));
  out_degree_.reserve(static_cast<size_t>(n));
}

uint64_t DynamicGraph::Checksum() const {
  // Fold |V| and |E| in so an empty graph with extra isolated vertices (or
  // a multiset collision that also changed the counts) doesn't alias.
  uint64_t h = edge_acc_;
  h ^= EdgeMix(NumVertices(), -1);
  h ^= EdgeMix(-2, static_cast<VertexId>(num_edges_));
  return h;
}

std::vector<Edge> DynamicGraph::ToEdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : OutNeighbors(u)) edges.push_back({u, v});
  }
  return edges;
}

}  // namespace dppr
