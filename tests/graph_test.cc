// Unit tests for the graph substrate: DynamicGraph mutation semantics,
// CSR snapshots, edge-list IO, degree statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "util/random.h"

namespace dppr {
namespace {

TEST(DynamicGraphTest, EmptyGraph) {
  DynamicGraph g;
  EXPECT_EQ(g.NumVertices(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_FALSE(g.IsValid(0));
}

TEST(DynamicGraphTest, AddEdgeGrowsVertexSet) {
  DynamicGraph g;
  g.AddEdge(3, 7);
  EXPECT_EQ(g.NumVertices(), 8);  // ids are dense [0, 8)
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.OutDegree(3), 1);
  EXPECT_EQ(g.InDegree(7), 1);
  EXPECT_EQ(g.OutDegree(5), 0);
  EXPECT_TRUE(g.HasEdge(3, 7));
  EXPECT_FALSE(g.HasEdge(7, 3));
}

TEST(DynamicGraphTest, AdjacencyIsConsistentBothDirections) {
  DynamicGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(2, 1);
  auto out0 = g.OutNeighbors(0);
  EXPECT_EQ(std::set<VertexId>(out0.begin(), out0.end()),
            (std::set<VertexId>{1, 2}));
  auto in1 = g.InNeighbors(1);
  EXPECT_EQ(std::set<VertexId>(in1.begin(), in1.end()),
            (std::set<VertexId>{0, 2}));
}

TEST(DynamicGraphTest, RemoveEdgeBothDirections) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.OutDegree(0), 0);
  EXPECT_EQ(g.InDegree(1), 0);
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(DynamicGraphTest, RemoveMissingEdgeReturnsFalse) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  EXPECT_FALSE(g.RemoveEdge(1, 0));
  EXPECT_FALSE(g.RemoveEdge(0, 2));
  EXPECT_FALSE(g.RemoveEdge(5, 6));  // out of range
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(DynamicGraphTest, ParallelEdgesCountMultiplicity) {
  DynamicGraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_EQ(g.OutDegree(0), 1);  // removes ONE occurrence
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(DynamicGraphTest, SelfLoopSupported) {
  DynamicGraph g(2);
  g.AddEdge(1, 1);
  EXPECT_EQ(g.OutDegree(1), 1);
  EXPECT_EQ(g.InDegree(1), 1);
  EXPECT_TRUE(g.RemoveEdge(1, 1));
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(DynamicGraphTest, ApplyInsertAndDelete) {
  DynamicGraph g(3);
  g.Apply(EdgeUpdate::Insert(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
  g.Apply(EdgeUpdate::Delete(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(DynamicGraphDeathTest, ApplyDeleteMissingAborts) {
  DynamicGraph g(3);
  EXPECT_DEATH(g.Apply(EdgeUpdate::Delete(0, 1)), "non-existent");
}

TEST(DynamicGraphTest, FromEdgesRoundTrip) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 2}};
  DynamicGraph g = DynamicGraph::FromEdges(edges);
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 4);
  auto round = g.ToEdgeList();
  auto key = [](const Edge& e) { return e.u * 1000 + e.v; };
  std::vector<int> a;
  std::vector<int> b;
  for (const auto& e : edges) a.push_back(key(e));
  for (const auto& e : round) b.push_back(key(e));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(DynamicGraphTest, AverageDegree) {
  DynamicGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.5);
}

TEST(DynamicGraphTest, ChurnStressInOutStayConsistent) {
  // Random insert/delete churn; verify in/out views agree at the end.
  Rng rng(123);
  DynamicGraph g(50);
  std::multiset<std::pair<VertexId, VertexId>> reference;
  for (int step = 0; step < 5000; ++step) {
    const auto u = static_cast<VertexId>(rng.NextBounded(50));
    const auto v = static_cast<VertexId>(rng.NextBounded(50));
    if (rng.NextBernoulli(0.6) || reference.empty()) {
      g.AddEdge(u, v);
      reference.insert({u, v});
    } else {
      auto it = reference.begin();
      std::advance(it, static_cast<int64_t>(
                           rng.NextBounded(reference.size())));
      ASSERT_TRUE(g.RemoveEdge(it->first, it->second));
      reference.erase(it);
    }
  }
  ASSERT_EQ(g.NumEdges(), static_cast<EdgeCount>(reference.size()));
  // Rebuild reference from graph and compare.
  std::multiset<std::pair<VertexId, VertexId>> from_out;
  std::multiset<std::pair<VertexId, VertexId>> from_in;
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    for (VertexId y : g.OutNeighbors(x)) from_out.insert({x, y});
    for (VertexId y : g.InNeighbors(x)) from_in.insert({y, x});
  }
  EXPECT_EQ(from_out, reference);
  EXPECT_EQ(from_in, reference);
}

TEST(DynamicGraphTest, OutDegreeArrayTracksAdjacencyUnderChurn) {
  // The compact out-degree array must equal the out-adjacency length of
  // every vertex through every mutator — FromEdges, AddEdge (multi-edges
  // included), successful and failed RemoveEdge, and vertex growth — and
  // must not leak into the content fingerprint.
  constexpr uint64_t kSeed = 20260419;
  SCOPED_TRACE(testing::Message() << "seed=" << kSeed);
  Rng rng(kSeed);
  std::vector<Edge> initial;
  for (int i = 0; i < 300; ++i) {
    initial.push_back({static_cast<VertexId>(rng.NextBounded(40)),
                       static_cast<VertexId>(rng.NextBounded(40))});
  }
  DynamicGraph g = DynamicGraph::FromEdges(initial, 40);
  std::multiset<std::pair<VertexId, VertexId>> reference;
  for (const Edge& e : initial) reference.insert({e.u, e.v});

  auto check = [&](int step) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(g.OutDegree(v),
                static_cast<VertexId>(g.OutNeighbors(v).size()))
          << "step " << step << " v=" << v;
    }
    std::vector<Edge> edges;
    for (const auto& [u, v] : reference) edges.push_back({u, v});
    ASSERT_EQ(g.Checksum(),
              DynamicGraph::FromEdges(edges, g.NumVertices()).Checksum())
        << "step " << step;
  };
  check(-1);

  for (int step = 0; step < 4000; ++step) {
    const auto n = static_cast<uint64_t>(g.NumVertices());
    const uint64_t op = rng.NextBounded(100);
    if (op < 40) {
      // Endpoints up to two past the current range grow the vertex set.
      const auto u = static_cast<VertexId>(rng.NextBounded(n + 2));
      const auto v = static_cast<VertexId>(rng.NextBounded(n + 2));
      g.AddEdge(u, v);
      reference.insert({u, v});
    } else if (op < 50 && !reference.empty()) {
      // Duplicate an existing edge: a multi-edge counts twice.
      auto it = reference.begin();
      std::advance(it, static_cast<int64_t>(rng.NextBounded(reference.size())));
      const auto [u, v] = *it;
      g.AddEdge(u, v);
      reference.insert({u, v});
    } else if (op < 85 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<int64_t>(rng.NextBounded(reference.size())));
      ASSERT_TRUE(g.RemoveEdge(it->first, it->second)) << "step " << step;
      reference.erase(it);
    } else if (op < 95) {
      // Failed removals: an absent pair, or an endpoint out of range.
      const uint64_t checksum = g.Checksum();
      const auto u = static_cast<VertexId>(rng.NextBounded(n));
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (reference.count({u, v}) == 0) {
        ASSERT_FALSE(g.RemoveEdge(u, v)) << "step " << step;
      }
      ASSERT_FALSE(g.RemoveEdge(u, static_cast<VertexId>(n) + 3));
      ASSERT_FALSE(g.RemoveEdge(static_cast<VertexId>(n) + 3, v));
      ASSERT_EQ(g.Checksum(), checksum) << "step " << step;
    } else {
      g.ReserveVertices(static_cast<VertexId>(n) + 8);
      g.EnsureVertex(static_cast<VertexId>(n + rng.NextBounded(4)));
    }
    if (step % 250 == 0) check(step);
  }
  check(4000);
  EXPECT_EQ(g.NumEdges(), static_cast<EdgeCount>(reference.size()));
}

// -------------------------------------------------------------------- CSR

TEST(CsrTest, MatchesDynamicGraph) {
  Rng rng(7);
  DynamicGraph g(64);
  for (int i = 0; i < 500; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(64)),
              static_cast<VertexId>(rng.NextBounded(64)));
  }
  CsrGraph csr = CsrGraph::FromDynamic(g);
  ASSERT_EQ(csr.NumVertices(), g.NumVertices());
  ASSERT_EQ(csr.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(csr.OutDegree(v), g.OutDegree(v));
    ASSERT_EQ(csr.InDegree(v), g.InDegree(v));
    auto a = g.OutNeighbors(v);
    auto b = csr.OutNeighbors(v);
    EXPECT_EQ(std::multiset<VertexId>(a.begin(), a.end()),
              std::multiset<VertexId>(b.begin(), b.end()));
    auto c = g.InNeighbors(v);
    auto d = csr.InNeighbors(v);
    EXPECT_EQ(std::multiset<VertexId>(c.begin(), c.end()),
              std::multiset<VertexId>(d.begin(), d.end()));
  }
}

TEST(CsrTest, FromEdgesMatchesFromDynamic) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {1, 0}, {3, 1}};
  DynamicGraph g = DynamicGraph::FromEdges(edges);
  CsrGraph a = CsrGraph::FromDynamic(g);
  CsrGraph b = CsrGraph::FromEdges(edges, g.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto na = a.OutNeighbors(v);
    auto nb = b.OutNeighbors(v);
    EXPECT_EQ(std::multiset<VertexId>(na.begin(), na.end()),
              std::multiset<VertexId>(nb.begin(), nb.end()));
  }
}

TEST(CsrTest, EmptyGraph) {
  DynamicGraph g;
  CsrGraph csr = CsrGraph::FromDynamic(g);
  EXPECT_EQ(csr.NumVertices(), 0);
  EXPECT_EQ(csr.NumEdges(), 0);
}

// --------------------------------------------------------------------- IO

TEST(GraphIoTest, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/dppr_io_test.txt";
  std::vector<Edge> edges = {{0, 1}, {2, 3}, {1, 0}};
  ASSERT_TRUE(SaveEdgeList(path, edges).ok());
  std::vector<Edge> loaded;
  ASSERT_TRUE(LoadEdgeList(path, &loaded).ok());
  EXPECT_EQ(loaded, edges);
  std::remove(path.c_str());
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  const std::string path = testing::TempDir() + "/dppr_io_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# SNAP-style header\n\n5 6\n# more\n6 5\n", f);
  std::fclose(f);
  std::vector<Edge> loaded;
  ASSERT_TRUE(LoadEdgeList(path, &loaded).ok());
  EXPECT_EQ(loaded, (std::vector<Edge>{{5, 6}, {6, 5}}));
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIOError) {
  std::vector<Edge> edges;
  EXPECT_TRUE(LoadEdgeList("/nonexistent/nope.txt", &edges).IsIOError());
}

TEST(GraphIoTest, MalformedLineIsCorruption) {
  const std::string path = testing::TempDir() + "/dppr_io_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 2\nnot an edge\n", f);
  std::fclose(f);
  std::vector<Edge> loaded;
  EXPECT_TRUE(LoadEdgeList(path, &loaded).IsCorruption());
  std::remove(path.c_str());
}

TEST(GraphIoTest, RemapDenseCompactsIds) {
  std::vector<Edge> edges = {{100, 200}, {200, 300}, {100, 300}};
  const VertexId n = RemapDense(&edges);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}}));
}

// ------------------------------------------------------------------ Stats

TEST(GraphStatsTest, ComputesDegrees) {
  DynamicGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 0);
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.num_vertices, 4);
  EXPECT_EQ(stats.num_edges, 4);
  EXPECT_EQ(stats.max_out_degree, 3);
  EXPECT_EQ(stats.max_in_degree, 1);
  EXPECT_EQ(stats.zero_out_degree_count, 2);  // vertices 2 and 3
}

TEST(GraphStatsTest, TopOutDegreeOrdering) {
  DynamicGraph g(5);
  for (int i = 0; i < 4; ++i) g.AddEdge(0, static_cast<VertexId>(i + 1));
  for (int i = 0; i < 2; ++i) g.AddEdge(1, static_cast<VertexId>(i + 2));
  g.AddEdge(2, 0);
  auto top = TopOutDegreeVertices(g, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 0);
  EXPECT_EQ(top[1], 1);
  EXPECT_EQ(top[2], 2);
}

TEST(GraphStatsTest, PickSourceComesFromTopBucket) {
  DynamicGraph g(10);
  for (int i = 1; i < 10; ++i) {
    for (int j = 0; j < i; ++j) {
      g.AddEdge(static_cast<VertexId>(i),
                static_cast<VertexId>((i + j + 1) % 10));
    }
  }
  auto top3 = TopOutDegreeVertices(g, 3);
  std::set<VertexId> allowed(top3.begin(), top3.end());
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    EXPECT_TRUE(allowed.count(PickSourceByDegreeRank(g, 3, &rng)) > 0);
  }
}

TEST(GraphStatsTest, DegreeHistogramBuckets) {
  DynamicGraph g(4);
  // degrees: v0=0, v1=1, v2=2, v3=3
  g.AddEdge(1, 0);
  g.AddEdge(2, 0);
  g.AddEdge(2, 1);
  g.AddEdge(3, 0);
  g.AddEdge(3, 1);
  g.AddEdge(3, 2);
  auto hist = DegreeHistogram(g);
  // bucket 0: deg in [0,1) -> v0 ... using [2^i, 2^{i+1}) over deg+1.
  int64_t total = 0;
  for (int64_t c : hist) total += c;
  EXPECT_EQ(total, 4);
}

}  // namespace
}  // namespace dppr
