#include "graph/csr_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "graph/edge_list.h"

namespace spinner {
namespace {

TEST(EdgeListTest, MaxVertexId) {
  EXPECT_EQ(MaxVertexId({}), -1);
  EXPECT_EQ(MaxVertexId({{0, 5}, {3, 1}}), 5);
  EXPECT_EQ(MaxVertexId({{7, 2}}), 7);
}

TEST(EdgeListTest, SortAndDedup) {
  EdgeList edges = {{1, 2}, {0, 1}, {1, 2}, {0, 1}, {2, 0}};
  SortAndDedup(&edges);
  EdgeList expected = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(edges, expected);
}

TEST(EdgeListTest, RemoveSelfLoops) {
  EdgeList edges = {{0, 0}, {0, 1}, {1, 1}, {1, 2}};
  RemoveSelfLoops(&edges);
  EdgeList expected = {{0, 1}, {1, 2}};
  EXPECT_EQ(edges, expected);
}

TEST(EdgeListTest, OutDegrees) {
  auto deg = OutDegrees({{0, 1}, {0, 2}, {2, 0}}, 3);
  EXPECT_EQ(deg, (std::vector<int64_t>{2, 0, 1}));
}

TEST(EdgeListTest, EdgesInRange) {
  EXPECT_TRUE(EdgesInRange({{0, 1}}, 2));
  EXPECT_FALSE(EdgesInRange({{0, 2}}, 2));
  EXPECT_FALSE(EdgesInRange({{-1, 0}}, 2));
  EXPECT_TRUE(EdgesInRange({}, 0));
}

TEST(CsrGraphTest, EmptyGraph) {
  auto g = CsrGraph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 0);
  EXPECT_EQ(g->NumArcs(), 0);
  EXPECT_EQ(g->TotalArcWeight(), 0);
}

TEST(CsrGraphTest, VerticesWithoutEdges) {
  auto g = CsrGraph::FromEdges(3, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->OutDegree(1), 0);
  EXPECT_TRUE(g->Neighbors(1).empty());
}

TEST(CsrGraphTest, AdjacencySortedByTarget) {
  auto g = CsrGraph::FromEdges(4, {{1, 3}, {1, 0}, {1, 2}, {0, 2}});
  ASSERT_TRUE(g.ok());
  auto nbrs = g->Neighbors(1);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 3);
  EXPECT_EQ(g->OutDegree(0), 1);
  EXPECT_EQ(g->OutDegree(2), 0);
}

TEST(CsrGraphTest, WeightsFollowEdges) {
  const EdgeList edges = {{0, 1}, {0, 2}, {1, 0}};
  const std::vector<EdgeWeight> weights = {2, 1, 2};
  auto g = CsrGraph::FromEdges(3, edges, weights);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->WeightedDegree(0), 3);
  EXPECT_EQ(g->WeightedDegree(1), 2);
  EXPECT_EQ(g->TotalArcWeight(), 5);
  auto w0 = g->Weights(0);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_EQ(w0[0], 2u);  // arc to 1
  EXPECT_EQ(w0[1], 1u);  // arc to 2
}

TEST(CsrGraphTest, DefaultWeightIsOne) {
  auto g = CsrGraph::FromEdges(2, {{0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->TotalArcWeight(), 1);
  EXPECT_EQ(g->Weights(0)[0], 1u);
}

TEST(CsrGraphTest, RejectsOutOfRangeEdge) {
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{0, 2}}).ok());
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{-1, 0}}).ok());
  EXPECT_FALSE(CsrGraph::FromEdges(-1, {}).ok());
}

TEST(CsrGraphTest, RejectsWeightLengthMismatch) {
  const std::vector<EdgeWeight> weights = {1};
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}, weights).ok());
}

TEST(CsrGraphTest, KeepsParallelArcs) {
  auto g = CsrGraph::FromEdges(2, {{0, 1}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutDegree(0), 2);
  EXPECT_EQ(g->NumArcs(), 2);
}

TEST(CsrGraphTest, HasArc) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->HasArc(0, 1));
  EXPECT_FALSE(g->HasArc(1, 0));
  EXPECT_TRUE(g->HasArc(1, 2));
  EXPECT_FALSE(g->HasArc(0, 2));
}

TEST(CsrGraphTest, IsSymmetricDetectsAsymmetry) {
  auto sym = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}});
  ASSERT_TRUE(sym.ok());
  EXPECT_TRUE(sym->IsSymmetric());

  auto asym = CsrGraph::FromEdges(2, {{0, 1}});
  ASSERT_TRUE(asym.ok());
  EXPECT_FALSE(asym->IsSymmetric());
}

TEST(CsrGraphTest, IsSymmetricChecksWeights) {
  const std::vector<EdgeWeight> mismatched = {2, 1};
  auto g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}, mismatched);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->IsSymmetric());
}

TEST(CsrGraphTest, ToEdgeListRoundTrips) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 0}};
  auto g = CsrGraph::FromEdges(3, edges);
  ASSERT_TRUE(g.ok());
  EdgeList out = g->ToEdgeList();
  SortAndDedup(&out);
  EdgeList expected = edges;
  SortAndDedup(&expected);
  EXPECT_EQ(out, expected);
}

TEST(CsrGraphTest, ArcBeginConsistentWithDegrees) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ArcBegin(0), 0);
  EXPECT_EQ(g->ArcBegin(1), 2);
  EXPECT_EQ(g->ArcBegin(2), 3);
}

TEST(CsrGraphTest, RowsSortedByTargetThenWeight) {
  // Parallel arcs with different weights, listed in random order: every
  // row must equal the (target, weight)-sorted list of its arcs.
  std::mt19937_64 rng(11);
  const int64_t n = 40;
  EdgeList edges;
  std::vector<EdgeWeight> weights;
  std::vector<std::vector<std::pair<VertexId, EdgeWeight>>> rows(n);
  for (int i = 0; i < 600; ++i) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = static_cast<VertexId>(rng() % 8);
    const auto w = static_cast<EdgeWeight>(1 + rng() % 3);
    edges.push_back({u, v});
    weights.push_back(w);
    rows[u].push_back({v, w});
  }
  auto g = CsrGraph::FromEdges(n, edges, weights);
  ASSERT_TRUE(g.ok());
  int64_t total = 0;
  for (VertexId u = 0; u < n; ++u) {
    std::sort(rows[u].begin(), rows[u].end());
    ASSERT_EQ(g->OutDegree(u), static_cast<int64_t>(rows[u].size()));
    int64_t wd = 0;
    for (size_t i = 0; i < rows[u].size(); ++i) {
      EXPECT_EQ(g->Neighbors(u)[i], rows[u][i].first);
      EXPECT_EQ(g->Weights(u)[i], rows[u][i].second);
      wd += rows[u][i].second;
    }
    EXPECT_EQ(g->WeightedDegree(u), wd);
    total += wd;
  }
  EXPECT_EQ(g->TotalArcWeight(), total);

  // Two-arc rows out of order, by target and by weight alone.
  const std::vector<EdgeWeight> pair_weights = {1, 1, 2, 1};
  auto pairs = CsrGraph::FromEdges(2, {{0, 1}, {0, 0}, {1, 0}, {1, 0}},
                                   pair_weights);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->Neighbors(0)[0], 0);
  EXPECT_EQ(pairs->Neighbors(0)[1], 1);
  EXPECT_EQ(pairs->Weights(1)[0], 1u);
  EXPECT_EQ(pairs->Weights(1)[1], 2u);
}

}  // namespace
}  // namespace spinner
