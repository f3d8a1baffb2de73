#include "graph/conversion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "graph/generators.h"

namespace spinner {
namespace {

TEST(ConversionTest, PaperFigure1Semantics) {
  // One single-direction edge and one reciprocal pair:
  //   0 -> 1            (one direction: weight 1)
  //   1 -> 2, 2 -> 1    (reciprocal: weight 2)
  auto g = ConvertToWeightedUndirected(3, {{0, 1}, {1, 2}, {2, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->IsSymmetric());
  EXPECT_EQ(g->NumArcs(), 4);  // 2 undirected edges, stored both ways
  // Arc 0->1 weight 1, arcs 1<->2 weight 2.
  ASSERT_EQ(g->OutDegree(0), 1);
  EXPECT_EQ(g->Weights(0)[0], 1u);
  ASSERT_EQ(g->OutDegree(2), 1);
  EXPECT_EQ(g->Weights(2)[0], 2u);
  EXPECT_EQ(g->WeightedDegree(1), 3);  // 1 (to 0) + 2 (to 2)
}

TEST(ConversionTest, TotalWeightEqualsTwiceDirectedEdges) {
  // Every directed edge contributes exactly 2 to the total arc weight:
  // singles give two weight-1 arcs; reciprocal pairs two weight-2 arcs.
  const EdgeList directed = {{0, 1}, {1, 0}, {1, 2}, {3, 2}, {0, 3}};
  auto g = ConvertToWeightedUndirected(4, directed);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->TotalArcWeight(),
            2 * static_cast<int64_t>(directed.size()));
}

TEST(ConversionTest, DropsSelfLoops) {
  auto g = ConvertToWeightedUndirected(2, {{0, 0}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumArcs(), 2);
  EXPECT_FALSE(g->HasArc(0, 0));
}

TEST(ConversionTest, DuplicateDirectedEdgesCollapse) {
  auto g = ConvertToWeightedUndirected(2, {{0, 1}, {0, 1}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumArcs(), 2);
  EXPECT_EQ(g->Weights(0)[0], 1u);  // still one-directional
}

TEST(ConversionTest, RejectsOutOfRange) {
  EXPECT_FALSE(ConvertToWeightedUndirected(2, {{0, 5}}).ok());
}

TEST(ConversionTest, EmptyGraph) {
  auto g = ConvertToWeightedUndirected(4, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumArcs(), 0);
  EXPECT_EQ(g->NumVertices(), 4);
}

TEST(BuildSymmetricTest, DoublesUndirectedEdges) {
  auto g = BuildSymmetric(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->IsSymmetric());
  EXPECT_EQ(g->NumArcs(), 4);
  EXPECT_EQ(g->TotalArcWeight(), 4);
}

TEST(BuildSymmetricTest, DedupsAndDropsLoops) {
  auto g = BuildSymmetric(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumArcs(), 2);  // single undirected edge 0-1
}

TEST(ConversionTest, AllReciprocalMatchesBuildSymmetricTimesTwo) {
  // For a graph listed with both directions, conversion gives weight-2 arcs
  // over the same adjacency BuildSymmetric produces with weight 1.
  const EdgeList both = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  auto conv = ConvertToWeightedUndirected(3, both);
  auto sym = BuildSymmetric(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(conv.ok() && sym.ok());
  ASSERT_EQ(conv->NumArcs(), sym->NumArcs());
  for (VertexId v = 0; v < 3; ++v) {
    auto cn = conv->Neighbors(v);
    auto sn = sym->Neighbors(v);
    ASSERT_EQ(cn.size(), sn.size());
    for (size_t i = 0; i < cn.size(); ++i) {
      EXPECT_EQ(cn[i], sn[i]);
      EXPECT_EQ(conv->Weights(v)[i], 2u * sym->Weights(v)[i]);
    }
  }
}

TEST(ConversionTest, RandomDirectedGraphInvariants) {
  auto rmat = RMat(8, 4, 0.45, 0.2, 0.2, /*seed=*/7);
  ASSERT_TRUE(rmat.ok());
  auto g = ConvertToWeightedUndirected(rmat->num_vertices, rmat->edges);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->IsSymmetric());
  // Weights are only ever 1 or 2.
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    for (EdgeWeight w : g->Weights(v)) {
      EXPECT_TRUE(w == 1 || w == 2);
    }
  }
}

// Naive reference for both builders: an ordered map from each unordered
// pair to the directions it was seen in, expanded into sorted rows.
struct ReferenceCsr {
  std::vector<std::vector<std::pair<VertexId, EdgeWeight>>> rows;
};

ReferenceCsr NaiveSymmetric(int64_t n, const EdgeList& edges,
                            bool weigh_reciprocal) {
  std::map<std::pair<VertexId, VertexId>, int> dirs;
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    dirs[{std::min(e.src, e.dst), std::max(e.src, e.dst)}] |=
        e.src < e.dst ? 1 : 2;
  }
  ReferenceCsr ref;
  ref.rows.resize(n);
  for (const auto& [pair, dir] : dirs) {
    const EdgeWeight w = weigh_reciprocal && dir == 3 ? 2u : 1u;
    ref.rows[pair.first].push_back({pair.second, w});
    ref.rows[pair.second].push_back({pair.first, w});
  }
  for (auto& row : ref.rows) std::sort(row.begin(), row.end());
  return ref;
}

::testing::AssertionResult SameAsReference(const CsrGraph& g,
                                           const ReferenceCsr& ref) {
  const auto n = static_cast<int64_t>(ref.rows.size());
  if (g.NumVertices() != n) {
    return ::testing::AssertionFailure() << "vertex count " << g.NumVertices();
  }
  int64_t arcs = 0;
  int64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto& row = ref.rows[v];
    if (g.OutDegree(v) != static_cast<int64_t>(row.size())) {
      return ::testing::AssertionFailure() << "degree of " << v;
    }
    if (g.ArcBegin(v) != arcs) {
      return ::testing::AssertionFailure() << "row start of " << v;
    }
    int64_t wd = 0;
    for (size_t i = 0; i < row.size(); ++i) {
      if (g.Neighbors(v)[i] != row[i].first ||
          g.Weights(v)[i] != row[i].second) {
        return ::testing::AssertionFailure() << "arc " << i << " of " << v;
      }
      wd += row[i].second;
    }
    if (g.WeightedDegree(v) != wd) {
      return ::testing::AssertionFailure() << "weighted degree of " << v;
    }
    arcs += static_cast<int64_t>(row.size());
    total += wd;
  }
  if (g.NumArcs() != arcs || g.TotalArcWeight() != total) {
    return ::testing::AssertionFailure() << "arc count or total weight";
  }
  return ::testing::AssertionSuccess();
}

TEST(SymmetricBuilderTest, SeededRandomGraphsMatchNaiveReference) {
  // Random directed graphs with duplicates, self-loops, reciprocal pairs
  // and isolated vertices (edges touch only the lower part of the range),
  // including n = 0 and n = 1, against the ordered-map reference.
  std::mt19937_64 rng(1717);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t n = trial < 2 ? trial : 1 + static_cast<int64_t>(rng() % 60);
    const int64_t touched = n == 0 ? 0 : 1 + static_cast<int64_t>(rng() % n);
    const int64_t m = n == 0 ? 0 : static_cast<int64_t>(rng() % (4 * n + 4));
    EdgeList edges;
    for (int64_t i = 0; i < m; ++i) {
      const auto u = static_cast<VertexId>(rng() % touched);
      const auto v = static_cast<VertexId>(rng() % touched);
      edges.push_back({u, v});
      if (rng() % 4 == 0) edges.push_back({v, u});  // reciprocal
      if (rng() % 8 == 0) edges.push_back({u, v});  // duplicate
      if (rng() % 8 == 0) edges.push_back({u, u});  // self-loop
    }
    std::shuffle(edges.begin(), edges.end(), rng);

    auto conv = ConvertToWeightedUndirected(n, edges);
    ASSERT_TRUE(conv.ok()) << conv.status();
    EXPECT_TRUE(SameAsReference(*conv, NaiveSymmetric(n, edges, true)))
        << "ConvertToWeightedUndirected, trial " << trial;
    auto sym = BuildSymmetric(n, edges);
    ASSERT_TRUE(sym.ok()) << sym.status();
    EXPECT_TRUE(SameAsReference(*sym, NaiveSymmetric(n, edges, false)))
        << "BuildSymmetric, trial " << trial;
  }
}

TEST(SymmetricBuilderTest, HubBucketsMatchNaiveReference) {
  // Skewed degrees: large per-vertex buckets on both sides of the pair.
  auto rmat = RMat(10, 16, 0.57, 0.19, 0.19, /*seed=*/3);
  ASSERT_TRUE(rmat.ok());
  auto conv = ConvertToWeightedUndirected(rmat->num_vertices, rmat->edges);
  ASSERT_TRUE(conv.ok());
  EXPECT_TRUE(SameAsReference(
      *conv, NaiveSymmetric(rmat->num_vertices, rmat->edges, true)));
}

TEST(SymmetricBuilderTest, RejectsBadInputLikeBefore) {
  EXPECT_EQ(ConvertToWeightedUndirected(-1, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildSymmetric(1, {{0, 1}}).status().message(),
            "edge endpoint out of range [0,1)");
  EXPECT_EQ(ConvertToWeightedUndirected(3, {{-1, 2}}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace spinner
