// The §IV.A.1 conversion as a Pregel vertex program must reproduce the
// offline conversion exactly: reciprocal pairs get weight 2 on both sides,
// single directions gain a weight-1 reverse edge.
#include "spinner/conversion_program.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/generators.h"

namespace spinner {
namespace {

/// Runs the conversion program on the raw directed graph and returns each
/// vertex's (target, weight) edge set.
std::map<VertexId, std::vector<std::pair<VertexId, EdgeWeight>>>
RunInEngineConversion(int64_t n, const EdgeList& directed) {
  auto raw = CsrGraph::FromEdges(n, directed);
  SPINNER_CHECK(raw.ok());
  pregel::EngineConfig config;
  config.num_workers = 3;
  auto converted = ConvertInEngine(*raw, config);
  SPINNER_CHECK(converted.ok());

  std::map<VertexId, std::vector<std::pair<VertexId, EdgeWeight>>> result;
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = converted->Neighbors(v);
    const auto wts = converted->Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      result[v].emplace_back(nbrs[i], wts[i]);
    }
  }
  return result;
}

TEST(SpinnerConversionTest, InEngineMatchesOfflineConversion) {
  auto rmat = RMat(7, 6, 0.5, 0.2, 0.2, /*seed=*/3);
  ASSERT_TRUE(rmat.ok());
  EdgeList directed = rmat->edges;
  RemoveSelfLoops(&directed);
  SortAndDedup(&directed);

  auto offline = ConvertToWeightedUndirected(rmat->num_vertices, directed);
  ASSERT_TRUE(offline.ok());
  auto in_engine = RunInEngineConversion(rmat->num_vertices, directed);

  for (VertexId v = 0; v < rmat->num_vertices; ++v) {
    auto nbrs = offline->Neighbors(v);
    auto wts = offline->Weights(v);
    const auto& got = in_engine[v];
    ASSERT_EQ(got.size(), nbrs.size()) << "vertex " << v;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(got[i].first, nbrs[i]) << "vertex " << v;
      EXPECT_EQ(got[i].second, wts[i]) << "vertex " << v;
    }
  }
}

TEST(SpinnerConversionTest, ReciprocalPairGetsWeightTwoBothSides) {
  auto edges = RunInEngineConversion(2, {{0, 1}, {1, 0}});
  ASSERT_EQ(edges[0].size(), 1u);
  ASSERT_EQ(edges[1].size(), 1u);
  EXPECT_EQ(edges[0][0], (std::pair<VertexId, EdgeWeight>{1, 2}));
  EXPECT_EQ(edges[1][0], (std::pair<VertexId, EdgeWeight>{0, 2}));
}

TEST(SpinnerConversionTest, SingleDirectionCreatesReverseWeightOne) {
  auto edges = RunInEngineConversion(2, {{0, 1}});
  ASSERT_EQ(edges[0].size(), 1u);
  ASSERT_EQ(edges[1].size(), 1u);  // reverse edge materialized
  EXPECT_EQ(edges[0][0], (std::pair<VertexId, EdgeWeight>{1, 1}));
  EXPECT_EQ(edges[1][0], (std::pair<VertexId, EdgeWeight>{0, 1}));
}

}  // namespace
}  // namespace spinner
