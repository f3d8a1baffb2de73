#include "spinner/conversion_program.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "pregel/topology.h"

namespace spinner {

namespace {

/// Vertex values are unused; edges carry the Eq. 3 weight; messages carry
/// the sender's id.
using ConversionHandle = pregel::VertexHandle<char, EdgeWeight, VertexId>;

class ConversionProgram final
    : public pregel::VertexProgram<char, EdgeWeight, VertexId> {
 public:
  void Compute(ConversionHandle& vertex,
               std::span<const VertexId> sources) override {
    if (vertex.superstep() == 0) {
      // NeighborPropagation: advertise this vertex across its out-edges so
      // their endpoints discover the incoming edge.
      vertex.SendMessageToAllEdges(vertex.id());
      return;
    }
    // NeighborDiscovery: a message from u means the directed edge u→v
    // exists. The original out-edges arrive sorted from the CSR and stay
    // a sorted prefix while reverse edges are appended behind them.
    auto& edges = vertex.mutable_edges();
    const auto original = static_cast<std::ptrdiff_t>(edges.size());
    for (const VertexId u : sources) {
      const auto end = edges.begin() + original;
      const auto it = std::lower_bound(
          edges.begin(), end, u,
          [](const pregel::OutEdge<EdgeWeight>& e, VertexId target) {
            return e.target < target;
          });
      if (it != end && it->target == u) {
        it->value = 2;
      } else {
        vertex.AddEdge(u, 1);
      }
    }
    vertex.VoteToHalt();
  }
};

}  // namespace

Result<CsrGraph> ConvertInEngine(const CsrGraph& directed,
                                 const pregel::EngineConfig& engine_config) {
  pregel::PregelEngine<char, EdgeWeight, VertexId> engine(
      directed, engine_config,
      pregel::HashPlacement(engine_config.num_workers),
      [](VertexId) { return char{0}; },
      [](VertexId, VertexId, EdgeWeight w) { return w; });
  ConversionProgram program;
  engine.Run(program);

  const int64_t n = directed.NumVertices();
  EdgeList arcs;
  std::vector<EdgeWeight> weights;
  arcs.reserve(static_cast<size_t>(2 * directed.NumArcs()));
  weights.reserve(arcs.capacity());
  for (VertexId v = 0; v < n; ++v) {
    for (const pregel::OutEdge<EdgeWeight>& e : engine.EdgesOf(v)) {
      arcs.push_back(Edge{v, e.target});
      weights.push_back(e.value);
    }
  }
  return CsrGraph::FromEdges(n, arcs, weights);
}

}  // namespace spinner
