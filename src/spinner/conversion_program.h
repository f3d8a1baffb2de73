// §IV.A.1: the directed→weighted-undirected conversion as a Pregel vertex
// program, the way the Giraph implementation runs it:
//
//   NeighborPropagation ─► NeighborDiscovery
//
// In NeighborPropagation every vertex sends its id along its directed
// out-edges. In NeighborDiscovery a vertex v receiving u's id either finds
// v→u among its own out-edges (the pair is reciprocal: weight 2, Eq. 3) or
// creates the reverse edge v→u with weight 1, making the graph symmetric.
//
// The returned graph is identical to ConvertToWeightedUndirected's
// (graph/conversion.h), so in_engine_conversion runs hand the one label
// propagation path (RunOnBackend, spinner/partitioner.h) the same input as
// offline runs and produce bit-identical results.
#ifndef SPINNER_SPINNER_CONVERSION_PROGRAM_H_
#define SPINNER_SPINNER_CONVERSION_PROGRAM_H_

#include "common/result.h"
#include "graph/csr_graph.h"
#include "pregel/engine.h"

namespace spinner {

/// Runs the two conversion supersteps over `directed` — a raw directed
/// graph without self-loops or duplicate arcs — on a Pregel engine with
/// `engine_config`, and returns the symmetric weighted graph.
Result<CsrGraph> ConvertInEngine(const CsrGraph& directed,
                                 const pregel::EngineConfig& engine_config);

}  // namespace spinner

#endif  // SPINNER_SPINNER_CONVERSION_PROGRAM_H_
