#include "graph/remap.h"

#include <algorithm>
#include <limits>

namespace spinner {

VertexIdMapping CompactVertexIds(EdgeList* edges) {
  VertexIdMapping mapping;
  if (edges->empty()) return mapping;
  VertexId min_id = std::numeric_limits<VertexId>::max();
  VertexId max_id = std::numeric_limits<VertexId>::min();
  for (const Edge& e : *edges) {
    min_id = std::min({min_id, e.src, e.dst});
    max_id = std::max({max_id, e.src, e.dst});
  }
  const auto num_endpoints = static_cast<VertexId>(2 * edges->size());

  if (min_id >= 0 && max_id < num_endpoints) {
    // Ids no larger than the endpoint count: a presence table over
    // [0, max_id], then a prefix scan numbers the present ids in order.
    std::vector<VertexId> dense(max_id + 1, 0);
    for (const Edge& e : *edges) {
      dense[e.src] = 1;
      dense[e.dst] = 1;
    }
    VertexId next = 0;
    for (VertexId id = 0; id <= max_id; ++id) {
      if (dense[id] != 0) {
        dense[id] = next++;
        mapping.original_id.push_back(id);
      }
    }
    for (Edge& e : *edges) {
      e.src = dense[e.src];
      e.dst = dense[e.dst];
    }
    return mapping;
  }

  // Sparse (or negative) ids: sort the distinct ids, then binary-search.
  mapping.original_id.reserve(2 * edges->size());
  for (const Edge& e : *edges) {
    mapping.original_id.push_back(e.src);
    mapping.original_id.push_back(e.dst);
  }
  std::sort(mapping.original_id.begin(), mapping.original_id.end());
  mapping.original_id.erase(
      std::unique(mapping.original_id.begin(), mapping.original_id.end()),
      mapping.original_id.end());
  const auto to_dense = [&](VertexId id) {
    return static_cast<VertexId>(
        std::lower_bound(mapping.original_id.begin(),
                         mapping.original_id.end(), id) -
        mapping.original_id.begin());
  };
  for (Edge& e : *edges) {
    e.src = to_dense(e.src);
    e.dst = to_dense(e.dst);
  }
  return mapping;
}

}  // namespace spinner
