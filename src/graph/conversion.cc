#include "graph/conversion.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "graph/edge_list.h"

namespace spinner {

namespace {

Status ValidateRange(int64_t num_vertices, const EdgeList& edges) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!EdgesInRange(edges, num_vertices)) {
    return Status::InvalidArgument(
        StrFormat("edge endpoint out of range [0,%lld)",
                  static_cast<long long>(num_vertices)));
  }
  return Status::OK();
}

// The one builder behind both conversions. Each non-loop edge becomes the
// canonical pair (lo, hi) = (min, max) with a direction bit (1: lo->hi,
// 2: hi->lo), and the symmetric CSR is built in three passes:
//   1. counting-sort the pairs into per-lo buckets of (hi << 2 | dir) words;
//   2. sort each bucket and merge equal hi in place, OR-ing the direction
//      bits, so every bucket lists its distinct hi ascending;
//   3. for lo ascending, append hi to row lo and lo to row hi. Row v then
//      holds its lower neighbours (appended while lo < v) followed by its
//      own bucket, so every row comes out sorted.
// A pair seen in both directions weighs `reciprocal_weight`, any other 1.
Result<CsrGraph> BuildSymmetricCsr(int64_t num_vertices, const EdgeList& edges,
                                   EdgeWeight reciprocal_weight) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, edges));
  const auto n = static_cast<size_t>(num_vertices);

  // Pass 1. Counting into bucket[lo + 2] and filling at bucket[lo + 1]
  // leaves bucket[lo] = start of lo's words and bucket[lo + 1] = its end.
  std::vector<int64_t> bucket(n + 2, 0);
  for (const Edge& e : edges) {
    if (e.src != e.dst) ++bucket[std::min(e.src, e.dst) + 2];
  }
  for (size_t v = 2; v < n + 2; ++v) bucket[v] += bucket[v - 1];
  std::vector<uint64_t> words(bucket[n + 1]);
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;  // self-loops carry no cut information
    const bool forward = e.src < e.dst;
    const VertexId lo = forward ? e.src : e.dst;
    const VertexId hi = forward ? e.dst : e.src;
    words[bucket[lo + 1]++] =
        static_cast<uint64_t>(hi) << 2 | (forward ? 1u : 2u);
  }

  // Pass 2. Buckets shrink to their distinct pairs and are packed to the
  // front of `words`; bucket[lo] becomes the packed start. Degrees are
  // counted on the way, offset by one for the prefix sum.
  std::vector<int64_t> offsets(n + 1, 0);
  int64_t read = 0;
  int64_t write = 0;
  for (size_t lo = 0; lo < n; ++lo) {
    const int64_t end = bucket[lo + 1];
    std::sort(words.begin() + read, words.begin() + end);
    bucket[lo] = write;
    for (int64_t i = read; i < end; ++i) {
      if (write > bucket[lo] && (words[write - 1] >> 2) == (words[i] >> 2)) {
        words[write - 1] |= words[i];
      } else {
        words[write++] = words[i];
        ++offsets[(words[i] >> 2) + 1];
      }
    }
    offsets[lo + 1] += write - bucket[lo];
    read = end;
  }
  bucket[n] = write;
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  // Pass 3. Both arcs of every pair, lo ascending.
  std::vector<VertexId> targets(2 * write);
  std::vector<EdgeWeight> weights(2 * write);
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t lo = 0; lo < n; ++lo) {
    for (int64_t i = bucket[lo]; i < bucket[lo + 1]; ++i) {
      const auto hi = static_cast<VertexId>(words[i] >> 2);
      const EdgeWeight w = (words[i] & 3) == 3 ? reciprocal_weight : 1u;
      const int64_t out = cursor[lo]++;
      const int64_t in = cursor[hi]++;
      targets[out] = hi;
      weights[out] = w;
      targets[in] = static_cast<VertexId>(lo);
      weights[in] = w;
    }
  }
  return CsrGraph::FromSortedRows(num_vertices, std::move(offsets),
                                  std::move(targets), std::move(weights));
}

}  // namespace

Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges) {
  // Both directions present => the pair carries twice the traffic (Eq. 3).
  return BuildSymmetricCsr(num_vertices, directed_edges, 2);
}

Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges) {
  return BuildSymmetricCsr(num_vertices, edges, 1);
}

}  // namespace spinner
