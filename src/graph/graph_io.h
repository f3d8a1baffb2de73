// Text I/O: edge lists and partition maps.
//
// Both formats are line-oriented text of two integers per line. A line ends
// at '\n' (a last line without one still counts) and is numbered from 1.
// Grammar, per line:
//   * blank or comment: after trimming whitespace (space, \t, \n, \v, \f,
//     \r) the line is empty or starts with '#' or '%'. Skipped.
//   * data: the line splits on runs of spaces and tabs into at least two
//     fields; the first two are the integers, further fields are ignored.
//     A field is a base-10 int64: surrounding \v, \f or \r are trimmed
//     (so CRLF line ends are accepted), then an optional '+' or '-' sign
//     and digits, at most 31 characters in all, without overflow.
//   * anything else is malformed: InvalidArgument naming "path:line".
// Edge lists: "src dst", both non-negative (SNAP format). Partition maps:
// "vertex partition", partition non-negative, vertex in [0, n).
//
// Readers scan the file in blocks of kReadBlockBytes with one reusable
// buffer (never the whole file at once); writers format into a fixed
// block buffer. Neither spawns threads.
#ifndef SPINNER_GRAPH_GRAPH_IO_H_
#define SPINNER_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/types.h"

namespace spinner::graph_io {

/// Size of the blocks the readers fetch from the file. A line longer than
/// the buffer grows it to fit.
inline constexpr size_t kReadBlockBytes = size_t{1} << 16;

/// Reads an edge list. Vertices are as numbered in the file; callers can get
/// the vertex count from MaxVertexId()+1. Fails with IOError if the file
/// cannot be opened or read and InvalidArgument on a malformed line (message
/// names the line number).
Result<EdgeList> ReadEdgeList(const std::string& path);

/// Writes "src dst\n" per edge.
Status WriteEdgeList(const std::string& path, const EdgeList& edges);

/// Reads a partition map for `num_vertices` vertices. Every vertex must be
/// assigned exactly once; partitions must be non-negative. Fails with
/// InvalidArgument on a malformed line, a vertex assigned twice or a vertex
/// left out, and OutOfRange on a vertex outside [0, num_vertices).
Result<std::vector<PartitionId>> ReadPartitioning(const std::string& path,
                                                  int64_t num_vertices);

/// Writes "vertex partition\n" per vertex.
Status WritePartitioning(const std::string& path,
                         const std::vector<PartitionId>& assignment);

}  // namespace spinner::graph_io

#endif  // SPINNER_GRAPH_GRAPH_IO_H_
