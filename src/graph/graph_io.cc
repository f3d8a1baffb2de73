#include "graph/graph_io.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "common/string_util.h"

namespace spinner::graph_io {

namespace {

// Longest field ParseInt64 accepts; the fast path leaves longer digit runs
// to the general path so both reject them alike.
constexpr std::ptrdiff_t kMaxFieldChars = 31;

// Output lines are formatted into a buffer of this size; one line of two
// 64-bit integers takes at most kMaxLineChars.
constexpr size_t kWriteBlockBytes = size_t{1} << 16;
constexpr size_t kMaxLineChars = 2 * 20 + 2;

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

bool IsCommentOrBlank(std::string_view line) {
  line = Trim(line);
  return line.empty() || line[0] == '#' || line[0] == '%';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsBlank(char c) { return c == ' ' || c == '\t'; }

// Parses the unsigned decimal field starting at `p`; returns the end of its
// digits, or nullptr if there are none, too many or the value overflows.
const char* ParseDigits(const char* p, const char* end, int64_t* out) {
  if (p == end || !IsDigit(*p)) return nullptr;
  const auto [stop, ec] = std::from_chars(p, end, *out);
  if (ec != std::errc() || stop - p > kMaxFieldChars) return nullptr;
  return stop;
}

// The common line shape `digits [ \t]+ digits (EOL | [ \t] ...)`. Every
// line it accepts is accepted with the same values by ParseGeneralLine.
bool ParseCommonLine(const char* p, const char* end, int64_t* a, int64_t* b) {
  p = ParseDigits(p, end, a);
  if (p == nullptr || p == end || !IsBlank(*p)) return false;
  while (p != end && IsBlank(*p)) ++p;
  p = ParseDigits(p, end, b);
  return p != nullptr && (p == end || IsBlank(*p));
}

// The grammar itself: the first two space/tab-separated fields of the
// line, each parsed by ParseInt64.
bool ParseGeneralLine(std::string_view line, int64_t* a, int64_t* b) {
  const auto fields = SplitWhitespace(line);
  return fields.size() >= 2 && ParseInt64(fields[0], a) &&
         ParseInt64(fields[1], b);
}

Status MalformedLine(const std::string& path, const char* kind,
                     int64_t line_no, std::string_view line) {
  return Status::InvalidArgument(StrFormat(
      "%s:%lld: malformed %s line: '%s'", path.c_str(),
      static_cast<long long>(line_no), kind, std::string(Trim(line)).c_str()));
}

// Reads `file` in kReadBlockBytes blocks and calls
// `on_pair(line_no, line, a, b)` with the first two integer fields of every
// line that is not blank or a comment; a line without two integer fields is
// malformed. A line cut by a block end is carried over to the next block.
template <typename OnPair>
Status ScanIntegerPairs(std::FILE* file, const std::string& path,
                        const char* kind, OnPair on_pair) {
  int64_t line_no = 0;
  auto scan_line = [&](const char* begin, const char* end) -> Status {
    ++line_no;
    const std::string_view line(begin, static_cast<size_t>(end - begin));
    int64_t a = 0;
    int64_t b = 0;
    if (!ParseCommonLine(begin, end, &a, &b)) {
      if (IsCommentOrBlank(line)) return Status::OK();
      if (!ParseGeneralLine(line, &a, &b)) {
        return MalformedLine(path, kind, line_no, line);
      }
    }
    return on_pair(line_no, line, a, b);
  };

  std::string buffer(kReadBlockBytes, '\0');
  size_t carried = 0;  // bytes of an unfinished line at the buffer's front
  for (;;) {
    // A line longer than the buffer: grow it so the line fits whole.
    if (carried == buffer.size()) buffer.resize(2 * buffer.size());
    const size_t got =
        std::fread(buffer.data() + carried, 1, buffer.size() - carried, file);
    if (got == 0) break;
    const char* p = buffer.data();
    const char* const end = p + carried + got;
    while (const char* eol = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<size_t>(end - p)))) {
      SPINNER_RETURN_IF_ERROR(scan_line(p, eol));
      p = eol + 1;
    }
    carried = static_cast<size_t>(end - p);
    std::memmove(buffer.data(), p, carried);
  }
  if (std::ferror(file)) {
    return Status::IOError("read error on: " + path);
  }
  if (carried > 0) {
    SPINNER_RETURN_IF_ERROR(scan_line(buffer.data(), buffer.data() + carried));
  }
  return Status::OK();
}

// Writes one line per index in [0, count), each formatted by
// `format_line(out, i)` (returns the end of what it wrote).
template <typename FormatLine>
Status WriteLines(const std::string& path, size_t count,
                  FormatLine format_line) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  std::string block(kWriteBlockBytes, '\0');
  char* const begin = block.data();
  char* p = begin;
  for (size_t i = 0; i < count; ++i) {
    if (static_cast<size_t>(p - begin) > kWriteBlockBytes - kMaxLineChars) {
      out.write(begin, p - begin);
      p = begin;
    }
    p = format_line(p, i);
  }
  out.write(begin, p - begin);
  out.flush();
  if (!out) {
    return Status::IOError("write error on: " + path);
  }
  return Status::OK();
}

template <typename A, typename B>
char* FormatPair(char* p, A a, B b) {
  p = std::to_chars(p, p + 20, a).ptr;
  *p++ = ' ';
  p = std::to_chars(p, p + 20, b).ptr;
  *p++ = '\n';
  return p;
}

}  // namespace

Result<EdgeList> ReadEdgeList(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  EdgeList edges;
  SPINNER_RETURN_IF_ERROR(ScanIntegerPairs(
      file.get(), path, "edge",
      [&](int64_t line_no, std::string_view line, int64_t src, int64_t dst) {
        if (src < 0 || dst < 0) {
          return MalformedLine(path, "edge", line_no, line);
        }
        edges.push_back({src, dst});
        return Status::OK();
      }));
  return edges;
}

Status WriteEdgeList(const std::string& path, const EdgeList& edges) {
  return WriteLines(path, edges.size(), [&](char* p, size_t i) {
    return FormatPair(p, edges[i].src, edges[i].dst);
  });
}

Result<std::vector<PartitionId>> ReadPartitioning(const std::string& path,
                                                  int64_t num_vertices) {
  File file(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    return Status::IOError("cannot open partition file: " + path);
  }
  std::vector<PartitionId> assignment(num_vertices, kNoPartition);
  SPINNER_RETURN_IF_ERROR(ScanIntegerPairs(
      file.get(), path, "partition",
      [&](int64_t line_no, std::string_view line, int64_t vertex,
          int64_t part) {
        if (part < 0) return MalformedLine(path, "partition", line_no, line);
        if (vertex < 0 || vertex >= num_vertices) {
          return Status::OutOfRange(StrFormat(
              "%s:%lld: vertex %lld outside [0,%lld)", path.c_str(),
              static_cast<long long>(line_no), static_cast<long long>(vertex),
              static_cast<long long>(num_vertices)));
        }
        if (assignment[vertex] != kNoPartition) {
          return Status::InvalidArgument(StrFormat(
              "%s:%lld: vertex %lld assigned twice", path.c_str(),
              static_cast<long long>(line_no),
              static_cast<long long>(vertex)));
        }
        assignment[vertex] = static_cast<PartitionId>(part);
        return Status::OK();
      }));
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (assignment[v] == kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld has no partition in %s", static_cast<long long>(v),
          path.c_str()));
    }
  }
  return assignment;
}

Status WritePartitioning(const std::string& path,
                         const std::vector<PartitionId>& assignment) {
  return WriteLines(path, assignment.size(), [&](char* p, size_t v) {
    return FormatPair(p, v, assignment[v]);
  });
}

}  // namespace spinner::graph_io
