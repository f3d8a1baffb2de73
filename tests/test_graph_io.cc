#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace spinner {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 0}, {5, 3}};
  const std::string path = TempPath("edges_roundtrip.txt");
  ASSERT_TRUE(graph_io::WriteEdgeList(path, edges).ok());
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, edges);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadSkipsCommentsAndBlankLines) {
  const std::string path = TempPath("edges_comments.txt");
  WriteFile(path, "# SNAP-style header\n% matrix-market comment\n\n0 1\n\n1 2\n");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (EdgeList{{0, 1}, {1, 2}}));
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadAcceptsTabsAndExtraColumns) {
  const std::string path = TempPath("edges_tabs.txt");
  WriteFile(path, "0\t1\n1\t2\t99\n");  // third column (weight) ignored
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (EdgeList{{0, 1}, {1, 2}}));
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadMissingFileIsIOError) {
  auto read = graph_io::ReadEdgeList("/nonexistent/path/nope.txt");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, ReadMalformedLineNamesLineNumber) {
  const std::string path = TempPath("edges_bad.txt");
  WriteFile(path, "0 1\nnot numbers\n");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadRejectsNegativeIds) {
  const std::string path = TempPath("edges_neg.txt");
  WriteFile(path, "0 -1\n");
  EXPECT_FALSE(graph_io::ReadEdgeList(path).ok());
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, WriteToUnwritablePathIsIOError) {
  EXPECT_EQ(graph_io::WriteEdgeList("/nonexistent/dir/out.txt", {}).code(),
            StatusCode::kIOError);
}

TEST_F(GraphIoTest, PartitioningRoundTrip) {
  const std::vector<PartitionId> assignment = {2, 0, 1, 1, 0};
  const std::string path = TempPath("parts_roundtrip.txt");
  ASSERT_TRUE(graph_io::WritePartitioning(path, assignment).ok());
  auto read = graph_io::ReadPartitioning(path, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, assignment);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningMissingVertexFails) {
  const std::string path = TempPath("parts_missing.txt");
  WriteFile(path, "0 1\n2 0\n");  // vertex 1 absent
  auto read = graph_io::ReadPartitioning(path, 3);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningDuplicateVertexFails) {
  const std::string path = TempPath("parts_dup.txt");
  WriteFile(path, "0 1\n0 2\n1 0\n");
  EXPECT_FALSE(graph_io::ReadPartitioning(path, 2).ok());
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningOutOfRangeVertexFails) {
  const std::string path = TempPath("parts_oor.txt");
  WriteFile(path, "0 1\n7 0\n");
  auto read = graph_io::ReadPartitioning(path, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningNegativeLabelFails) {
  const std::string path = TempPath("parts_neg.txt");
  WriteFile(path, "0 -3\n1 0\n");
  EXPECT_FALSE(graph_io::ReadPartitioning(path, 2).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------------------
// The block scanner against a line-at-a-time reference.
//
// OracleReadEdgeList / OracleReadPartitioning are the getline readers the
// block scanner replaced, kept verbatim as the definition of the grammar:
// for every input the library must return the same values, or the same
// Status code and message.

bool OracleIsCommentOrBlank(std::string_view line) {
  line = Trim(line);
  return line.empty() || line[0] == '#' || line[0] == '%';
}

Result<EdgeList> OracleReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  EdgeList edges;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (OracleIsCommentOrBlank(line)) continue;
    const auto fields = SplitWhitespace(line);
    int64_t src = 0;
    int64_t dst = 0;
    if (fields.size() < 2 || !ParseInt64(fields[0], &src) ||
        !ParseInt64(fields[1], &dst) || src < 0 || dst < 0) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: malformed edge line: '%s'", path.c_str(),
          static_cast<long long>(line_no), std::string(Trim(line)).c_str()));
    }
    edges.push_back({src, dst});
  }
  if (in.bad()) {
    return Status::IOError("read error on: " + path);
  }
  return edges;
}

Result<std::vector<PartitionId>> OracleReadPartitioning(
    const std::string& path, int64_t num_vertices) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open partition file: " + path);
  }
  std::vector<PartitionId> assignment(num_vertices, kNoPartition);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (OracleIsCommentOrBlank(line)) continue;
    const auto fields = SplitWhitespace(line);
    int64_t vertex = 0;
    int64_t part = 0;
    if (fields.size() < 2 || !ParseInt64(fields[0], &vertex) ||
        !ParseInt64(fields[1], &part) || part < 0) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: malformed partition line: '%s'", path.c_str(),
          static_cast<long long>(line_no), std::string(Trim(line)).c_str()));
    }
    if (vertex < 0 || vertex >= num_vertices) {
      return Status::OutOfRange(StrFormat(
          "%s:%lld: vertex %lld outside [0,%lld)", path.c_str(),
          static_cast<long long>(line_no), static_cast<long long>(vertex),
          static_cast<long long>(num_vertices)));
    }
    if (assignment[vertex] != kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: vertex %lld assigned twice", path.c_str(),
          static_cast<long long>(line_no), static_cast<long long>(vertex)));
    }
    assignment[vertex] = static_cast<PartitionId>(part);
  }
  if (in.bad()) {
    return Status::IOError("read error on: " + path);
  }
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (assignment[v] == kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld has no partition in %s", static_cast<long long>(v),
          path.c_str()));
    }
  }
  return assignment;
}

template <typename T>
::testing::AssertionResult SameResult(const Result<T>& got,
                                      const Result<T>& want) {
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "got " << got.status() << ", want " << want.status();
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return ::testing::AssertionFailure()
             << "got " << got.status() << ", want " << want.status();
    }
    return ::testing::AssertionSuccess();
  }
  if (*got != *want) {
    return ::testing::AssertionFailure()
           << "values differ (" << got->size() << " vs " << want->size()
           << " entries)";
  }
  return ::testing::AssertionSuccess();
}

// Writes inputs byte for byte and runs both readers on them.
class GraphIoOracleTest : public GraphIoTest {
 protected:
  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Writes `content` and asserts both readers agree on it, as an edge list
  // and as a partition map over vertices 0..3.
  ::testing::AssertionResult AgreesWithOracle(const std::string& content) {
    constexpr int64_t kNumVertices = 4;
    // One file per test: ctest runs the tests of this suite in parallel.
    const std::string path = TempPath(
        std::string("oracle_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    WriteBytes(path, content);
    auto edges = SameResult(graph_io::ReadEdgeList(path),
                            OracleReadEdgeList(path));
    auto parts = SameResult(graph_io::ReadPartitioning(path, kNumVertices),
                            OracleReadPartitioning(path, kNumVertices));
    std::remove(path.c_str());
    if (!edges) return edges << " [edge list]";
    if (!parts) return parts << " [partition map]";
    return ::testing::AssertionSuccess();
  }
};

TEST_F(GraphIoOracleTest, EdgeCaseTableMatchesLineReader) {
  const std::vector<std::string> cases = {
      "",                                      // empty file
      "\n",                                    // one blank line
      "0 1",                                   // no trailing newline
      "0 1\n2 3",                              // last line unterminated
      "+7 1\n",                                // leading plus
      "1 +7\n",
      "0 1\r\n1 2\r\n",                        // CRLF
      "0 1\r\n1 2",                            // CRLF, last line bare
      "\r\n0 1\n",                             // CR-only blank line
      "0\r1\n",                                // lone CR inside a line
      "0 1\r\r\n",                             // two CRs before LF
      "0\v1\n",                                // VT inside a line
      "\v0 1\v\n",                             // VT around the fields
      "0 \v1\n",
      "0\f 1\n",
      "  # indented comment\n0 1\n",
      "\t% indented comment\n0 1\n",
      "\v#comment\n1 0\n",
      "# comment 1 2\n%1 2\n0 1\n",
      "0 1 # trailing comment\n",
      "0000000000000000000000000000001 2\n",  // 31 characters: accepted
      "00000000000000000000000000000001 2\n",  // 32 characters: rejected
      "1 00000000000000000000000000000002\n",
      "9223372036854775807 0\n",              // INT64_MAX
      "9223372036854775808 0\n",              // overflow
      "0 99999999999999999999\n",
      "-0 1\n",                                // negative zero
      "1 -0\n",
      "-1 0\n",                                // negative id
      "0 -1\n",
      "- 1\n",
      "+ 1\n",
      "++1 2\n",
      "0x1 2\n",
      "1 2 3 4\n",                             // extra columns
      "1\t2\tfoo bar\n",
      "1 2 \n",
      "1 2\t\n",
      "1 2x\n",
      "1x 2\n",
      "1\n",                                   // one field
      "1 \n",
      " 1 2\n",                                // leading blank
      "\t\t1\t \t2\n",
      "1  \t  2\n",
      "1 2\n\n\n3 0\n",
      std::string("1 2\0\n", 5),              // NUL after a field
      std::string("1\0 2\n", 5),
      std::string("\0\n1 2\n", 6),
      "0 1\n1 1\n1 1\n",                       // vertex assigned twice
      "0 5\n7 1\n",                            // vertex out of range
      "0 1\n1 2\n2 3\n3 0\n",                  // a complete partition map
      "3 0\n2 1\n1 2\n0 3",
  };
  for (const std::string& c : cases) {
    EXPECT_TRUE(AgreesWithOracle(c)) << "input: '" << c << "'";
  }
}

TEST_F(GraphIoOracleTest, ReaderAcceptsTheDocumentedEdgeCases) {
  const std::string path = TempPath("edges_edge_cases.txt");
  WriteBytes(path,
             "+7 1\r\n  # note\n-0 3\n0000000000000000000000000000009 8 x");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, (EdgeList{{7, 1}, {0, 3}, {9, 8}}));

  WriteBytes(path, "0 1\n00000000000000000000000000000009 8\n");
  read = graph_io::ReadEdgeList(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(),
            path + ":2: malformed edge line: "
                   "'00000000000000000000000000000009 8'");
  std::remove(path.c_str());
}

TEST_F(GraphIoOracleTest, LinesStraddlingTheBlockEndMatchLineReader) {
  // Put a run of interesting lines at every offset around the end of the
  // first block, so each of them (and each byte of them) is cut once.
  const std::string run =
      "12345 67890\r\n# c\n  \n+4 5 6\n00000000000000000000000000000001 1"
      "\n7\t8\n9223372036854775807 1\n";
  const std::string bad = "3 4\n5 oops\n";
  const size_t block = graph_io::kReadBlockBytes;
  for (size_t shift = 0; shift <= run.size() + 2; ++shift) {
    std::string content = "0 1\n#";
    content.append(block - shift - content.size() - 1, 'x');
    content += '\n';
    ASSERT_EQ(content.size(), block - shift);
    content += run;
    content += run;
    ASSERT_TRUE(AgreesWithOracle(content)) << "shift " << shift;
    ASSERT_TRUE(AgreesWithOracle(content + bad)) << "shift " << shift;
    ASSERT_TRUE(AgreesWithOracle(content.substr(0, block + 1)))
        << "shift " << shift;
  }
}

TEST_F(GraphIoOracleTest, LineLongerThanABlockMatchesLineReader) {
  const size_t block = graph_io::kReadBlockBytes;
  EXPECT_TRUE(AgreesWithOracle("0 1\n" + std::string(3 * block, ' ') +
                               "1 2\n2 3\n"));
  EXPECT_TRUE(AgreesWithOracle("#" + std::string(2 * block + 17, 'c') +
                               "\n1 2\n"));
  EXPECT_TRUE(AgreesWithOracle("0 1\n" + std::string(block, '7') + " 2\n"));
  EXPECT_TRUE(AgreesWithOracle(std::string(block, '\t') + "1 2"));
}

TEST_F(GraphIoOracleTest, FileOfManyBlocksMatchesLineReader) {
  // About 40 blocks, mixing the fast line shape with lines that need the
  // general path, so both alternate across many block ends.
  std::mt19937_64 rng(7);
  std::string content = "# header\n";
  EdgeList expected;
  for (int i = 0; content.size() < 40 * graph_io::kReadBlockBytes; ++i) {
    const auto src = static_cast<long long>(rng() % 1000000);
    const auto dst = static_cast<long long>(rng() % 1000000);
    expected.push_back({src, dst});
    const char* format = i % 7 == 0   ? "%lld\t%lld\r\n"
                         : i % 7 == 1 ? " %lld %lld w\n"
                         : i % 7 == 2 ? "+%lld %lld\n%% c\n"
                                      : "%lld %lld\n";
    content += StrFormat(format, src, dst);
  }
  const std::string path = TempPath("edges_many_blocks.txt");
  WriteBytes(path, content);
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, expected);
  EXPECT_TRUE(SameResult(read, OracleReadEdgeList(path)));
  std::remove(path.c_str());
}

TEST_F(GraphIoOracleTest, SeededMutationsMatchLineReader) {
  // Bit flips, truncations, splices of two valid files and inserted
  // tokens, each compared with the line reader: same values, or the same
  // Status code and message (the line number included).
  std::mt19937_64 rng(20171);
  std::vector<std::string> valid;
  for (int f = 0; f < 6; ++f) {
    std::string text = f % 2 == 0 ? "# SNAP header\n" : "";
    const int lines = 5 + static_cast<int>(rng() % 40);
    for (int i = 0; i < lines; ++i) {
      const auto a = static_cast<long long>(rng() % (f < 3 ? 4 : 100000));
      const auto b = static_cast<long long>(rng() % 4);
      text += StrFormat(f == 4 ? "%lld\t%lld\r\n" : "%lld %lld\n", a, b);
    }
    valid.push_back(text);
  }
  const std::vector<std::string> tokens = {
      " ", "\t", "\r", "\v", "\n", "-", "+", "#", "%", "0",
      "99999999999999999999", "00000000000000000000000000000000",
      std::string(1, '\0')};
  for (int iter = 0; iter < 1500; ++iter) {
    std::string text = valid[rng() % valid.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      switch (rng() % 4) {
        case 0:  // bit flip
          text[rng() % text.size()] ^= static_cast<char>(1u << (rng() % 8));
          break;
        case 1:  // truncation
          text.resize(rng() % text.size());
          break;
        case 2: {  // splice
          const std::string& other = valid[rng() % valid.size()];
          text = text.substr(0, rng() % (text.size() + 1)) +
                 other.substr(rng() % (other.size() + 1));
          break;
        }
        default:  // token insertion
          text.insert(rng() % (text.size() + 1), tokens[rng() % tokens.size()]);
          break;
      }
    }
    ASSERT_TRUE(AgreesWithOracle(text)) << "iteration " << iter;
  }
}

TEST_F(GraphIoOracleTest, UnreadablePathIsIOErrorLikeLineReader) {
  const std::string dir = testing::TempDir();
  auto read = graph_io::ReadEdgeList(dir);
  auto oracle = OracleReadEdgeList(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(SameResult(read, oracle));
}

// The writers format with std::to_chars into a block buffer; the bytes
// must equal the stream-formatted output they replaced.
TEST_F(GraphIoTest, WritersMatchStreamFormatting) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EdgeList edges = {{0, 0}, {kMax, 1}, {kMin, -1}, {-42, 1234567890123}};
  std::vector<PartitionId> assignment = {
      0, kNoPartition, std::numeric_limits<PartitionId>::max(),
      std::numeric_limits<PartitionId>::min()};
  std::mt19937_64 rng(3);
  for (int i = 0; i < 20000; ++i) {  // several write blocks
    edges.push_back({static_cast<int64_t>(rng()), static_cast<int64_t>(
                                                     rng() % 1000)});
    assignment.push_back(static_cast<PartitionId>(rng() % 64));
  }
  std::ostringstream want_edges;
  for (const Edge& e : edges) want_edges << e.src << ' ' << e.dst << '\n';
  std::ostringstream want_parts;
  for (size_t v = 0; v < assignment.size(); ++v) {
    want_parts << v << ' ' << assignment[v] << '\n';
  }

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string path = TempPath("writer_bytes.txt");
  ASSERT_TRUE(graph_io::WriteEdgeList(path, edges).ok());
  EXPECT_EQ(slurp(path), want_edges.str());
  ASSERT_TRUE(graph_io::WritePartitioning(path, assignment).ok());
  EXPECT_EQ(slurp(path), want_parts.str());
  ASSERT_TRUE(graph_io::WriteEdgeList(path, {}).ok());
  EXPECT_EQ(slurp(path), "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spinner
