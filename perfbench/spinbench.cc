// spinbench: the end-to-end Spinner benchmark. One binary runs one
// workload for a fixed measuring time, checks every output the program
// produces, and prints one JSON result line (see README.md next to this
// file for the metrics, the workloads and how they relate).
//
//   spinbench --workload=cold-partition --seed=1 --seconds=10 --trace=0
//             --work-dir=DIR [--shape=tiny] [--trace-file=FILE]
//
// The benchmark drives only public entry points: graph_io,
// CompactVertexIds and ConvertToWeightedUndirected (src/graph),
// SpinnerPartitioner and PartitioningSession (src/spinner),
// IngestionService (src/stream) and ExecutionMode::kMultiProcess
// (src/dist). With --trace=1 it records spans around those calls and reads
// the counters the program returns (RunStats, WireTraffic, ScheduleStats,
// IngestStats); with --trace=0 it records nothing and reports the
// end-to-end metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/remap.h"
#include "spinner/metrics.h"
#include "spinner/partitioner.h"
#include "spinner/session.h"
#include "stream/checkpoint_log.h"
#include "stream/ingestion_service.h"
#include "stream/trigger_policy.h"

namespace spinner::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// FNV-1a over the labels: the identity of an assignment.
uint64_t Digest(const std::vector<PartitionId>& labels) {
  uint64_t h = 1469598103934665603ULL;
  for (const PartitionId l : labels) {
    uint32_t u = static_cast<uint32_t>(l);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

int NumCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

// ------------------------------------------------------------------ shapes

/// Input sizes of every workload. `full` is the measured shape; `tiny`
/// runs the same code paths in about a second, for the benchmark's tests.
struct Shape {
  int64_t ws_vertices;       // cold-partition / stream-adapt graph
  int ws_neighbors;          // per side: mean degree 2x this
  int rmat_scale;            // elastic-rescale graph
  int num_shards;
  int64_t window_events;     // stream-adapt EventCountPolicy watermark
};

constexpr Shape kFullShape = {400'000, 8, 19, 8, 4000};
constexpr Shape kTinyShape = {2'000, 4, 11, 4, 200};

constexpr double kWsBeta = 0.3;
// Graph500 R-MAT quadrants: a heavy-tailed, skewed degree distribution.
constexpr int kRmatEdgeFactor = 8;
constexpr double kRmatA = 0.57, kRmatB = 0.19, kRmatC = 0.19;
constexpr int kColdK = 32;
constexpr int kStreamK = 32;
// Paper-scale k: the session opens at 48, then grows and shrinks.
constexpr int kRescaleK0 = 48;
constexpr int kRescaleChain[] = {64, 96, 128, 64, 32};
constexpr int kWindowsPerSegment = 3;
constexpr double kCapacity = 1.05;  // SpinnerConfig default c
// The elastic workloads run a fixed number of LPA iterations per call
// (halting off): on the skewed R-MAT graphs the halting heuristic stops
// anywhere between 18 and 24 iterations depending on the seed, which would
// make the chain's work, not its speed, vary from seed to seed.
constexpr int kRescaleIterations = 20;
// Repetitions of the measured unit, at least, whatever --seconds says:
// every run compares digests across repetitions.
constexpr int kMinReps = 2;
// stream-adapt takes the median of at least three segments: one segment's
// checkpoint writes and re-slices vary by about 10% between repetitions,
// and the median of two is their mean.
constexpr int kStreamMinReps = 3;
// Setup repetitions of cold-partition (its set-up is cheap, so it is
// repeated on its own; session workloads set up once per repetition).
constexpr int kColdSetupReps = 5;
// A stream producer whose events stop being ingested for this long
// declares the service stuck, counts what is left as failed and stops.
constexpr auto kStallDeadline = std::chrono::seconds(30);
constexpr auto kSubmitSlice = std::chrono::milliseconds(50);

// ---------------------------------------------------------------- tracing

/// In-memory spans (name, start, end), recorded only in traced runs;
/// written out as a Chrome trace-event file when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  /// Opens a span; returns its id, or -1 when tracing is off.
  int Begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, Now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id >= 0) spans_[id].end = Now();
  }

  /// Total duration per span name.
  std::map<std::string, double> Totals() const {
    std::map<std::string, double> total;
    for (const SpanRec& s : spans_) total[s.name] += s.end - s.start;
    return total;
  }

  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i == 0 ? "" : ",", spans_[i].name.c_str(),
                   spans_[i].start * 1e6,
                   (spans_[i].end - spans_[i].start) * 1e6);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct SpanRec {
    std::string name;
    double start;
    double end;
  };
  double Now() const { return SecondsSince(origin_); }

  bool on_;
  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// -------------------------------------------------------------- reporting

struct Metric {
  double value;
  const char* unit;
};

/// Operation and check accounting plus every metric of one run.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable facts printed before the result line.
  std::vector<std::string> notes;

  /// One lifecycle call or submitted event.
  bool Op(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    std::fprintf(stderr, "spinbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    return false;
  }

  /// One output check; a failed check counts as a failed operation.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    ++failed;
    std::fprintf(stderr, "spinbench: check failed: %s\n", what.c_str());
  }

  void Note(const std::string& line) { notes.push_back(line); }
};

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// The in-memory size of a converted CSR graph against this host's L2:
/// a graph bigger than L2 is the regime the paper runs in.
std::string GraphNote(int64_t vertices, int64_t arcs) {
  const int64_t bytes =
      (vertices + 1) * static_cast<int64_t>(sizeof(int64_t)) +
      arcs * static_cast<int64_t>(sizeof(VertexId) + sizeof(EdgeWeight)) +
      vertices * static_cast<int64_t>(sizeof(int64_t));
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return Fmt("graph: vertices=%" PRId64 " arcs=%" PRId64
             " csr_bytes=%" PRId64 " csr_over_l2=%.1f",
             vertices, arcs, bytes,
             l2 > 0 ? static_cast<double>(bytes) / static_cast<double>(l2)
                    : 0.0);
}

/// Checks one assignment: coverage, label range, and φ/ρ recomputed with
/// ComputeMetrics equal to what the program returned.
void CheckAssignment(Report* report, const char* what, const CsrGraph& graph,
                     const std::vector<PartitionId>& labels, int k,
                     const PartitionMetrics& returned) {
  report->Check(static_cast<int64_t>(labels.size()) == graph.NumVertices(),
                Fmt("%s: assignment covers %zu of %" PRId64 " vertices",
                    what, labels.size(), graph.NumVertices()));
  const bool in_range =
      std::all_of(labels.begin(), labels.end(),
                  [k](PartitionId l) { return l >= 0 && l < k; });
  report->Check(in_range, Fmt("%s: a label is outside [0, %d)", what, k));
  if (!in_range || static_cast<int64_t>(labels.size()) != graph.NumVertices()) {
    return;
  }
  auto metrics = ComputeMetrics(graph, labels, k, kCapacity);
  report->Check(metrics.ok(), Fmt("%s: ComputeMetrics failed", what));
  if (!metrics.ok()) return;
  report->Check(metrics->phi == returned.phi && metrics->rho == returned.rho,
                Fmt("%s: recomputed phi/rho %.17g/%.17g != returned "
                    "%.17g/%.17g",
                    what, metrics->phi, metrics->rho, returned.phi,
                    returned.rho));
}

/// Peak resident set of this process, plus the largest reaped child
/// (the forked shard workers of kMultiProcess), in MB.
double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// Per-layer LPA totals read from RunStats::per_superstep: superstep 0 is
/// Initialize, odd supersteps ComputeScores, even ones ComputeMigrations.
struct LpaTotals {
  double init_s = 0.0;
  double scores_s = 0.0;
  double migrations_s = 0.0;
  double driver_s = 0.0;
  int64_t iterations = 0;
  double arc_iterations = 0.0;  // Σ arcs × iterations

  void Add(const PartitionResult& r, int64_t arcs) {
    for (const pregel::SuperstepStats& s : r.run_stats.per_superstep) {
      if (s.superstep == 0) {
        init_s += s.wall_seconds;
      } else if (s.superstep % 2 == 1) {
        scores_s += s.wall_seconds;
      } else {
        migrations_s += s.wall_seconds;
      }
    }
    driver_s += r.run_stats.total_wall_seconds;
    iterations += r.iterations;
    arc_iterations += static_cast<double>(arcs) * r.iterations;
  }
};

/// Fills every per-layer metric with its "layer did no work" value, so
/// each workload publishes the full set; workloads overwrite what they
/// measure. ScheduleStats is -1 (unavailable) unless the program filled
/// it: PartitioningSession drops it, so zeros would be a false reading.
void DefaultLayers(Report* r) {
  for (const char* name :
       {"graph_io.parse_s", "remap.compact_s", "conversion.convert_s",
        "partition.outside_lpa_s", "graph_io.write_s", "lpa.init_s",
        "lpa.scores_s", "lpa.migrations_s", "lpa.other_s",
        "session.rescale_outside_lpa_s",
        "stream.apply_s_total", "stream.producer_blocked_s", "trace.op_s"}) {
    r->per_layer[name] = {0.0, "s"};
  }
  r->per_layer["graph_io.parse_mb_per_s"] = {0.0, "MB/s"};
  for (const char* name : {"stream.window_apply_p50_ms",
                           "stream.apply_update_ms",
                           "stream.apply_reslice_ms"}) {
    r->per_layer[name] = {0.0, "ms"};
  }
  r->per_layer["lpa.iterations"] = {0.0, "count"};
  r->per_layer["lpa.scores_arcs_per_s"] = {0.0, "1/s"};
  r->per_layer["sched.tasks"] = {-1.0, "count"};
  r->per_layer["sched.stolen_share"] = {-1.0, "ratio"};
  for (const char* name : {"dist.bytes_sent_mb", "dist.bytes_received_mb",
                           "dist.slice_mb_downloaded", "checkpoint.mb"}) {
    r->per_layer[name] = {0.0, "MB"};
  }
  for (const char* name :
       {"dist.frames", "dist.label_entries_sent", "dist.recoveries",
        "stream.windows", "stream.events_coalesced", "stream.queue_high_water",
        "stream.checkpoint_records"}) {
    r->per_layer[name] = {0.0, "count"};
  }
  r->per_layer["stream.apply_lpa_share"] = {0.0, "ratio"};
  r->per_layer["trace.unaccounted_share"] = {0.0, "ratio"};
}

/// LPA layers, averaged per measured repetition.
void PublishLpa(Report* r, const LpaTotals& lpa, int reps) {
  const double n = reps;
  r->per_layer["lpa.init_s"] = {lpa.init_s / n, "s"};
  r->per_layer["lpa.scores_s"] = {lpa.scores_s / n, "s"};
  r->per_layer["lpa.migrations_s"] = {lpa.migrations_s / n, "s"};
  // Driver wall outside the phase supersteps: label-subscription set-up
  // (kMultiProcess) and the master's merges between phases.
  r->per_layer["lpa.other_s"] = {
      (lpa.driver_s - lpa.init_s - lpa.scores_s - lpa.migrations_s) / n, "s"};
  r->per_layer["lpa.iterations"] = {static_cast<double>(lpa.iterations) / n,
                                    "count"};
  r->per_layer["lpa.scores_arcs_per_s"] = {
      lpa.scores_s > 0 ? lpa.arc_iterations / lpa.scores_s : 0.0, "1/s"};
}

/// The end-to-end metrics every workload reports.
void PublishEndToEnd(Report* r, const std::vector<double>& setup_s,
                     const std::vector<double>& op_s,
                     const PartitionMetrics& final_quality,
                     double peak_rss_mb) {
  r->end_to_end["setup_s"] = {Median(setup_s), "s"};
  r->end_to_end["op_s"] = {Median(op_s), "s"};
  r->end_to_end["phi"] = {final_quality.phi, "ratio"};
  r->end_to_end["rho"] = {final_quality.rho, "ratio"};
  r->end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  std::string samples = "samples: setup_s";
  for (const double x : setup_s) samples += Fmt(" %.4f", x);
  samples += " op_s";
  for (const double x : op_s) samples += Fmt(" %.4f", x);
  r->Note(samples);
}

/// Share of the measured operations' wall time not covered by the
/// top-level layer spans directly under "op".
void PublishTraceAccounting(Report* r, const Tracer& tracer,
                            const std::vector<double>& op_s,
                            const std::vector<const char*>& top_level) {
  if (!tracer.on()) return;
  std::map<std::string, double> total = tracer.Totals();
  double covered = 0.0;
  for (const char* name : top_level) covered += total[name];
  double op_total = 0.0;
  for (const double x : op_s) op_total += x;
  r->per_layer["trace.op_s"] = {Median(op_s), "s"};
  r->per_layer["trace.unaccounted_share"] = {
      op_total > 0 ? (op_total - covered) / op_total : 0.0, "ratio"};
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
  std::string trace_file;
};

SpinnerConfig BaseConfig(const Args& args, int k) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.additional_capacity = kCapacity;
  config.seed = args.seed;
  return config;
}

// ---------------------------------------------------------- cold-partition

// The `partition_tool partition` path: text edge list on disk → parse →
// remap → convert → SpinnerPartitioner → assignment file. The only
// workload where ingest (graph_io, remap, conversion) dominates.
Report RunColdPartition(const Args& args, const Shape& shape, Tracer* tracer) {
  Report report;
  DefaultLayers(&report);
  const std::string edges_path = args.work_dir + "/edges.txt";
  const std::string parts_path = args.work_dir + "/parts.txt";

  // Set-up: generate the input and write it, several times.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kColdSetupReps; ++rep) {
    const auto start = Clock::now();
    auto graph = WattsStrogatz(shape.ws_vertices, shape.ws_neighbors, kWsBeta,
                               args.seed);
    if (!report.Op(graph.status(), "WattsStrogatz")) return report;
    if (!report.Op(graph_io::WriteEdgeList(edges_path, graph->edges),
                   "WriteEdgeList")) {
      return report;
    }
    setup_s.push_back(SecondsSince(start));
  }
  const double file_mb = static_cast<double>(FileBytes(edges_path)) / 1e6;

  SpinnerConfig config = BaseConfig(args, kColdK);
  config.execution.num_shards = shape.num_shards;
  config.execution.num_threads = NumCpus();
  const SpinnerPartitioner partitioner(config);

  std::vector<double> op_s;
  LpaTotals lpa;
  int64_t tasks = 0, stolen = 0;
  double call_minus_driver = 0.0;
  uint64_t digest = 0;
  PartitionMetrics quality;
  int64_t arcs = 0, num_vertices = 0;
  double op_total = 0.0;
  // Repetition 0 is a warm-up: it is checked but not timed, because the
  // first pass through a fresh heap pays page faults later passes do not.
  for (int rep = 0; rep == 0 || rep <= kMinReps || op_total < args.seconds;
       ++rep) {
    // The warm-up is not traced, so spans cover the measured reps only.
    Tracer untraced(false);
    Tracer* t = rep == 0 ? &untraced : tracer;
    Result<EdgeList> edges = Status::Internal("unset");
    Result<CsrGraph> converted = Status::Internal("unset");
    Result<PartitionResult> result = Status::Internal("unset");
    VertexIdMapping mapping;
    double call = 0.0;
    const auto start = Clock::now();
    {
      Span op(t, "op");
      {
        Span s(t, "graph_io.parse");
        edges = graph_io::ReadEdgeList(edges_path);
      }
      if (!report.Op(edges.status(), "ReadEdgeList")) return report;
      {
        Span s(t, "remap.compact");
        mapping = CompactVertexIds(&*edges);
      }
      ++report.attempted;  // CompactVertexIds cannot fail
      {
        Span s(t, "conversion.convert");
        converted = ConvertToWeightedUndirected(mapping.num_vertices(), *edges);
      }
      if (!report.Op(converted.status(), "ConvertToWeightedUndirected")) {
        return report;
      }
      {
        Span s(t, "spinner.partition");
        const auto call_start = Clock::now();
        result = partitioner.Partition(*converted);
        call = SecondsSince(call_start);
      }
      if (!report.Op(result.status(), "SpinnerPartitioner::Partition")) {
        return report;
      }
      {
        Span s(t, "graph_io.write");
        if (!report.Op(graph_io::WritePartitioning(parts_path,
                                                   result->assignment),
                       "WritePartitioning")) {
          return report;
        }
      }
    }
    const double wall = SecondsSince(start);

    // Checks, outside the timed region: the file on disk is the
    // assignment, and the assignment is valid and self-consistent.
    auto on_disk =
        graph_io::ReadPartitioning(parts_path, mapping.num_vertices());
    report.Check(on_disk.ok() && *on_disk == result->assignment,
                 "assignment file differs from the returned assignment");
    CheckAssignment(&report, "cold-partition", *converted, result->assignment,
                    kColdK, result->metrics);
    const uint64_t d = Digest(result->assignment);
    if (rep == 0) digest = d;
    report.Check(d == digest, Fmt("digest %016" PRIx64 " != %016" PRIx64
                                  " of the first repetition",
                                  d, digest));
    if (rep == 0) continue;

    op_s.push_back(wall);
    op_total += wall;
    arcs = converted->NumArcs();
    num_vertices = converted->NumVertices();
    lpa.Add(*result, arcs);
    tasks += result->schedule.tasks;
    stolen += result->schedule.stolen_tasks;
    call_minus_driver += call - result->run_stats.total_wall_seconds;
    quality = result->metrics;
  }
  const int reps = static_cast<int>(op_s.size());

  PublishEndToEnd(&report, setup_s, op_s, quality, PeakRssMb());
  PublishLpa(&report, lpa, reps);
  report.per_layer["sched.tasks"] = {static_cast<double>(tasks) / reps,
                                     "count"};
  report.per_layer["sched.stolen_share"] = {
      tasks > 0 ? static_cast<double>(stolen) / static_cast<double>(tasks)
                : 0.0,
      "ratio"};
  if (tracer->on()) {
    std::map<std::string, double> total = tracer->Totals();
    const double per = 1.0 / reps;
    const double parse = total["graph_io.parse"] * per;
    report.per_layer["graph_io.parse_s"] = {parse, "s"};
    report.per_layer["graph_io.parse_mb_per_s"] = {
        parse > 0 ? file_mb / parse : 0.0, "MB/s"};
    report.per_layer["remap.compact_s"] = {total["remap.compact"] * per, "s"};
    report.per_layer["conversion.convert_s"] = {
        total["conversion.convert"] * per, "s"};
    report.per_layer["graph_io.write_s"] = {total["graph_io.write"] * per,
                                            "s"};
  }
  // Partition() call wall minus the LPA driver wall: the sharded store
  // build, thread-pool start and join, the final ComputeMetrics, config
  // resolution and teardown. The store build is not separable from outside.
  report.per_layer["partition.outside_lpa_s"] = {call_minus_driver / reps,
                                                 "s"};
  PublishTraceAccounting(&report, *tracer, op_s,
                         {"graph_io.parse", "remap.compact",
                          "conversion.convert", "spinner.partition",
                          "graph_io.write"});
  report.Note(GraphNote(num_vertices, arcs));
  report.Note(Fmt("partition_s=%.6f (op_s) file_mb=%.1f digest=%016" PRIx64,
                  Median(op_s), file_mb, digest));
  return report;
}

// --------------------------------------------------------- elastic-rescale

/// One Rescale chain on a freshly opened session: its timings and the
/// digests of Open and of every step.
struct ChainRun {
  double open_s = 0.0;
  double chain_s = 0.0;
  std::vector<uint64_t> digests;
  PartitionMetrics final_quality;
  int64_t arcs = 0;
  bool ok = false;
};

/// Opens a session on `graph` and runs the chain, checking every step.
/// Adds the layer counters to `lpa`, `wire` and `outside_lpa_s` unless
/// they are null (the untimed reference chain).
ChainRun RunChain(const Args& args, const GeneratedGraph& graph,
                  const SessionOptions& options, Report* report,
                  Tracer* tracer, LpaTotals* lpa, WireTraffic* wire,
                  double* outside_lpa_s) {
  ChainRun run;
  SpinnerConfig config = BaseConfig(args, kRescaleK0);
  config.use_halting = false;
  config.max_iterations = kRescaleIterations;
  PartitioningSession session(config, options);
  const auto open_start = Clock::now();
  Status opened;
  {
    Span s(tracer, "session.open");
    opened = session.Open(graph.num_vertices, graph.edges, graph.directed);
  }
  run.open_s = SecondsSince(open_start);
  if (!report->Op(opened, "PartitioningSession::Open")) return run;
  CheckAssignment(report, "open", session.converted(), session.assignment(),
                  kRescaleK0, session.last_result().metrics);
  run.digests.push_back(Digest(session.assignment()));

  const int64_t arcs = session.converted().NumArcs();
  run.arcs = arcs;
  for (const int k : kRescaleChain) {
    const auto start = Clock::now();
    Status status;
    {
      Span s(tracer, "session.rescale");
      status = session.Rescale(k);
    }
    const double call = SecondsSince(start);
    if (!report->Op(status, "PartitioningSession::Rescale")) return run;
    // Only the Rescale calls are timed; the checks sit between them.
    run.chain_s += call;
    const PartitionResult& result = session.last_result();
    if (lpa != nullptr) lpa->Add(result, arcs);
    if (outside_lpa_s != nullptr) {
      *outside_lpa_s += call - result.run_stats.total_wall_seconds;
    }
    if (wire != nullptr) {
      wire->bytes_sent += result.wire.bytes_sent;
      wire->bytes_received += result.wire.bytes_received;
      wire->frames_sent += result.wire.frames_sent;
      wire->frames_received += result.wire.frames_received;
      wire->slice_bytes_downloaded += result.wire.slice_bytes_downloaded;
      wire->label_values_sent += result.wire.label_values_sent;
      wire->delta_entries_sent += result.wire.delta_entries_sent;
      wire->recoveries += result.wire.recoveries;
    }
    CheckAssignment(report, Fmt("rescale to %d", k).c_str(),
                    session.converted(), session.assignment(), k,
                    result.metrics);
    run.digests.push_back(Digest(session.assignment()));
    run.final_quality = result.metrics;
  }
  run.ok = true;
  return run;
}

// Elastic adaptation (§III.E) at paper-scale k on a skewed graph: a fixed
// chain of Rescale calls on an open session, in-process or over forked
// shard workers. Ingest is set-up here, so LPA and (for -mp) the dist
// layer are what the chain time measures.
Report RunElasticRescale(const Args& args, const Shape& shape,
                         bool multiprocess, Tracer* tracer) {
  Report report;
  DefaultLayers(&report);
  auto graph = RMat(shape.rmat_scale, kRmatEdgeFactor, kRmatA, kRmatB, kRmatC,
                    args.seed);
  if (!report.Op(graph.status(), "RMat")) return report;

  SessionOptions in_process;
  in_process.execution.num_shards = shape.num_shards;
  in_process.execution.num_threads = NumCpus();
  SessionOptions options = in_process;
  if (multiprocess) {
    options.execution.mode = ExecutionMode::kMultiProcess;
    options.execution.num_threads = 1;
    options.execution.num_workers = std::max(1, NumCpus() - 1);
  }

  std::vector<double> setup_s, op_s;
  LpaTotals lpa;
  WireTraffic wire;
  double outside_lpa_s = 0.0;
  std::vector<uint64_t> digests;
  PartitionMetrics quality;
  int64_t arcs = 0;
  double op_total = 0.0;
  for (int rep = 0; rep < kMinReps || op_total < args.seconds; ++rep) {
    ChainRun run;
    {
      Span op(tracer, "rep");
      run = RunChain(args, *graph, options, &report, tracer, &lpa,
                     &wire, &outside_lpa_s);
    }
    if (!run.ok) return report;
    if (rep == 0) digests = run.digests;
    report.Check(run.digests == digests,
                 "assignment digests differ between repetitions");
    setup_s.push_back(run.open_s);
    op_s.push_back(run.chain_s);
    op_total += run.chain_s;
    quality = run.final_quality;
    arcs = run.arcs;
  }
  const int reps = static_cast<int>(op_s.size());
  // Read before the reference chain below, so that its heap is not
  // counted (nor inherited by workers forked after it).
  const double peak_rss_mb = PeakRssMb();
  if (multiprocess) {
    // The cross-substrate contract: every step must match the in-process
    // run bit for bit. The reference chain is verification, not timed.
    Tracer off(false);
    ChainRun ref = RunChain(args, *graph, in_process, &report, &off,
                            nullptr, nullptr, nullptr);
    if (!ref.ok) return report;
    report.Check(ref.digests == digests,
                 "kMultiProcess digests differ from the in-process run");
  }

  PublishEndToEnd(&report, setup_s, op_s, quality, peak_rss_mb);
  PublishLpa(&report, lpa, reps);
  report.per_layer["session.rescale_outside_lpa_s"] = {outside_lpa_s / reps,
                                                       "s"};
  const double mb = 1e6 * reps;
  report.per_layer["dist.bytes_sent_mb"] = {wire.bytes_sent / mb, "MB"};
  report.per_layer["dist.bytes_received_mb"] = {wire.bytes_received / mb,
                                                "MB"};
  report.per_layer["dist.frames"] = {
      static_cast<double>(wire.frames_sent + wire.frames_received) / reps,
      "count"};
  report.per_layer["dist.slice_mb_downloaded"] = {
      wire.slice_bytes_downloaded / mb, "MB"};
  report.per_layer["dist.label_entries_sent"] = {
      static_cast<double>(wire.label_values_sent + wire.delta_entries_sent) /
          reps,
      "count"};
  report.per_layer["dist.recoveries"] = {
      static_cast<double>(wire.recoveries), "count"};
  report.Check(wire.recoveries == 0, "a failure-free run needed recovery");
  // The chain's wall time is the sum of its Rescale calls.
  PublishTraceAccounting(&report, *tracer, op_s, {"session.rescale"});
  std::string chain;
  for (const uint64_t d : digests) chain += Fmt(" %016" PRIx64, d);
  report.Note(GraphNote(graph->num_vertices, arcs));
  report.Note(Fmt("rescale_chain_s=%.6f (op_s) digests(open,steps):%s",
                  Median(op_s), chain.c_str()));
  return report;
}

// ------------------------------------------------------------ stream-adapt

/// The seeded events of one segment: kWindowsPerSegment windows of exactly
/// `window_events` events each, plus what the checks expect of them.
struct StreamPlan {
  std::vector<stream::EdgeEvent> events;
  /// Entries GraphDelta::Coalesce must drop: one per retry, two per
  /// transient pair.
  int64_t expected_coalesced = 0;
  int64_t new_vertices = 0;
};

/// The churn follows the stream model of bench/bench_stream_ingest.cc:
/// fresh edge adds (RandomEdgeAdditions, the Fig. 7 workload), every 10th
/// one retried (a duplicate add) and every 25th one followed by a
/// transient edge (added, then removed). Beside that model, every 25th
/// fresh add also removes one edge of the opened graph, at the model's own
/// removal rate, so ApplyDelta's removal path runs; no edge is removed
/// twice. Groups never straddle a window, so each window coalesces alone.
///
/// Only the middle window adds vertices: it opens with one AddVertices
/// event sized to keep the graph's edge-to-vertex ratio, and its fresh
/// edges attach the new vertices to old ones. The vertex range grows in
/// that window alone, so ApplyDelta re-slices the store there and takes
/// the same-range ShardedGraphStore::Update path in the other windows.
StreamPlan MakeStream(const GeneratedGraph& graph, int64_t window_events,
                      uint64_t seed) {
  StreamPlan plan;
  const int64_t n = graph.num_vertices;
  const auto num_edges = static_cast<int64_t>(graph.edges.size());
  const int64_t total = window_events * kWindowsPerSegment;
  const GraphDelta fresh = RandomEdgeAdditions(n, graph.edges, total, seed);
  // A group of 50 fresh adds takes 61 events (5 retries, 2 transient
  // pairs, 2 removals): one new vertex per edges/vertices fresh edges.
  const int64_t fresh_per_window = window_events * 50 / 61;
  plan.new_vertices =
      std::max<int64_t>(1, fresh_per_window * n / std::max<int64_t>(1,
                                                                   num_edges));
  std::mt19937_64 rng(seed ^ 0x5eedf00dULL);
  std::unordered_set<int64_t> removed;
  std::unordered_set<uint64_t> growth_edges;
  size_t next_fresh = 0;
  int64_t i = 0;  // fresh adds so far: the retry/transient cadence
  plan.events.reserve(static_cast<size_t>(total));
  for (int w = 0; w < kWindowsPerSegment; ++w) {
    const bool growth = w == kWindowsPerSegment / 2;
    const size_t end = plan.events.size() + static_cast<size_t>(window_events);
    if (growth) {
      plan.events.push_back(stream::EdgeEvent::AddVertices(plan.new_vertices));
    }
    while (plan.events.size() < end) {
      Edge e;
      if (growth) {
        e.src = static_cast<VertexId>(n + i % plan.new_vertices);
        do {
          e.dst = static_cast<VertexId>(rng() % n);
        } while (!growth_edges
                      .insert((static_cast<uint64_t>(e.src) << 32) | e.dst)
                      .second);
      } else {
        e = fresh.added_edges[next_fresh++];
      }
      const bool retry = i % 10 == 0;
      const bool transient = i % 25 == 0;
      ++i;
      plan.events.push_back(stream::EdgeEvent::AddEdge(e.src, e.dst));
      const size_t group = (retry ? 1 : 0) + (transient ? 3 : 0);
      if (plan.events.size() + group > end) continue;
      if (retry) {
        plan.events.push_back(stream::EdgeEvent::AddEdge(e.src, e.dst));
        plan.expected_coalesced += 1;
      }
      if (transient) {
        plan.events.push_back(stream::EdgeEvent::AddEdge(e.dst, e.src));
        plan.events.push_back(stream::EdgeEvent::RemoveEdge(e.dst, e.src));
        plan.expected_coalesced += 2;
        int64_t at;
        do {
          at = static_cast<int64_t>(rng() % num_edges);
        } while (!removed.insert(at).second);
        plan.events.push_back(stream::EdgeEvent::RemoveEdge(
            graph.edges[at].src, graph.edges[at].dst));
      }
    }
  }
  return plan;
}

// Incremental adaptation (§III.D) over a live stream: one closed-loop
// producer feeds IngestionService, which applies event-count windows
// through ApplyDelta and checkpoints every window.
Report RunStreamAdapt(const Args& args, const Shape& shape, Tracer* tracer) {
  Report report;
  DefaultLayers(&report);
  auto graph = WattsStrogatz(shape.ws_vertices, shape.ws_neighbors, kWsBeta,
                             args.seed);
  if (!report.Op(graph.status(), "WattsStrogatz")) return report;
  // As cold-partition reads the graph from its file: one directed edge a
  // line.
  graph->directed = true;
  const StreamPlan plan = MakeStream(*graph, shape.window_events, args.seed);
  const std::vector<stream::EdgeEvent>& events = plan.events;
  const auto segment_events = static_cast<int64_t>(events.size());

  SessionOptions options;
  options.execution.num_shards = shape.num_shards;
  options.execution.num_threads = NumCpus();
  const std::string ckpt_path = args.work_dir + "/stream.spns";

  // Apply time of every window, and split by the store path it took.
  std::vector<double> setup_s, op_s, window_s, update_s, reslice_s, blocked_s;
  int64_t open_arcs = 0;
  LpaTotals lpa;
  double apply_total_s = 0.0;
  int64_t windows = 0, coalesced = 0, high_water = 0, ckpt_records = 0;
  double ckpt_mb = 0.0;
  uint64_t digest = 0;
  PartitionMetrics quality;
  double op_total = 0.0;
  for (int rep = 0; rep < kStreamMinReps || op_total < args.seconds; ++rep) {
    PartitioningSession session(BaseConfig(args, kStreamK), options);
    const auto open_start = Clock::now();
    if (!report.Op(session.Open(graph->num_vertices, graph->edges, true),
                   "PartitioningSession::Open")) {
      return report;
    }
    setup_s.push_back(SecondsSince(open_start));
    open_arcs = session.converted().NumArcs();

    // Written on the ingestion thread, read after Stop() joined it.
    stream::IngestionOptions opts;
    opts.policy =
        std::make_unique<stream::EventCountPolicy>(shape.window_events);
    opts.checkpoint_base_path = ckpt_path;
    opts.on_apply = [&](const stream::IngestStats& stats) {
      const double apply_s = static_cast<double>(stats.last_apply_micros) / 1e6;
      window_s.push_back(apply_s);
      const bool grew = (stats.windows_applied - 1) % kWindowsPerSegment ==
                        kWindowsPerSegment / 2;
      (grew ? reslice_s : update_s).push_back(apply_s);
      lpa.Add(session.last_result(), session.converted().NumArcs());
      return true;
    };
    stream::IngestionService service(&session, std::move(opts));
    if (!report.Op(service.Start(), "IngestionService::Start")) return report;

    double blocked = 0.0;
    int64_t submitted = 0;
    bool stuck = false;
    bool stopped = false;
    const auto start = Clock::now();
    {
      Span op(tracer, "op");
      {
        Span s(tracer, "stream.produce");
        auto last_progress = Clock::now();
        int64_t last_ingested = 0;
        for (const stream::EdgeEvent& event : events) {
          Status status;
          for (;;) {
            const auto submit_start = Clock::now();
            status = service.SubmitFor(event, kSubmitSlice);
            blocked += SecondsSince(submit_start);
            if (status.code() != StatusCode::kOutOfRange) break;
            // Queue full: fine while windows keep being applied; a
            // service whose ingestion stopped must not hang the producer.
            const int64_t ingested = service.stats().events_ingested;
            if (ingested != last_ingested) {
              last_ingested = ingested;
              last_progress = Clock::now();
            } else if (Clock::now() - last_progress > kStallDeadline) {
              break;
            }
          }
          if (!status.ok()) {
            stuck = true;
            break;
          }
          ++submitted;
        }
      }
      {
        Span s(tracer, "stream.stop");
        stopped = report.Op(service.Stop(), "IngestionService::Stop");
      }
    }
    const double wall = SecondsSince(start);
    const stream::IngestStats stats = service.stats();
    // Every event is one operation; unsubmitted or unapplied ones failed.
    report.attempted += segment_events;
    report.failed += segment_events - std::min(stats.events_ingested,
                                               submitted);
    if (stuck || !stopped) {
      report.correct = false;
      std::fprintf(stderr,
                   "spinbench: %" PRId64 " of %" PRId64
                   " events submitted, %" PRId64 " ingested\n",
                   submitted, segment_events, stats.events_ingested);
      return report;
    }

    // Checks: all events applied in the expected windows, the final
    // assignment is valid, and the checkpoint replays to it.
    report.Check(stats.events_ingested == segment_events,
                 Fmt("%" PRId64 " of %" PRId64 " events ingested",
                     stats.events_ingested, segment_events));
    report.Check(stats.windows_applied == kWindowsPerSegment,
                 Fmt("%" PRId64 " windows applied, expected %d",
                     stats.windows_applied, kWindowsPerSegment));
    report.Check(stats.events_coalesced == plan.expected_coalesced,
                 Fmt("%" PRId64 " events coalesced, expected %" PRId64,
                     stats.events_coalesced, plan.expected_coalesced));
    report.Check(session.num_vertices() ==
                     graph->num_vertices + plan.new_vertices,
                 Fmt("%" PRId64 " vertices after the stream, expected %" PRId64,
                     session.num_vertices(),
                     graph->num_vertices + plan.new_vertices));
    const PartitionResult& last = session.last_result();
    report.Check(stats.last_phi == last.metrics.phi &&
                     stats.last_rho == last.metrics.rho,
                 "IngestStats phi/rho differ from the session's last result");
    CheckAssignment(&report, "stream-adapt", session.converted(),
                    session.assignment(), kStreamK, last.metrics);
    auto replayed = stream::IncrementalCheckpointer::Load(ckpt_path);
    report.Check(replayed.ok() &&
                     replayed->assignment == session.assignment() &&
                     replayed->num_vertices == session.num_vertices(),
                 "checkpoint does not replay to the live assignment");
    const uint64_t d = Digest(session.assignment());
    if (rep == 0) digest = d;
    report.Check(d == digest, Fmt("digest %016" PRIx64 " != %016" PRIx64
                                  " of the first repetition",
                                  d, digest));

    op_s.push_back(wall);
    op_total += wall;
    blocked_s.push_back(blocked);
    apply_total_s += static_cast<double>(stats.total_apply_micros) / 1e6;
    windows += stats.windows_applied;
    coalesced += stats.events_coalesced;
    high_water = std::max(high_water, stats.queue_high_water);
    ckpt_records += stats.checkpoint_records;
    ckpt_mb += static_cast<double>(FileBytes(ckpt_path) +
                                   FileBytes(ckpt_path + ".dlog")) /
               1e6;
    quality = last.metrics;
  }
  const int reps = static_cast<int>(op_s.size());

  PublishEndToEnd(&report, setup_s, op_s, quality, PeakRssMb());
  report.per_layer["stream.window_apply_p50_ms"] = {Median(window_s) * 1e3,
                                                    "ms"};
  report.per_layer["stream.apply_update_ms"] = {Median(update_s) * 1e3, "ms"};
  report.per_layer["stream.apply_reslice_ms"] = {Median(reslice_s) * 1e3,
                                                 "ms"};
  PublishLpa(&report, lpa, reps);
  report.per_layer["stream.apply_s_total"] = {apply_total_s / reps, "s"};
  report.per_layer["stream.apply_lpa_share"] = {
      apply_total_s > 0 ? lpa.driver_s / apply_total_s : 0.0, "ratio"};
  report.per_layer["stream.windows"] = {static_cast<double>(windows) / reps,
                                        "count"};
  report.per_layer["stream.events_coalesced"] = {
      static_cast<double>(coalesced) / reps, "count"};
  report.per_layer["stream.queue_high_water"] = {
      static_cast<double>(high_water), "count"};
  report.per_layer["stream.producer_blocked_s"] = {Mean(blocked_s), "s"};
  report.per_layer["stream.checkpoint_records"] = {
      static_cast<double>(ckpt_records) / reps, "count"};
  report.per_layer["checkpoint.mb"] = {ckpt_mb / reps, "MB"};
  PublishTraceAccounting(&report, *tracer, op_s,
                         {"stream.produce", "stream.stop"});
  report.Note(GraphNote(graph->num_vertices, open_arcs));
  report.Note(Fmt("stream_events_per_s=%.3f window_apply_p50_ms=%.3f "
                  "(%zu windows) events=%" PRId64 " new_vertices=%" PRId64
                  " coalesced=%" PRId64 " digest=%016" PRIx64,
                  static_cast<double>(segment_events) / Median(op_s),
                  Median(window_s) * 1e3, window_s.size(), segment_events,
                  plan.new_vertices, plan.expected_coalesced, digest));
  return report;
}

// ------------------------------------------------------------------- main

void PrintResult(const Report& report, bool trace) {
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  const std::map<std::string, Metric>& metrics =
      trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              report.correct && report.failed == 0 ? "true" : "false",
              std::max<int64_t>(report.attempted, 1), report.failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value, metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "shape") {
      if (value != "tiny" && value != "full") return false;
      args->tiny = value == "tiny";
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else if (key == "trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: spinbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --work-dir=DIR [--shape=tiny|full] "
                 "[--trace-file=FILE]\n");
    return 2;
  }
  const Shape& shape = args.tiny ? kTinyShape : kFullShape;
  Tracer tracer(args.trace);

  Report report;
  if (args.workload == "cold-partition") {
    report = RunColdPartition(args, shape, &tracer);
  } else if (args.workload == "elastic-rescale") {
    report = RunElasticRescale(args, shape, /*multiprocess=*/false, &tracer);
  } else if (args.workload == "elastic-rescale-mp") {
    report = RunElasticRescale(args, shape, /*multiprocess=*/true, &tracer);
  } else if (args.workload == "stream-adapt") {
    report = RunStreamAdapt(args, shape, &tracer);
  } else {
    std::fprintf(stderr, "spinbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("host: nproc=%d l2_bytes=%ld l3_bytes=%ld\n", NumCpus(),
              sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE));
  if (tracer.on() && !args.trace_file.empty() &&
      !tracer.WriteChromeTrace(args.trace_file)) {
    std::fprintf(stderr, "spinbench: cannot write %s\n",
                 args.trace_file.c_str());
  }
  PrintResult(report, args.trace);
  // A workload that stopped early has no end-to-end metrics; its result
  // line still carries the failure counts.
  if (report.end_to_end.empty()) {
    std::fprintf(stderr, "spinbench: %s did not complete\n",
                 args.workload.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace spinner::perfbench

int main(int argc, char** argv) { return spinner::perfbench::Main(argc, argv); }
