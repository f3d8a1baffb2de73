#include "spinner/partitioner.h"

#include <memory>
#include <utility>

#include "dist/coordinator.h"
#include "dist/registry.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "spinner/conversion_program.h"
#include "spinner/initial_assignment.h"

namespace spinner {

Result<std::unique_ptr<dist::WorkerRegistry>> ListenForWorkers(
    const ExecutionOptions& execution) {
  dist::RegistryOptions options;
  if (!execution.listen_address.empty()) {
    options.listen_address = execution.listen_address;
  }
  options.handshake_timeout_ms = execution.handshake_timeout_ms;
  return dist::WorkerRegistry::Listen(options);
}

Result<PartitionResult> RunOnBackend(const SpinnerConfig& config,
                                     ShardedGraphStore* store,
                                     const CsrGraph& metrics_graph,
                                     std::vector<PartitionId> initial_labels,
                                     ThreadPool* pool,
                                     dist::WorkerRegistry* registry,
                                     const ProgressObserver& observer) {
  const ExecutionOptions& execution = config.execution;
  const ProgressObserver* active = observer.active() ? &observer : nullptr;
  ShardedRunResult run;
  if (execution.mode == ExecutionMode::kInProcess) {
    std::unique_ptr<ThreadPool> own_pool;
    if (pool == nullptr) {
      own_pool = std::make_unique<ThreadPool>(
          ResolveNumThreads(config, store->num_shards()));
      pool = own_pool.get();
    }
    SPINNER_ASSIGN_OR_RETURN(
        run, RunShardedSpinner(config, store, std::move(initial_labels), pool,
                               active));
  } else {
    // Off-thread execution: the coordinator drives the identical
    // superstep schedule over ShardWorker processes speaking the dist wire
    // protocol — forked over socketpairs (kMultiProcess) or dialing in
    // over TCP (kTcp) — so the result is bit-identical to in-process.
    dist::MultiProcessOptions mp;
    mp.num_workers = execution.num_workers;
    mp.transport = dist::TransportOptions::Resolve(execution.wire_max_payload);
    mp.worker_store_dir = execution.worker_store_dir;
    mp.rpc_timeout_ms = execution.rpc_timeout_ms;
    mp.heartbeat_period_ms = execution.heartbeat_period_ms;
    mp.max_recovery_attempts = execution.max_recovery_attempts;
    std::unique_ptr<dist::WorkerRegistry> own_registry;
    if (execution.mode == ExecutionMode::kTcp) {
      if (registry == nullptr) {
        SPINNER_ASSIGN_OR_RETURN(own_registry, ListenForWorkers(execution));
        registry = own_registry.get();
      }
      mp.worker_transport = registry;
    }
    SPINNER_ASSIGN_OR_RETURN(
        run, dist::RunMultiProcessSpinner(config, store,
                                          std::move(initial_labels), mp,
                                          active));
  }

  PartitionResult result;
  result.assignment = store->labels();
  result.num_partitions = config.num_partitions;
  result.iterations = run.iterations;
  result.converged = run.converged;
  result.cancelled = run.cancelled;
  result.history = std::move(run.history);
  result.run_stats = std::move(run.run_stats);
  result.wire = std::move(run.wire);
  result.schedule = run.schedule;

  BalanceSpec spec;
  spec.mode = config.balance_mode;
  spec.partition_weights = config.partition_weights;
  SPINNER_ASSIGN_OR_RETURN(
      result.metrics,
      ComputeMetricsEx(metrics_graph, result.assignment,
                       config.num_partitions, config.additional_capacity,
                       spec));
  return result;
}

SpinnerPartitioner::SpinnerPartitioner(const SpinnerConfig& config)
    : config_(config) {}

Result<PartitionResult> SpinnerPartitioner::Partition(
    const CsrGraph& converted) const {
  std::vector<PartitionId> no_labels(converted.NumVertices(), kNoPartition);
  return RunOnGraph(converted, std::move(no_labels), config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::PartitionDirected(
    int64_t num_vertices, const EdgeList& directed) const {
  EdgeList dedup = directed;
  RemoveSelfLoops(&dedup);
  SortAndDedup(&dedup);
  CsrGraph converted;
  if (config_.in_engine_conversion) {
    SPINNER_ASSIGN_OR_RETURN(CsrGraph raw_directed,
                             CsrGraph::FromEdges(num_vertices, dedup));
    pregel::EngineConfig engine_config;
    engine_config.num_workers = ResolveNumShards(config_, num_vertices);
    engine_config.num_threads = config_.execution.num_threads;
    SPINNER_ASSIGN_OR_RETURN(converted,
                             ConvertInEngine(raw_directed, engine_config));
  } else {
    SPINNER_ASSIGN_OR_RETURN(converted,
                             ConvertToWeightedUndirected(num_vertices, dedup));
  }
  std::vector<PartitionId> no_labels(num_vertices, kNoPartition);
  return RunOnGraph(converted, std::move(no_labels), config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::Repartition(
    const CsrGraph& new_converted,
    std::span<const PartitionId> previous) const {
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ExtendForNewVertices(new_converted, previous, config_.num_partitions));
  return RunOnGraph(new_converted, std::move(initial),
                    config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::Rescale(
    const CsrGraph& converted, std::span<const PartitionId> previous,
    int new_num_partitions) const {
  if (static_cast<int64_t>(previous.size()) != converted.NumVertices()) {
    return Status::InvalidArgument(
        "previous assignment must cover every vertex");
  }
  const int old_k = config_.num_partitions;
  std::vector<PartitionId> initial;
  if (new_num_partitions > old_k) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticExpand(previous, old_k, new_num_partitions,
                               config_.seed));
  } else if (new_num_partitions < old_k) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticShrink(previous, old_k, new_num_partitions,
                               config_.seed));
  } else {
    initial.assign(previous.begin(), previous.end());
  }
  return RunOnGraph(converted, std::move(initial), new_num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::RunOnGraph(
    const CsrGraph& converted, std::vector<PartitionId> initial_labels,
    int k) const {
  SpinnerConfig run_config = config_;
  run_config.num_partitions = k;
  SPINNER_RETURN_IF_ERROR(run_config.Validate());
  if (converted.NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  // Shard/thread/process counts never change the result, so a throwaway
  // single-run store is equivalent to a session's persistent one.
  SPINNER_ASSIGN_OR_RETURN(
      ShardedGraphStore store,
      ShardedGraphStore::Build(
          converted, ResolveNumShards(run_config, converted.NumVertices())));
  return RunOnBackend(run_config, &store, converted,
                      std::move(initial_labels), /*pool=*/nullptr,
                      /*registry=*/nullptr, observer_);
}

}  // namespace spinner
