#ifndef COLMR_MAPREDUCE_ENGINE_H_
#define COLMR_MAPREDUCE_ENGINE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "hdfs/cost_model.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/committer.h"
#include "mapreduce/job.h"

namespace colmr {

/// Runs MapReduce jobs against a MiniHdfs. Tasks execute for real (the
/// map/reduce functions run and their per-thread CPU time is measured)
/// and, by default, concurrently: map tasks are dispatched onto a work
/// queue drained by min(hardware_concurrency, cluster map slots) threads,
/// gated so that no node ever runs more than map_slots_per_node tasks at
/// once, and reducers run one-per-partition on the same pool. Cluster
/// effects — locality-aware slot scheduling, local vs remote reads, the
/// shuffle — are still simulated through the cost model, producing the
/// "map time" and "total time" columns of the paper's Table 1.
///
/// Determinism: task→node assignment is computed serially in split order
/// before any task runs, and task/partition results are merged back in
/// that same order, so job output and all non-timing report fields are
/// byte-identical whatever JobConfig::parallelism is (1 = the original
/// serial engine, preserved for paper-figure runs). Under fault injection
/// the retry path may attribute I/O to different nodes across thread
/// counts, but the job *output* stays byte-identical: every map attempt
/// that completes read checksum-verified bytes.
///
/// Failure handling: a map attempt that fails with a retryable error is
/// re-executed, preferring a node not yet tried (replica holders first),
/// up to JobConfig::max_task_attempts. Nodes accumulating
/// node_blacklist_failures failed attempts are blacklisted for the rest
/// of the job. DataLoss is terminal — no node can serve the bytes.
/// Reducers merge the map tasks' sorted runs — resident in memory, or
/// spilled to scratch under a bounded sort buffer (DESIGN.md §12); the
/// shuffle's network transfer is simulated. Reduce OUTPUT is written per
/// partition through the OutputCommitter
/// (DESIGN.md §11): each write attempt lands in a private
/// _temporary/attempt dir, commits via a namenode-atomic rename, and the
/// job commit promotes every part and writes _SUCCESS — so a fault,
/// crash, or duplicate attempt at any instant leaves either complete
/// output or no visible output. Output-write attempts retry across nodes
/// under injected write faults, feeding the same blacklist.
///
/// Straggler defense: JobConfig::task_timeout_ms fails attempts that
/// exceed a wall-clock deadline back into the retry machinery, and
/// JobConfig::speculative_execution launches one backup attempt of any
/// map task lagging well behind the completed-task median — first result
/// recorded wins, the loser is discarded (Hadoop semantics). Output stays
/// byte-identical across every fault × speculation × parallelism
/// combination.
class JobRunner {
 public:
  explicit JobRunner(MiniHdfs* fs) : fs_(fs), cost_model_(fs->config()) {}

  /// Executes the job; fills *report. Fails on the first exhausted task in
  /// split order (the serial path stops there; the parallel path finishes
  /// in-flight tasks, then reports the lowest-index failure). The failure
  /// and recovery counters (task_retries, checksum_failures,
  /// failover_reads, blacklisted_nodes) are filled even when Run fails.
  ///
  /// Observability (DESIGN.md §8): counters go to JobConfig::metrics (or
  /// the default registry); when JobConfig::trace or trace_path is set
  /// the run emits nested job → phase → task → hdfs.read spans, written
  /// to trace_path as Chrome trace_event JSON on return.
  Status Run(const Job& job, JobReport* report);

 private:
  struct MapTaskResult;

  /// Run() minus trace lifecycle: Run wraps this in the root "job" span
  /// and flushes the collector to JobConfig::trace_path afterwards.
  /// RunImpl validates the job, runs the committer's SetupJob guard, and
  /// on any phase failure aborts the job output so nothing torn stays
  /// visible.
  Status RunImpl(const Job& job, JobReport* report, MetricsRegistry* metrics,
                 TraceCollector* trace);

  /// The phases themselves (plan, map, shuffle, reduce, output commit);
  /// factored out so RunImpl can wrap every early return in the
  /// abort-on-failure protocol. `committer` is null when the job has no
  /// output path.
  Status ExecutePhases(const Job& job, JobReport* report,
                       MetricsRegistry* metrics, TraceCollector* trace,
                       OutputCommitter* committer);

  /// Picks the execution node for a split: the least-loaded node holding
  /// all of the split's files, unless it is overloaded relative to a
  /// balanced assignment, in which case the scheduler falls back to the
  /// globally least-loaded node and the task reads remotely — Hadoop's
  /// "Node 1 is busy" situation from the paper's Fig. 3 discussion.
  NodeId ScheduleSplit(const InputSplit& split, std::vector<int>* node_load,
                       int total_splits, bool* data_local) const;

  MiniHdfs* fs_;
  CostModel cost_model_;
};

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_ENGINE_H_
