#ifndef COLMR_MAPREDUCE_ENGINE_H_
#define COLMR_MAPREDUCE_ENGINE_H_

#include "common/status.h"
#include "hdfs/cost_model.h"
#include "hdfs/mini_hdfs.h"
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
/// "map time" and "total time" columns of the paper's Table 1. A run goes
/// through five phase units — plan, map, shuffle, reduce, output — each
/// filling its own part of the JobReport (DESIGN.md §6).
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
/// Failure handling: a map attempt that fails with a retryable error or
/// exceeds JobConfig::task_timeout_ms re-runs on a node not yet tried
/// (replica holders first), up to JobConfig::max_task_attempts. Reducers
/// merge the map tasks' sorted runs (DESIGN.md §12); a merge group or a
/// reducer whose spill reads fail re-runs under a fresh read salt, up to
/// the same limit. Each partition's output is written through the
/// OutputCommitter (DESIGN.md §11), whose write attempts retry across
/// nodes the same way, so a fault, crash or duplicate attempt leaves
/// either complete output or no visible output. Nodes accumulating
/// node_blacklist_failures failed attempts of either kind are blacklisted
/// for the rest of the job. DataLoss is terminal — no node can serve the
/// bytes. JobConfig::speculative_execution launches one
/// backup attempt of any map task lagging well behind the completed-task
/// median; the first result recorded wins (Hadoop semantics). Output stays
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
  /// the default registry). The mr/hdfs counters that mirror JobReport
  /// fields (retries, blacklisting, speculation, records, spills, shuffle,
  /// commits, write retries) are published from the report once, when Run
  /// returns; the rest count live. When JobConfig::trace or trace_path is
  /// set the run emits nested job → phase → task → hdfs.read spans,
  /// written to trace_path as Chrome trace_event JSON on return.
  Status Run(const Job& job, JobReport* report);

 private:
  MiniHdfs* fs_;
  CostModel cost_model_;
};

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_ENGINE_H_
