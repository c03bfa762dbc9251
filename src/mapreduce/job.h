#ifndef COLMR_MAPREDUCE_JOB_H_
#define COLMR_MAPREDUCE_JOB_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "hdfs/cluster.h"
#include "mapreduce/input_format.h"
#include "serde/record.h"
#include "serde/value.h"

namespace colmr {

class MetricsRegistry;
class TraceCollector;
struct Predicate;

/// Per-job configuration, the moral equivalent of Hadoop's JobConf.
struct JobConfig {
  std::vector<std::string> input_paths;
  std::string output_path;

  /// Column projection pushed into the InputFormat
  /// (ColumnInputFormat.setColumns in the paper). Empty = all columns.
  /// Row formats ignore it — they must read everything regardless, which
  /// is precisely the asymmetry the experiments measure.
  std::vector<std::string> projection;

  /// CIF record construction strategy (paper Section 5.1). One record
  /// serves both: false = eager (every projected column decoded a batch
  /// at a time), true = lazy (only the predicate's columns, under
  /// pushdown, decode a batch at a time; every other column decodes just
  /// the values the map function reads).
  bool lazy_records = false;

  // ---- Predicate pushdown (DESIGN.md §13) ----
  /// Row filter applied before the mapper sees a record: only rows where
  /// the predicate is TRUE (three-valued logic; NULL filters out) are
  /// mapped. Null = no filter. Output is byte-identical whether the
  /// filter runs in the format (pushdown) or in the engine's map loop.
  std::shared_ptr<const Predicate> predicate;
  /// When true (default) and the format supports it, the predicate also
  /// prunes at plan and scan time: CIF drops splits and rowgroups whose
  /// zone maps refute it and evaluates survivors with vectorized
  /// selection kernels. False confines filtering to the engine's map
  /// loop — the comparison arm the benchmarks measure.
  bool predicate_pushdown = true;

  /// CIF schema-evolution tolerance: when true, a projected column that a
  /// split-directory predates (e.g. day partitions ingested before an
  /// AddColumn) materializes as Null instead of failing the job.
  bool null_for_missing_columns = false;

  /// Number of reduce tasks; 0 = one per reduce slot.
  int num_reduce_tasks = 0;

  /// Rows the engine asks a record reader to make resident per
  /// FillBatch() call (DESIGN.md §10). CIF decodes columns in bulk up to
  /// this many rows; 1 (or 0) means one-row batches through the same
  /// decode path. Row formats always serve one-row batches. Output is
  /// byte-identical across settings.
  uint64_t batch_rows = 1024;

  /// Worker threads for task execution. 0 (default) sizes the pool to
  /// min(hardware_concurrency, cluster map slots); 1 runs every task
  /// inline on the calling thread — bit-for-bit the old serial engine,
  /// kept for paper-figure reproducibility; N > 1 forces N threads.
  /// Output and every non-timing report field are identical across all
  /// settings: scheduling is decided in split order before dispatch and
  /// results are merged back in split/partition order.
  int parallelism = 0;

  /// Maximum executions of one map task before the job fails
  /// (mapreduce.map.maxattempts; Hadoop's default is likewise 4). Each
  /// retry runs on a different node when one is available.
  int max_task_attempts = 4;

  /// Failed attempts on a node before the job stops scheduling to it
  /// (the per-job tracker blacklist,
  /// mapreduce.job.maxtaskfailures.per.tracker).
  int node_blacklist_failures = 3;

  // ---- Straggler defense (DESIGN.md §11) ----
  /// Per-attempt wall-clock deadline in milliseconds (mapreduce.task
  /// .timeout, roughly). An attempt exceeding it fails with IoError and
  /// falls back into the retry/blacklist machinery on a fresh node.
  /// 0 (default) disables.
  int task_timeout_ms = 0;
  /// Hadoop-style speculative execution: once a running task's elapsed
  /// time lags well behind the completed-task median, launch one backup
  /// attempt of it on a different node; the first attempt to finish wins
  /// (for output writes, via the OutputCommitter's atomic rename-or-lose
  /// race) and the loser is discarded/aborted cleanly. Output is
  /// byte-identical with speculation on or off. Effective only with
  /// parallelism != 1 — the serial engine has no one to race.
  bool speculative_execution = false;

  // ---- Block cache (DESIGN.md §9) ----
  /// Capacity of the shared cache of verified block bytes the job's
  /// readers go through. 0 (default) = no cache: every read pays the
  /// full replica-selection + checksum path, as before this knob
  /// existed. The cache attaches to the filesystem and persists across
  /// jobs, so a second job over the same data starts warm.
  uint64_t cache_bytes = 0;
  /// Must be 0: JobRunner::Run rejects any other value with
  /// InvalidArgument. The engine has no block prefetch; the field stays
  /// only because perfbench/src/main.cc:179 assigns it, and goes with
  /// that line in the benchmark change of ROADMAP item 8.
  int prefetch_depth = 0;

  // ---- Sort-merge shuffle (DESIGN.md §12) ----
  /// Map-side sort buffer in bytes of tagged key/value encoding — the
  /// io.sort.mb analog. Every job with a reducer shuffles through one
  /// path: map output buffers into runs, and each reduce partition
  /// streams through a heap merge over them. A positive value bounds the
  /// buffer: the task sorts and spills a run to scratch storage whenever
  /// it fills. 0 (default) leaves it unbounded: each task keeps one
  /// resident run in memory — no spills, no storage I/O, no merge passes.
  /// Output is byte-identical at every setting.
  uint64_t sort_buffer_bytes = 0;
  /// Maximum runs merged in one pass (io.sort.factor analog). While more
  /// spilled runs exist than this, groups of merge_factor merge into
  /// intermediate runs until at most merge_factor remain (resident runs
  /// never do). Minimum 2.
  int merge_factor = 10;
  /// Codec spill-run blocks are stored with (Hadoop's
  /// mapreduce.map.output.compress). Applies to spill files only; it
  /// never changes job output.
  CodecType spill_codec = CodecType::kNone;

  // ---- Observability hooks (DESIGN.md §8) ----
  /// Registry the job's hdfs/cif/mr counters go to. Null = the
  /// process-wide MetricsRegistry::Default(); pass a private registry to
  /// isolate one job's counts.
  MetricsRegistry* metrics = nullptr;
  /// Collector the job's spans go to. Null = no caller collector; spans
  /// are then emitted only if trace_path is set (the engine owns a
  /// collector for the duration of Run and writes it out at the end).
  TraceCollector* trace = nullptr;
  /// When non-empty, Run() writes the job's trace here as Chrome
  /// trace_event JSON (loadable at https://ui.perfetto.dev). Works with
  /// either an external or an engine-owned collector.
  std::string trace_path;
};

/// Receives the key/value pairs produced by map and reduce functions.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(Value key, Value value) = 0;
};

/// User map function: called once per input record.
using MapFn = std::function<void(Record& record, Emitter* out)>;

/// User reduce function: called once per distinct key with all its values.
using ReduceFn = std::function<void(const Value& key,
                                    const std::vector<Value>& values,
                                    Emitter* out)>;

/// A configured MapReduce job. reducer may be null (map-only job);
/// combiner may be null (no map-side aggregation).
struct Job {
  JobConfig config;
  std::shared_ptr<InputFormat> input_format;
  MapFn mapper;
  ReduceFn reducer;
  /// Map-side pre-aggregation, run over each spill of a map task's output
  /// (its whole output when the sort buffer is unbounded) and at
  /// intermediate merges (Hadoop's Combiner). Must be algebraically compatible with
  /// the reducer (same key/value types in and out).
  ReduceFn combiner;
};

/// Execution record of a single map task.
struct TaskReport {
  int split_index = 0;
  NodeId node = kAnyNode;
  bool data_local = false;   // all split files local to the node
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  double cpu_seconds = 0;
  IoStats io;
  double sim_seconds = 0;    // per the cost model
  /// Executions this task took (1 = no retries). node/data_local describe
  /// the final attempt; io folds in the traffic of failed attempts too.
  int attempts = 1;
};

/// What Run() returns: everything Table 1 reports, plus detail. The only
/// source of the mr.* counters that mirror its fields (DESIGN.md §8).
struct JobReport {
  std::vector<TaskReport> map_tasks;

  uint64_t bytes_read_local = 0;
  uint64_t bytes_read_remote = 0;
  uint64_t BytesRead() const { return bytes_read_local + bytes_read_remote; }

  uint64_t map_input_records = 0;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;
  uint64_t reduce_output_records = 0;

  double map_cpu_seconds = 0;       // summed over tasks (per-thread CPU clock)
  /// Simulated cluster map-phase makespan (LPT packing onto slots).
  double map_phase_seconds = 0;
  /// The paper's "map time" metric (Section 6.3): total simulated task
  /// time divided by the cluster's map slots — per-slot average load.
  double map_slot_seconds = 0;
  double shuffle_seconds = 0;       // simulated
  double reduce_phase_seconds = 0;  // simulated
  double total_seconds = 0;         // simulated end-to-end

  /// Measured wall-clock duration of Run() itself — the quantity the
  /// parallel engine actually shrinks (total_seconds is simulated cluster
  /// time and is invariant to the local thread count).
  double wall_seconds = 0;
  /// Worker threads the engine executed with (1 = serial path).
  int worker_threads = 1;
  /// Peak number of concurrently *executing* map tasks per node, recorded
  /// by the slot gate; never exceeds config.map_slots_per_node.
  std::vector<int> peak_node_slots;

  int data_local_tasks = 0;
  int remote_tasks = 0;

  // ---- Failure and recovery (filled even when the job fails) ----
  /// Task re-executions: sum over map tasks of (attempts - 1) of each
  /// task's recorded attempt chain (a winning backup counts 0), plus
  /// reducer re-runs after a spill-read failure.
  uint64_t task_retries = 0;
  /// Replica reads rejected by the block checksum, summed over attempts
  /// (map, merge and reduce).
  uint64_t checksum_failures = 0;
  /// Replica read attempts that failed over to another replica, input and
  /// spill reads alike.
  uint64_t failover_reads = 0;
  /// Nodes the job blacklisted (>= config.node_blacklist_failures failed
  /// map or output-write attempts), ascending; filled after the last phase.
  std::vector<NodeId> blacklisted_nodes;

  /// Collected reduce output (key, value) pairs, when the job has a
  /// reducer; also written to config.output_path as text part files.
  std::vector<std::pair<Value, Value>> output;

  // ---- Reduce-side accounting (appended; existing fields above keep
  // ---- their layout and meaning) ----
  /// Bytes actually crossing the shuffle: the tagged-encoding size of
  /// every (key, value) pair entering the reduce merge, *after* all
  /// map-side combining. Equal to map_output_bytes unless an intermediate
  /// merge pass combined further (never with an unbounded sort buffer),
  /// so shuffle_bytes <= map_output_bytes always holds.
  uint64_t shuffle_bytes = 0;
  /// Records entering each reduce partition, indexed by partition.
  std::vector<uint64_t> reduce_input_records;

  // ---- Crash-safe commit + straggler defense (appended) ----
  /// Speculative backup attempts launched / that finished first / that
  /// lost the race to the original attempt.
  uint64_t speculative_launched = 0;
  uint64_t speculative_won = 0;
  uint64_t speculative_lost = 0;
  /// Output tasks whose attempt won the commit rename.
  uint64_t tasks_committed = 0;
  /// Task/job abort actions taken by the committer (lost races, failed
  /// writes, failed jobs).
  uint64_t commit_aborts = 0;
  /// Block seals that failed under injected write faults, summed over
  /// spill, merge and output-write attempts.
  uint64_t write_faults = 0;
  /// Output-write attempt re-executions (write fault or commit fault,
  /// then retried on another node).
  uint64_t write_retries = 0;

  // ---- Sort-merge shuffle (appended). With an unbounded sort buffer
  // ---- (sort_buffer_bytes == 0) runs stay resident, so spill_count,
  // ---- spill_bytes and merge_passes are 0 ----
  /// Sorted runs spilled by the recorded (winning) map attempts; failed
  /// and superseded attempts' spills are not counted.
  uint64_t spill_count = 0;
  /// File bytes across those runs (framing and compression included).
  uint64_t spill_bytes = 0;
  /// Intermediate merge passes taken to respect merge_factor.
  uint64_t merge_passes = 0;
  /// Run segments consumed by merges, resident or spilled: intermediate
  /// passes plus the final reduce-side merge.
  uint64_t merge_segments = 0;
  /// Largest tagged-byte occupancy any task's sort buffer reached — the
  /// bounded-memory evidence (at most sort_buffer_bytes + one record);
  /// with an unbounded buffer, the largest task's whole output.
  uint64_t peak_spill_buffer_bytes = 0;
};

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_JOB_H_
