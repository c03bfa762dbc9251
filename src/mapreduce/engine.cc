#include "mapreduce/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/committer.h"
#include "mapreduce/map_loop.h"
#include "mapreduce/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

/// Admission control faithful to the simulated cluster: at most
/// map_slots_per_node tasks execute concurrently on any node, whatever the
/// pool size. Counters are mutex-guarded; Acquire blocks until the task's
/// assigned node has a free slot (slots are only ever held by running
/// tasks, so waiters always make progress). Peaks are recorded for the
/// report — and for the tests that assert slot-faithfulness.
class SlotGate {
 public:
  SlotGate(int num_nodes, int slots_per_node)
      : slots_per_node_(std::max(1, slots_per_node)),
        active_(std::max(0, num_nodes), 0),
        peak_(std::max(0, num_nodes), 0) {}

  void Acquire(NodeId node) {
    if (node < 0 || node >= static_cast<NodeId>(active_.size())) return;
    std::unique_lock<std::mutex> lock(mu_);
    slot_freed_.wait(lock,
                     [&] { return active_[node] < slots_per_node_; });
    ++active_[node];
    peak_[node] = std::max(peak_[node], active_[node]);
  }

  void Release(NodeId node) {
    if (node < 0 || node >= static_cast<NodeId>(active_.size())) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_[node];
    }
    slot_freed_.notify_all();
  }

  std::vector<int> peaks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  const int slots_per_node_;
  mutable std::mutex mu_;
  std::condition_variable slot_freed_;
  std::vector<int> active_;
  std::vector<int> peak_;
};

/// One reducer's output, produced on a pool thread and merged in partition
/// order afterwards.
struct ReduceTaskResult {
  std::vector<std::pair<Value, Value>> pairs;
  double cpu_seconds = 0;
  uint64_t input_records = 0;
  /// Run segments this reducer's merge consumed.
  uint64_t segments_merged = 0;
  /// A spill-read failure in this partition's merge.
  Status status;
};

/// Per-job failure bookkeeping shared by concurrently retrying tasks: how
/// many attempts failed on each node, and which nodes crossed the
/// blacklist threshold (Hadoop's per-job tracker blacklist).
class RetryTracker {
 public:
  explicit RetryTracker(int blacklist_threshold)
      : threshold_(std::max(1, blacklist_threshold)) {}

  /// Returns true when this failure crossed the blacklist threshold (the
  /// node was just blacklisted).
  bool RecordFailure(NodeId node) {
    if (node == kAnyNode) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (++failures_[node] >= threshold_) {
      return blacklist_.insert(node).second;
    }
    return false;
  }

  bool IsBlacklisted(NodeId node) const {
    if (node == kAnyNode) return false;
    std::lock_guard<std::mutex> lock(mu_);
    return blacklist_.count(node) > 0;
  }

  std::vector<NodeId> blacklisted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<NodeId>(blacklist_.begin(), blacklist_.end());
  }

 private:
  const int threshold_;
  mutable std::mutex mu_;
  std::map<NodeId, int> failures_;
  std::set<NodeId> blacklist_;
};

/// Node for a retry attempt: an untried live, unblacklisted replica
/// holder when one exists (the retry keeps its locality), else the
/// lowest-id untried live, unblacklisted node, else any live
/// unblacklisted node (attempts may outnumber nodes), else `fallback`.
NodeId PickRetryNode(const MiniHdfs& fs, const InputSplit& split,
                     const std::set<NodeId>& tried, const RetryTracker& retry,
                     NodeId fallback) {
  const int num_nodes = fs.config().num_nodes;
  for (NodeId node : split.locations) {
    if (node < 0 || node >= num_nodes) continue;
    if (fs.IsNodeDead(node) || retry.IsBlacklisted(node)) continue;
    if (tried.count(node) == 0) return node;
  }
  NodeId reusable = kAnyNode;
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (fs.IsNodeDead(node) || retry.IsBlacklisted(node)) continue;
    if (tried.count(node) == 0) return node;
    if (reusable == kAnyNode) reusable = node;
  }
  return reusable != kAnyNode ? reusable : fallback;
}

bool SplitIsLocalTo(const InputSplit& split, NodeId node) {
  return std::find(split.locations.begin(), split.locations.end(), node) !=
         split.locations.end();
}

/// Fault-salt domain for reduce-output write attempts: the high bit keeps
/// them disjoint from map-attempt salts (split * 131 + attempt) — see the
/// draw-keying contract in fault_injector.h.
constexpr uint64_t kReduceWriteSaltDomain = 0x8000000000000000ull;
/// Fault-salt domains for spill-run writes (map side) and intermediate
/// merge-run writes: each gets its own high bits so write-fault draws
/// never collide across the three write paths of one job.
constexpr uint64_t kSpillWriteSaltDomain = 0x4000000000000000ull;
constexpr uint64_t kMergeWriteSaltDomain = 0xC000000000000000ull;

/// Shared state of one map task's attempts under speculative execution.
/// The mutex serializes "who records the task's result": exactly one of
/// the primary retry chain and the (at most one) backup attempt writes
/// results[i], whatever order they finish in. `done` doubles as the
/// supersede hint losing attempts poll to exit early.
struct TaskControl {
  std::mutex mu;
  /// A result (success or terminal failure) has been recorded.
  bool recorded = false;
  /// The monitor launched (and has not yet seen finish) a backup attempt.
  bool backup_launched = false;
  bool backup_inflight = false;
  /// The primary chain failed terminally while a backup was in flight;
  /// the backup's completion decides whether the failure stands.
  bool primary_failed = false;
  Status primary_status;
  /// Nodes any attempt of this task has executed on (backup placement
  /// avoids them).
  std::set<NodeId> tried;
  /// Wall-clock duration of the recorded result, for the monitor's
  /// completed-task median.
  double duration = 0;
  std::atomic<bool> done{false};
  /// Seconds on the phase clock when the primary chain started executing;
  /// < 0 until then (queued tasks are not stragglers).
  std::atomic<double> started_at{-1.0};
};

}  // namespace

/// Everything one map task hands back to the merge step. Each task owns
/// its TaskReport (and the IoStats inside it) exclusively while running;
/// nothing is written to shared sinks until the join. A map-only job's
/// output lands in `pairs`, a reduce job's in `runs`.
struct JobRunner::MapTaskResult {
  TaskReport task;
  std::vector<std::pair<Value, Value>> pairs;
  std::vector<SpillRun> runs;
  /// Tagged bytes of the task's (post-combine) output.
  uint64_t output_bytes = 0;
  uint64_t spills = 0;
  uint64_t spilled_bytes = 0;
  uint64_t peak_buffer_bytes = 0;
  Status status;
};

NodeId JobRunner::ScheduleSplit(const InputSplit& split,
                                std::vector<int>* node_load, int total_splits,
                                bool* data_local) const {
  const int num_nodes = fs_->config().num_nodes;
  // A node is "busy" once it holds more than its balanced share of tasks.
  const int fair_share =
      (total_splits + num_nodes - 1) / std::max(1, num_nodes);

  NodeId best_local = kAnyNode;
  for (NodeId node : split.locations) {
    if (node < 0 || node >= num_nodes || fs_->IsNodeDead(node)) continue;
    if (best_local == kAnyNode || (*node_load)[node] < (*node_load)[best_local]) {
      best_local = node;
    }
  }
  if (best_local != kAnyNode && (*node_load)[best_local] < fair_share) {
    *data_local = true;
    return best_local;
  }
  // Fall back to the globally least-loaded live node (rack-locality is
  // not modelled): the task will read some or all of its data remotely.
  NodeId least = kAnyNode;
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (fs_->IsNodeDead(node)) continue;
    if (least == kAnyNode || (*node_load)[node] < (*node_load)[least]) {
      least = node;
    }
  }
  *data_local = std::find(split.locations.begin(), split.locations.end(),
                          least) != split.locations.end();
  return least;
}

Status JobRunner::Run(const Job& job, JobReport* report) {
  MetricsRegistry* metrics = job.config.metrics != nullptr
                                 ? job.config.metrics
                                 : &MetricsRegistry::Default();
  // Trace lifecycle: use the caller's collector when given; otherwise own
  // one for the duration of the run iff a trace_path asks for output.
  std::unique_ptr<TraceCollector> owned_trace;
  TraceCollector* trace = job.config.trace;
  if (trace == nullptr && !job.config.trace_path.empty()) {
    owned_trace = std::make_unique<TraceCollector>();
    trace = owned_trace.get();
  }

  Status status;
  {
    // Scope the root span so it closes before the collector is flushed.
    ScopedSpan job_span(trace, "job", "mr");
    status = RunImpl(job, report, metrics, trace);
    if (job_span.active() && !status.ok()) {
      job_span.AddArg("error", status.message());
    }
  }
  if (trace != nullptr && !job.config.trace_path.empty()) {
    Status write_status = trace->WriteFile(job.config.trace_path);
    if (status.ok()) status = write_status;
  }
  return status;
}

Status JobRunner::RunImpl(const Job& job, JobReport* report,
                          MetricsRegistry* metrics, TraceCollector* trace) {
  Stopwatch wall;
  *report = JobReport();
  if (!job.input_format) {
    return Status::InvalidArgument("job has no input format");
  }
  if (!job.mapper) {
    return Status::InvalidArgument("job has no mapper");
  }
  metrics->counter("mr.job.runs")->Increment();

  // Output guard + commit protocol (DESIGN.md §11): claim the output
  // directory before any task runs, and make sure a failed job leaves no
  // visible output — a crash, fault, or exhausted retry at any point
  // below rolls the directory back to empty.
  std::unique_ptr<OutputCommitter> committer;
  if (!job.config.output_path.empty()) {
    committer = std::make_unique<OutputCommitter>(fs_, job.config.output_path,
                                                  metrics, trace);
    COLMR_RETURN_IF_ERROR(committer->SetupJob());
  }
  Status status = ExecutePhases(job, report, metrics, trace, committer.get());
  if (!status.ok() && committer != nullptr) {
    committer->AbortJob();
    report->commit_aborts += 1;
  }
  report->wall_seconds = wall.ElapsedSeconds();
  return status;
}

Status JobRunner::ExecutePhases(const Job& job, JobReport* report,
                                MetricsRegistry* metrics,
                                TraceCollector* trace,
                                OutputCommitter* committer) {

  // ---- Block cache + prefetch (DESIGN.md §9): attach the shared cache
  // (idempotent, so repeated jobs share one warm cache) and stand up the
  // dedicated warm-task pool. Prefetch must NOT share the map-task pool:
  // its FIFO queue would order warm tasks after every queued map task,
  // by which time the scan they were meant to overlap has finished.
  if (job.config.cache_bytes > 0) {
    fs_->EnsureBlockCache(job.config.cache_bytes, metrics);
  }
  std::unique_ptr<ThreadPool> prefetch_pool;
  if (job.config.cache_bytes > 0 && job.config.prefetch_depth > 0) {
    prefetch_pool = std::make_unique<ThreadPool>(2);
  }

  // ---- Sort-merge shuffle setup (DESIGN.md §12). The reducer count is
  // fixed before any map task runs because map output is partitioned at
  // emit time. Map-only jobs have no shuffle, so sort_buffer_bytes is
  // ignored for them.
  const int num_reducers =
      job.reducer ? (job.config.num_reduce_tasks > 0
                         ? job.config.num_reduce_tasks
                         : fs_->config().num_nodes *
                               fs_->config().reduce_slots_per_node)
                  : 0;
  if (job.reducer && GetCodec(job.config.spill_codec) == nullptr) {
    return Status::InvalidArgument("unknown spill codec");
  }
  // Spill scratch: with a committer, runs live inside the task attempt's
  // _temporary scratch (CommitJob/AbortJob tear them down with it); a
  // reduce job with no output path gets a private /_shuffle directory,
  // removed on every exit path by the guard below. Resident runs never
  // write there.
  std::string scratch_root;
  if (job.reducer && committer == nullptr) {
    static std::atomic<uint64_t> scratch_seq{0};
    scratch_root = "/_shuffle/job-" + std::to_string(scratch_seq.fetch_add(1));
  }
  struct ScratchGuard {
    MiniHdfs* fs;
    std::string root;
    ~ScratchGuard() {
      if (!root.empty()) fs->DeleteRecursive(root);
    }
  } scratch_guard{fs_, scratch_root};
  auto spill_dir = [&](size_t split, int attempt) -> std::string {
    char task_id[32];
    std::snprintf(task_id, sizeof(task_id), "m_%05zu", split);
    if (committer != nullptr) {
      return committer->TaskAttemptDir(task_id, attempt);
    }
    return scratch_root + "/attempt_" + task_id + "_" +
           std::to_string(attempt);
  };

  Counter* m_tasks_launched = metrics->counter("mr.task.launched");
  Counter* m_task_retries = metrics->counter("mr.task.retries");
  Counter* m_nodes_blacklisted = metrics->counter("mr.node.blacklisted");
  Gauge* m_slots_active = metrics->gauge("mr.slots.active");
  Histogram* m_task_cpu_micros = metrics->histogram("mr.task.cpu_micros");
  Counter* m_spec_launched = metrics->counter("mr.speculative.launched");
  Counter* m_spec_won = metrics->counter("mr.speculative.won");
  Counter* m_spec_lost = metrics->counter("mr.speculative.lost");
  Counter* m_write_retries = metrics->counter("hdfs.write.retries");

  std::vector<InputSplit> splits;
  {
    ScopedSpan plan_span(trace, "plan.splits", "mr");
    ReadContext plan_context;
    plan_context.metrics = metrics;
    plan_context.trace = trace;
    plan_context.readahead_bytes = job.config.readahead_bytes;
    COLMR_RETURN_IF_ERROR(
        job.input_format->GetSplits(fs_, job.config, plan_context, &splits));
    if (plan_span.active()) {
      plan_span.AddArg("splits", static_cast<uint64_t>(splits.size()));
    }
  }
  if (splits.empty()) {
    return Status::InvalidArgument("input produced no splits");
  }

  // ---- Scheduling: assign every split to its node serially, in split
  // order, exactly as the serial engine did — the assignment (and with it
  // all locality accounting) is deterministic and independent of the
  // thread count tasks later execute with.
  std::vector<int> node_load(fs_->config().num_nodes, 0);
  std::vector<NodeId> assigned_node(splits.size(), kAnyNode);
  std::vector<char> assigned_local(splits.size(), 0);
  for (size_t i = 0; i < splits.size(); ++i) {
    bool data_local = false;
    assigned_node[i] = ScheduleSplit(splits[i], &node_load,
                                     static_cast<int>(splits.size()),
                                     &data_local);
    if (assigned_node[i] != kAnyNode) node_load[assigned_node[i]] += 1;
    assigned_local[i] = data_local ? 1 : 0;
  }

  const int total_slots = fs_->config().TotalMapSlots();
  int threads;
  if (job.config.parallelism == 1) {
    threads = 1;
  } else if (job.config.parallelism > 1) {
    // More threads than cluster slots cannot run: the gate would park them.
    threads = std::min(job.config.parallelism, std::max(1, total_slots));
  } else {
    threads = ThreadPool::DefaultThreads(total_slots);
  }
  report->worker_threads = threads;

  // ---- Map phase: execute every task, measuring per-thread CPU and
  // counting I/O into task-private sinks.
  SlotGate gate(fs_->config().num_nodes, fs_->config().map_slots_per_node);
  RetryTracker retry(job.config.node_blacklist_failures);
  std::vector<MapTaskResult> results(splits.size());

  // Speculation / deadline machinery. Controls exist even when both
  // features are off — the checks they feed are gated, so the fast path
  // only pays an untaken branch.
  const bool speculate =
      job.config.speculative_execution && job.config.parallelism != 1;
  std::vector<std::unique_ptr<TaskControl>> controls(splits.size());
  for (auto& control : controls) control = std::make_unique<TaskControl>();
  Stopwatch phase_clock;
  std::atomic<size_t> tasks_recorded{0};
  std::atomic<uint64_t> spec_launched{0}, spec_won{0}, spec_lost{0};

  // One execution of one map task on one node. Everything the attempt
  // produces lands in attempt-private state, so a failed attempt can be
  // discarded wholesale and retried. `superseded` (may be null) is the
  // early-exit hint: once another attempt of the same task has recorded
  // the result, this attempt stops reading and returns — its output is
  // discarded either way, and a losing straggler must not hold the job's
  // wall clock hostage.
  auto run_attempt = [&](size_t i, int attempt, NodeId node, bool data_local,
                         MapTaskResult* out,
                         const std::atomic<bool>* superseded) {
    TaskReport* task = &out->task;
    task->split_index = static_cast<int>(i);
    task->node = node;
    task->data_local = data_local;

    {
      ScopedSpan wait_span(trace, "slot_wait", "mr");
      gate.Acquire(node);
      if (wait_span.active()) wait_span.AddArg("node", node);
    }
    m_slots_active->Add(1);
    m_tasks_launched->Increment();
    // The map_task span lives on the executing thread, so the hdfs.read
    // spans its record reader emits nest inside it on the same track.
    ScopedSpan task_span(trace, "map_task", "mr");
    if (task_span.active()) {
      task_span.AddArg("split", static_cast<uint64_t>(i));
      task_span.AddArg("node", node);
      task_span.AddArg("attempt", attempt);
      task_span.AddArg("data_local", data_local);
    }
    // The salt keys this attempt's deterministic fault schedule: a retry
    // of the same split draws fresh outcomes, whatever thread runs it.
    ReadContext context{node, &task->io,
                        static_cast<uint64_t>(i) * 131 +
                            static_cast<uint64_t>(attempt),
                        metrics, trace};
    context.readahead_bytes = job.config.readahead_bytes;
    context.prefetch_depth = job.config.prefetch_depth;
    context.prefetch_pool = prefetch_pool.get();
    context.cancel = superseded;
    std::unique_ptr<RecordReader> reader;
    Status status = job.input_format->CreateRecordReader(
        fs_, job.config, splits[i], context, &reader);
    if (status.ok()) {
      // A reduce job's map output goes into the sort buffer: bounded, it
      // spills sorted runs into this attempt's private scratch (spill
      // writes draw from their own fault-salt domain, so injected write
      // faults hit spills and output writes independently); unbounded, it
      // keeps one resident run. A map-only job's output is collected as is.
      std::unique_ptr<MapOutputBuffer> spill_buffer;
      VectorEmitter map_only_out;
      if (job.reducer) {
        MapOutputBuffer::Options opts;
        opts.fs = fs_;
        opts.scratch_dir = spill_dir(i, attempt);
        opts.write_context =
            WriteContext{node, &task->io,
                         kSpillWriteSaltDomain |
                             (static_cast<uint64_t>(i) * 131 +
                              static_cast<uint64_t>(attempt)),
                         metrics};
        opts.num_partitions = num_reducers;
        opts.sort_buffer_bytes = job.config.sort_buffer_bytes;
        opts.combiner = job.combiner ? &job.combiner : nullptr;
        opts.codec = job.config.spill_codec;
        opts.metrics = metrics;
        opts.trace = trace;
        spill_buffer = std::make_unique<MapOutputBuffer>(std::move(opts));
      }
      Emitter* map_out =
          spill_buffer != nullptr ? static_cast<Emitter*>(spill_buffer.get())
                                  : &map_only_out;
      // Stops the attempt past its wall-clock deadline (task_timeout_ms),
      // once another attempt recorded the task, or after a spill write
      // failed (the buffer is sticky-bad; mapping on would only drop
      // output, so the attempt fails into the retry path).
      const double timeout_seconds = job.config.task_timeout_ms > 0
                                         ? job.config.task_timeout_ms / 1e3
                                         : 0;
      Stopwatch attempt_watch;
      auto poll = [&]() -> Status {
        if (superseded != nullptr &&
            superseded->load(std::memory_order_relaxed)) {
          return Status::IoError("attempt superseded: task " +
                                 std::to_string(i) +
                                 " already has a recorded result");
        }
        if (spill_buffer != nullptr && !spill_buffer->status().ok()) {
          return spill_buffer->status();
        }
        if (timeout_seconds > 0 &&
            attempt_watch.ElapsedSeconds() > timeout_seconds) {
          return Status::IoError(
              "task " + std::to_string(i) + " attempt " +
              std::to_string(attempt) + " exceeded task_timeout_ms=" +
              std::to_string(job.config.task_timeout_ms));
        }
        return Status::OK();
      };
      ThreadCpuStopwatch watch;
      Status abort_status = ForEachMappedRecord(
          reader.get(), job.config.batch_rows, job.config.predicate.get(),
          poll, [&](Record& record) { job.mapper(record, map_out); },
          &task->input_records);
      // The buffer's last sort and spill, or its resident run, is map work
      // inside the CPU window.
      if (abort_status.ok() && spill_buffer != nullptr) {
        abort_status = spill_buffer->Finish();
      }
      task->cpu_seconds = watch.ElapsedSeconds();
      status = abort_status.ok() ? reader->status() : abort_status;
      if (spill_buffer != nullptr) {
        out->runs = spill_buffer->TakeRuns();
        out->output_bytes = spill_buffer->output_kv_bytes();
        out->spills = spill_buffer->spills();
        out->spilled_bytes = spill_buffer->spilled_bytes();
        out->peak_buffer_bytes = spill_buffer->peak_buffer_bytes();
        task->output_records = spill_buffer->output_records();
      } else {
        for (const auto& [key, value] : map_only_out.pairs()) {
          out->output_bytes +=
              TaggedEncodedSize(key) + TaggedEncodedSize(value);
        }
        task->output_records = map_only_out.pairs().size();
        out->pairs = std::move(map_only_out.pairs());
      }
      if (task_span.active()) {
        task_span.AddArg("input_records", task->input_records);
        task_span.AddArg("output_records", task->output_records);
      }
      m_task_cpu_micros->Observe(
          static_cast<uint64_t>(task->cpu_seconds * 1e6));
    }
    task_span.End();
    m_slots_active->Add(-1);
    gate.Release(node);
    return status;
  };

  // One task end-to-end, as either the primary execution (the retry loop:
  // up to max_task_attempts, fresh node per retry, blacklist feedback) or
  // the single speculative backup attempt. Whichever execution finishes
  // first records the task's result under the control lock; the other
  // discovers ctrl.done, skips recording, and its output is discarded —
  // exactly one writer of results[i], ever.
  auto run_task = [&](size_t i, bool is_backup) {
    TaskControl& ctrl = *controls[i];
    const int max_attempts = std::max(1, job.config.max_task_attempts);
    const std::atomic<bool>* supersede_flag = speculate ? &ctrl.done : nullptr;

    if (is_backup) {
      // One attempt, on a node the primary has not tried (fall back to
      // reuse when the cluster is exhausted). The attempt index sits past
      // the primary's range so its fault-schedule salt never collides.
      std::set<NodeId> tried;
      {
        std::lock_guard<std::mutex> lock(ctrl.mu);
        tried = ctrl.tried;
      }
      const NodeId node =
          PickRetryNode(*fs_, splits[i], tried, retry, assigned_node[i]);
      MapTaskResult local;
      Status status = run_attempt(i, max_attempts, node,
                                  SplitIsLocalTo(splits[i], node), &local,
                                  supersede_flag);
      bool won = false;
      {
        std::lock_guard<std::mutex> lock(ctrl.mu);
        ctrl.backup_inflight = false;
        if (status.ok() && !ctrl.recorded) {
          ctrl.recorded = true;
          local.task.attempts = 1;
          local.task.sim_seconds = cost_model_.TaskSeconds(
              {local.task.cpu_seconds, local.task.io});
          local.status = Status::OK();
          results[i] = std::move(local);
          ctrl.done.store(true, std::memory_order_relaxed);
          tasks_recorded.fetch_add(1);
          won = true;
        } else if (!status.ok() && ctrl.primary_failed && !ctrl.recorded) {
          // The primary already failed terminally and deferred to us; the
          // backup failed too, so the task fails with the primary's error.
          ctrl.recorded = true;
          results[i].status = ctrl.primary_status;
          ctrl.done.store(true, std::memory_order_relaxed);
          tasks_recorded.fetch_add(1);
        }
      }
      if (won) {
        spec_won.fetch_add(1);
        m_spec_won->Increment();
      } else {
        spec_lost.fetch_add(1);
        m_spec_lost->Increment();
      }
      TraceInstant(trace, won ? "speculative_won" : "speculative_lost", "mr",
                   {{"split", TraceCollector::JsonValue(
                                  static_cast<uint64_t>(i))}});
      return;
    }

    // Primary execution. started_at is stamped here — not at submit time —
    // so a task still queued behind others is never mistaken for a
    // straggler by the monitor.
    ctrl.started_at.store(phase_clock.ElapsedSeconds(),
                          std::memory_order_relaxed);
    NodeId node = assigned_node[i];
    bool data_local = assigned_local[i] != 0;
    IoStats failed_io;
    double failed_cpu = 0;

    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (ctrl.done.load(std::memory_order_relaxed)) return;  // backup won
      {
        // Move off the scheduled node when it has been blacklisted since
        // scheduling, and always onto a fresh node for a retry. The tried
        // set lives in ctrl so a backup can pick a disjoint node.
        std::lock_guard<std::mutex> lock(ctrl.mu);
        if (retry.IsBlacklisted(node) || ctrl.tried.count(node) > 0) {
          node = PickRetryNode(*fs_, splits[i], ctrl.tried, retry, node);
          data_local = SplitIsLocalTo(splits[i], node);
        }
        ctrl.tried.insert(node);
      }

      MapTaskResult local;
      Status status =
          run_attempt(i, attempt, node, data_local, &local, supersede_flag);

      // DataLoss is terminal: no replica anywhere can serve the bytes, so
      // burning the remaining attempts (or blaming the node) is wrong.
      if (status.ok() || status.IsDataLoss() || attempt + 1 >= max_attempts) {
        local.task.attempts = attempt + 1;
        // The task's cost includes what its failed attempts consumed.
        local.task.cpu_seconds += failed_cpu;
        local.task.io.Add(failed_io);
        std::lock_guard<std::mutex> lock(ctrl.mu);
        if (ctrl.recorded) return;  // the backup finished first
        if (!status.ok() && ctrl.backup_inflight) {
          // Terminal failure while a backup is still running: defer the
          // verdict — the backup may yet succeed.
          ctrl.primary_failed = true;
          ctrl.primary_status = std::move(status);
          return;
        }
        ctrl.recorded = true;
        ctrl.duration = phase_clock.ElapsedSeconds() -
                        ctrl.started_at.load(std::memory_order_relaxed);
        local.task.sim_seconds =
            cost_model_.TaskSeconds({local.task.cpu_seconds, local.task.io});
        local.status = std::move(status);
        results[i] = std::move(local);
        ctrl.done.store(true, std::memory_order_relaxed);
        tasks_recorded.fetch_add(1);
        return;
      }
      // Retryable failure — unless this attempt was aborted because the
      // backup already recorded the task, which is no node's fault and
      // needs no retry bookkeeping.
      if (ctrl.done.load(std::memory_order_relaxed)) return;
      m_task_retries->Increment();
      TraceInstant(trace, "task_retry", "mr",
                   {{"split", TraceCollector::JsonValue(
                                  static_cast<uint64_t>(i))},
                    {"node", TraceCollector::JsonValue(node)},
                    {"error", TraceCollector::JsonValue(status.message())}});
      if (retry.RecordFailure(node)) {
        m_nodes_blacklisted->Increment();
        TraceInstant(trace, "node_blacklisted", "mr",
                     {{"node", TraceCollector::JsonValue(node)}});
      }
      failed_cpu += local.task.cpu_seconds;
      failed_io.Add(local.task.io);
    }
  };

  std::unique_ptr<ThreadPool> pool;
  {
    ScopedSpan map_span(trace, "map_phase", "mr");
    if (map_span.active()) {
      map_span.AddArg("tasks", static_cast<uint64_t>(splits.size()));
      map_span.AddArg("threads", threads);
    }
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      for (size_t i = 0; i < splits.size(); ++i) {
        pool->Submit([&run_task, i] { run_task(i, false); });
      }
      if (speculate) {
        // Straggler monitor (Hadoop semantics): once completed tasks give
        // a median duration, any running task lagging past
        // max(2 × median, 10 ms) gets ONE backup attempt on another node.
        // The driver thread plays the JobTracker here, polling while the
        // pool drains.
        while (tasks_recorded.load(std::memory_order_relaxed) <
               splits.size()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          std::vector<double> durations;
          for (auto& control : controls) {
            std::lock_guard<std::mutex> lock(control->mu);
            if (control->recorded) durations.push_back(control->duration);
          }
          if (durations.empty()) continue;
          std::nth_element(durations.begin(),
                           durations.begin() + durations.size() / 2,
                           durations.end());
          const double median = durations[durations.size() / 2];
          const double threshold = std::max(2 * median, 0.01);
          const double now = phase_clock.ElapsedSeconds();
          for (size_t i = 0; i < splits.size(); ++i) {
            TaskControl& ctrl = *controls[i];
            const double started =
                ctrl.started_at.load(std::memory_order_relaxed);
            if (started < 0 || ctrl.done.load(std::memory_order_relaxed) ||
                now - started <= threshold) {
              continue;
            }
            bool launch = false;
            {
              std::lock_guard<std::mutex> lock(ctrl.mu);
              if (!ctrl.recorded && !ctrl.backup_launched) {
                ctrl.backup_launched = true;
                ctrl.backup_inflight = true;
                launch = true;
              }
            }
            if (!launch) continue;
            spec_launched.fetch_add(1);
            m_spec_launched->Increment();
            TraceInstant(trace, "speculative_launch", "mr",
                         {{"split", TraceCollector::JsonValue(
                                        static_cast<uint64_t>(i))}});
            pool->Submit([&run_task, i] { run_task(i, true); });
          }
        }
      }
      pool->Wait();
    } else {
      for (size_t i = 0; i < splits.size(); ++i) {
        run_task(i, false);
        // Fail fast like the original serial loop (after the task's own
        // retries are exhausted); the merge below reports the failure.
        if (!results[i].status.ok()) break;
      }
    }
  }
  report->speculative_launched = spec_launched.load();
  report->speculative_won = spec_won.load();
  report->speculative_lost = spec_lost.load();

  // ---- Failure/recovery accounting: filled before the merge loop so a
  // failed job still reports what its recovery machinery did.
  for (const MapTaskResult& result : results) {
    if (result.task.attempts > 0) {
      report->task_retries += static_cast<uint64_t>(result.task.attempts - 1);
    }
    report->checksum_failures += result.task.io.checksum_failures;
    report->failover_reads += result.task.io.failover_reads;
    // Spill-write faults of every attempt, winning or not (zero when no
    // task spilled); reduce-output faults are added where those writes
    // happen.
    report->write_faults += result.task.io.write_faults;
  }
  report->blacklisted_nodes = retry.blacklisted();
  report->peak_node_slots = gate.peaks();

  // ---- Join: merge per-task results into the report in split order, so
  // map output (and everything derived from it) is byte-identical to the
  // serial engine's.
  std::vector<std::pair<Value, Value>> map_output;
  std::vector<double> task_times;
  task_times.reserve(splits.size());
  for (MapTaskResult& result : results) {
    COLMR_RETURN_IF_ERROR(result.status);
    TaskReport& task = result.task;
    task_times.push_back(task.sim_seconds);

    report->map_input_records += task.input_records;
    report->map_output_records += task.output_records;
    report->map_output_bytes += result.output_bytes;
    report->bytes_read_local += task.io.local_bytes;
    report->bytes_read_remote += task.io.remote_bytes;
    report->map_cpu_seconds += task.cpu_seconds;
    if (task.data_local) {
      report->data_local_tasks += 1;
    } else {
      report->remote_tasks += 1;
    }

    report->spill_count += result.spills;
    report->spill_bytes += result.spilled_bytes;
    report->peak_spill_buffer_bytes =
        std::max(report->peak_spill_buffer_bytes, result.peak_buffer_bytes);
    for (auto& pair : result.pairs) map_output.push_back(std::move(pair));
    report->map_tasks.push_back(std::move(task));
  }
  report->map_phase_seconds = cost_model_.MapPhaseSeconds(task_times);
  double task_time_sum = 0;
  for (double t : task_times) task_time_sum += t;
  report->map_slot_seconds =
      task_time_sum / std::max(1, fs_->config().TotalMapSlots());
  metrics->counter("mr.map.input_records")
      ->Increment(report->map_input_records);
  metrics->counter("mr.map.output_records")
      ->Increment(report->map_output_records);

  // ---- Shuffle + reduce (skipped for map-only jobs).
  if (job.reducer) {
    // ---- Shuffle (DESIGN.md §12): collect the winning tasks' runs in
    // (split, spill) order — the global sequence order the merge's
    // tie-break reproduces stable sorting with. While more runs exist
    // than merge_factor (io.sort.factor), intermediate passes merge
    // contiguous groups of merge_factor runs into one run each, which
    // keeps that order. A write fault during a merge retries the group
    // with a fresh salt and path, like any other write attempt. Resident
    // runs skip the passes: they hold no files open to bound, and a
    // retried group would re-read segments its first attempt consumed.
    Counter* m_merge_segments = metrics->counter("mr.spill.merge_segments");
    std::vector<SpillRun> final_runs;
    {
      ScopedSpan shuffle_span(trace, "shuffle", "mr");
      for (MapTaskResult& result : results) {
        for (SpillRun& run : result.runs) final_runs.push_back(std::move(run));
      }
      if (shuffle_span.active()) {
        shuffle_span.AddArg("runs", static_cast<uint64_t>(final_runs.size()));
      }
      const size_t merge_factor =
          static_cast<size_t>(std::max(2, job.config.merge_factor));
      Counter* m_merge_passes = metrics->counter("mr.spill.merge_passes");
      const int write_attempts = std::max(1, job.config.max_task_attempts);
      int pass = 0;
      while (job.config.sort_buffer_bytes > 0 &&
             final_runs.size() > merge_factor) {
        std::vector<SpillRun> next;
        for (size_t g = 0; g * merge_factor < final_runs.size(); ++g) {
          const size_t begin = g * merge_factor;
          const size_t end =
              std::min(final_runs.size(), begin + merge_factor);
          if (end - begin == 1) {
            next.push_back(std::move(final_runs[begin]));
            continue;
          }
          std::vector<const SpillRun*> group;
          for (size_t r = begin; r < end; ++r) group.push_back(&final_runs[r]);
          Status last;
          bool merged_ok = false;
          for (int attempt = 0; attempt < write_attempts && !merged_ok;
               ++attempt) {
            ScopedSpan merge_span(trace, "merge", "mr");
            if (merge_span.active()) {
              merge_span.AddArg("pass", pass);
              merge_span.AddArg("group", static_cast<uint64_t>(g));
              merge_span.AddArg("runs", static_cast<uint64_t>(group.size()));
              merge_span.AddArg("attempt", attempt);
            }
            const uint64_t salt =
                kMergeWriteSaltDomain |
                ((static_cast<uint64_t>(pass) * 8191 + g) * 131 +
                 static_cast<uint64_t>(attempt));
            WriteContext wctx{kAnyNode, nullptr, salt, metrics};
            ReadContext rctx;
            rctx.metrics = metrics;
            rctx.trace = trace;
            const std::string name = "merge-" + std::to_string(pass) + "-" +
                                     std::to_string(g);
            const std::string path =
                committer != nullptr
                    ? committer->TaskAttemptDir(name, attempt) + "/run"
                    : scratch_root + "/" + name + "-" +
                          std::to_string(attempt);
            SpillRun merged;
            uint64_t segments = 0;
            last = MergeSpillRuns(fs_, group, path, wctx, rctx,
                                  job.config.spill_codec, num_reducers,
                                  job.combiner ? &job.combiner : nullptr,
                                  &merged, &segments);
            if (last.ok()) {
              next.push_back(std::move(merged));
              report->merge_segments += segments;
              m_merge_segments->Increment(segments);
              merged_ok = true;
            } else {
              TraceInstant(trace, "merge_retry", "mr",
                           {{"pass", TraceCollector::JsonValue(pass)},
                            {"group", TraceCollector::JsonValue(
                                          static_cast<uint64_t>(g))},
                            {"error", TraceCollector::JsonValue(
                                          last.message())}});
            }
          }
          if (!merged_ok) return last;
        }
        final_runs = std::move(next);
        report->merge_passes += 1;
        m_merge_passes->Increment();
        ++pass;
      }
      // Bytes actually shuffled: what survives all map-side combining and
      // enters the reduce merge.
      for (const SpillRun& run : final_runs) {
        report->shuffle_bytes += run.TotalKvBytes();
      }
      if (shuffle_span.active()) {
        shuffle_span.AddArg("bytes", report->shuffle_bytes);
      }
    }
    metrics->counter("mr.shuffle.bytes")->Increment(report->shuffle_bytes);

    std::vector<ReduceTaskResult> reduced(static_cast<size_t>(num_reducers));
    auto execute_reducer = [&](size_t p) {
      ScopedSpan reduce_span(trace, "reduce_task", "mr");
      if (reduce_span.active()) {
        reduce_span.AddArg("partition", static_cast<uint64_t>(p));
      }
      ThreadCpuStopwatch watch;
      VectorEmitter emitter;
      uint64_t input_records = 0;
      // Stream this partition through a heap merge over every final run —
      // the partition never materializes as one vector. Groups of equal
      // keys fold through the reducer as they drain off the heap; the merge
      // order equals a stable sort of the concatenated map output, so the
      // reducer sees the same (key, [values]) calls at every buffer size.
      SpillMerger merger;
      for (size_t r = 0; r < final_runs.size(); ++r) {
        if (final_runs[r].segments[p].records == 0) continue;
        ReadContext rctx;
        rctx.metrics = metrics;
        rctx.trace = trace;
        std::unique_ptr<SpillSegmentCursor> cursor;
        Status open_status = SpillSegmentCursor::Open(
            fs_, final_runs[r], static_cast<int>(p), rctx, &cursor);
        if (!open_status.ok()) {
          reduced[p].status = open_status;
          return;
        }
        merger.Add(std::move(cursor), r);
        reduced[p].segments_merged += 1;
      }
      Value group_key;
      std::vector<Value> group_values;
      while (merger.Next()) {
        ++input_records;
        if (!group_values.empty() && merger.key().Compare(group_key) != 0) {
          job.reducer(group_key, group_values, &emitter);
          group_values.clear();
        }
        if (group_values.empty()) group_key = merger.key();
        group_values.push_back(merger.value());
      }
      if (!merger.status().ok()) {
        reduced[p].status = merger.status();
        return;
      }
      if (!group_values.empty()) {
        job.reducer(group_key, group_values, &emitter);
      }
      if (reduce_span.active()) {
        reduce_span.AddArg("input_records", input_records);
      }
      reduced[p].input_records = input_records;
      reduced[p].cpu_seconds = watch.ElapsedSeconds();
      reduced[p].pairs = std::move(emitter.pairs());
    };

    {
      ScopedSpan reduce_phase_span(trace, "reduce_phase", "mr");
      if (pool != nullptr) {
        for (size_t p = 0; p < reduced.size(); ++p) {
          pool->Submit([&execute_reducer, p] { execute_reducer(p); });
        }
        pool->Wait();
      } else {
        for (size_t p = 0; p < reduced.size(); ++p) execute_reducer(p);
      }
    }
    // Spill-read failures surface after the pool joins, lowest partition
    // first (matching the map phase's lowest-index-failure contract).
    uint64_t final_segments = 0;
    for (const ReduceTaskResult& result : reduced) {
      COLMR_RETURN_IF_ERROR(result.status);
      final_segments += result.segments_merged;
    }
    report->merge_segments += final_segments;
    m_merge_segments->Increment(final_segments);

    // Materialize the reduce output as text part files through the commit
    // protocol (DESIGN.md §11) — before the merge below moves the
    // partition vectors. Each partition is one output task: an attempt
    // writes part-r-NNNNN into its private _temporary attempt dir, then
    // commits with one atomic rename. A write or commit fault retries the
    // whole attempt on another node, feeding the same blacklist as map
    // retries; exhausting attempts fails the job (and RunImpl's AbortJob
    // leaves no visible output). Empty partitions still write their part
    // file, matching Hadoop's one-file-per-reducer layout.
    if (committer != nullptr) {
      const int write_attempts = std::max(1, job.config.max_task_attempts);
      const int num_nodes = fs_->config().num_nodes;
      for (size_t p = 0; p < reduced.size(); ++p) {
        char task_id[32];
        std::snprintf(task_id, sizeof(task_id), "r_%05zu", p);
        char part_name[32];
        std::snprintf(part_name, sizeof(part_name), "part-r-%05zu", p);
        std::set<NodeId> tried;
        Status last;
        bool committed = false;
        for (int attempt = 0; attempt < write_attempts && !committed;
             ++attempt) {
          // Deterministic node choice: round-robin from the partition
          // index over live, unblacklisted, untried nodes, reusing a
          // tried node only when the cluster is exhausted.
          NodeId node = static_cast<NodeId>(p % num_nodes);
          for (int off = 0; off < num_nodes; ++off) {
            const NodeId cand =
                static_cast<NodeId>((p + static_cast<size_t>(off)) %
                                    static_cast<size_t>(num_nodes));
            if (fs_->IsNodeDead(cand) || retry.IsBlacklisted(cand) ||
                tried.count(cand) > 0) {
              continue;
            }
            node = cand;
            break;
          }
          tried.insert(node);

          ScopedSpan output_span(trace, "output.write", "mr");
          if (output_span.active()) {
            output_span.AddArg("partition", static_cast<uint64_t>(p));
            output_span.AddArg("attempt", attempt);
            output_span.AddArg("node", node);
          }
          // Write-fault salt: the reduce-output domain bit keeps these
          // draws disjoint from map-read salts (see fault_injector.h).
          const uint64_t salt =
              kReduceWriteSaltDomain |
              (static_cast<uint64_t>(p) * 131 + static_cast<uint64_t>(attempt));
          IoStats io;
          WriteContext wctx{node, &io, salt, metrics};
          Status attempt_status = [&]() -> Status {
            std::unique_ptr<FileWriter> writer;
            COLMR_RETURN_IF_ERROR(
                fs_->Create(committer->TaskAttemptDir(task_id, attempt) + "/" +
                                part_name,
                            wctx, &writer));
            for (const auto& [key, value] : reduced[p].pairs) {
              writer->Append(key.ToString() + "\t" + value.ToString() + "\n");
              if (!writer->status().ok()) break;
            }
            return writer->Close();
          }();
          if (attempt_status.ok()) {
            bool won = false;
            attempt_status =
                committer->CommitTask(task_id, attempt, salt, &won);
            if (attempt_status.ok()) {
              committed = true;
              if (won) {
                report->tasks_committed += 1;
              } else {
                // Lost the commit rename race to a duplicate attempt; this
                // attempt's scratch must go.
                committer->AbortTask(task_id, attempt);
                report->commit_aborts += 1;
              }
            }
          }
          report->write_faults += io.write_faults;
          if (!attempt_status.ok()) {
            last = attempt_status;
            committer->AbortTask(task_id, attempt);
            report->commit_aborts += 1;
            if (retry.RecordFailure(node)) {
              m_nodes_blacklisted->Increment();
              TraceInstant(trace, "node_blacklisted", "mr",
                           {{"node", TraceCollector::JsonValue(node)}});
            }
            if (attempt + 1 < write_attempts) {
              report->write_retries += 1;
              m_write_retries->Increment();
            }
          }
        }
        if (!committed) return last;
      }
      COLMR_RETURN_IF_ERROR(committer->CommitJob(kReduceWriteSaltDomain));
    }

    // Merge emitted output in partition order — identical to running the
    // reducers one after another.
    Counter* m_reduce_input = metrics->counter("mr.reduce.input_records");
    double max_reducer_seconds = 0;
    report->reduce_input_records.reserve(reduced.size());
    for (ReduceTaskResult& result : reduced) {
      max_reducer_seconds = std::max(max_reducer_seconds, result.cpu_seconds);
      report->reduce_input_records.push_back(result.input_records);
      m_reduce_input->Increment(result.input_records);
      for (auto& pair : result.pairs) {
        report->output.push_back(std::move(pair));
      }
    }
    report->reduce_output_records = report->output.size();
    report->reduce_phase_seconds = max_reducer_seconds;

    // Shuffle: reducers pull their partitions in parallel over the
    // network; the phase lasts as long as the largest per-reducer pull.
    // Sized by the bytes actually shuffled (post all map-side combining).
    const double bytes_per_reducer =
        static_cast<double>(report->shuffle_bytes) /
        std::max(1, num_reducers);
    report->shuffle_seconds =
        bytes_per_reducer / (fs_->config().network_bandwidth_mbps * 1e6);

  } else {
    report->output = std::move(map_output);
  }

  report->total_seconds = report->map_phase_seconds +
                          report->shuffle_seconds +
                          report->reduce_phase_seconds;
  return Status::OK();
}

}  // namespace colmr
