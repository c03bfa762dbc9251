#include "mapreduce/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
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

bool SplitIsLocalTo(const InputSplit& split, NodeId node) {
  return std::find(split.locations.begin(), split.locations.end(), node) !=
         split.locations.end();
}

/// Fault-salt domains, one per kind of attempt, in the salt's top three
/// bits so draws never collide across the attempts of one job (see the
/// draw-keying contract in fault_injector.h). Read and write draws never
/// alias, so a merge group or a reducer salts its reads and its writes
/// alike.
constexpr uint64_t kMapReadSaltDomain = 0;
constexpr uint64_t kPlanReadSaltDomain = 0x2000000000000000ull;
constexpr uint64_t kSpillWriteSaltDomain = 0x4000000000000000ull;
constexpr uint64_t kReduceSaltDomain = 0x8000000000000000ull;
constexpr uint64_t kMergeSaltDomain = 0xC000000000000000ull;

/// The salt keying one attempt's deterministic fault schedule: a retry of
/// the same task draws fresh outcomes, whatever thread runs it.
uint64_t AttemptSalt(uint64_t domain, uint64_t index, int attempt) {
  return domain | (index * 131 + static_cast<uint64_t>(attempt));
}

/// "m_00003", "r_00012": the committer's task id for a map or reduce task.
std::string TaskId(char kind, size_t index) {
  char id[32];
  std::snprintf(id, sizeof(id), "%c_%05zu", kind, index);
  return id;
}

/// Everything one map attempt hands back. The attempt owns its TaskReport
/// (and the IoStats inside it) exclusively while running; nothing is
/// written to shared sinks until the join. A map-only job's output lands
/// in `pairs`, a reduce job's in `runs`.
struct MapTaskResult {
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

/// Shared state of one map task's attempts under speculative execution.
/// The mutex serializes "who records the task's result": exactly one of
/// the primary retry chain and the (at most one) backup attempt records
/// it, whatever order they finish in. `done` doubles as the supersede hint
/// losing attempts poll to exit early.
struct TaskControl {
  std::mutex mu;
  /// A result (success or terminal failure) has been recorded.
  bool recorded = false;
  /// The monitor launched (and has not yet seen finish) a backup attempt.
  bool backup_launched = false;
  bool backup_inflight = false;
  /// The primary chain's terminal failure, parked while a backup is in
  /// flight: the backup's completion decides whether it stands.
  std::unique_ptr<MapTaskResult> deferred;
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

/// One reducer's output, produced on a pool thread and merged in partition
/// order afterwards.
struct ReduceTaskResult {
  std::vector<std::pair<Value, Value>> pairs;
  double cpu_seconds = 0;
  uint64_t input_records = 0;
  /// Spill reads of every attempt: failovers and checksum failures.
  IoStats io;
  /// Attempts after the first, each after a spill-read failure.
  uint64_t retries = 0;
  /// The last attempt's spill-read failure, if every attempt failed.
  Status status;
};

/// One execution of JobRunner::Run. The phase units run in order and
/// each fills its own part of the report:
///
///   Plan    splits, the serial task→node schedule, worker_threads
///   Map     every map task (retries, backups, slot gate); map-side and
///           recovery fields, speculative_*, spill_*, map_tasks
///   Shuffle collects the winning runs, intermediate merge passes;
///           merge_passes, merge_segments, shuffle_bytes, shuffle_seconds
///   Reduce  one reducer per partition; reduce_*
///   Output  part files through the committer; output, tasks_committed,
///           commit_aborts, write_retries
///
/// Execute wraps them in the output guard and abort-on-failure protocol
/// (DESIGN.md §11) and fills blacklisted_nodes last, so nodes blacklisted
/// by any phase are reported. Map-only jobs stop after Map.
class JobRun {
 public:
  JobRun(MiniHdfs* fs, const CostModel& cost_model, const Job& job,
         JobReport* report, MetricsRegistry* metrics, TraceCollector* trace)
      : fs_(fs),
        cost_model_(cost_model),
        job_(job),
        config_(job.config),
        report_(report),
        metrics_(metrics),
        trace_(trace),
        m_tasks_launched_(metrics->counter("mr.task.launched")),
        m_slots_active_(metrics->gauge("mr.slots.active")),
        m_task_cpu_micros_(metrics->histogram("mr.task.cpu_micros")),
        gate_(fs->config().num_nodes, fs->config().map_slots_per_node),
        retry_(config_.node_blacklist_failures) {}

  /// Removes a report-only job's shuffle scratch on every exit path.
  ~JobRun() {
    if (!scratch_root_.empty()) fs_->DeleteRecursive(scratch_root_);
  }
  // Pool tasks hold `this`.
  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  Status Execute() {
    Stopwatch wall;
    *report_ = JobReport();
    if (!job_.input_format) {
      return Status::InvalidArgument("job has no input format");
    }
    if (!job_.mapper) {
      return Status::InvalidArgument("job has no mapper");
    }
    metrics_->counter("mr.job.runs")->Increment();

    // Output guard + commit protocol (DESIGN.md §11): claim the output
    // directory before any task runs, and make sure a failed job leaves no
    // visible output — a crash, fault, or exhausted retry in any phase rolls
    // the directory back to empty.
    if (!config_.output_path.empty()) {
      committer_ = std::make_unique<OutputCommitter>(fs_, config_.output_path,
                                                     metrics_, trace_);
      COLMR_RETURN_IF_ERROR(committer_->SetupJob());
    }
    Status status = RunPhases();
    if (!status.ok() && committer_ != nullptr) {
      committer_->AbortJob();
      report_->commit_aborts += 1;
    }
    report_->blacklisted_nodes = retry_.blacklisted();
    report_->wall_seconds = wall.ElapsedSeconds();
    return status;
  }

 private:
  Status RunPhases() {
    COLMR_RETURN_IF_ERROR(Plan());
    COLMR_RETURN_IF_ERROR(Map());
    if (job_.reducer) {
      COLMR_RETURN_IF_ERROR(Shuffle());
      COLMR_RETURN_IF_ERROR(Reduce());
      COLMR_RETURN_IF_ERROR(Output());
    }
    report_->total_seconds = report_->map_phase_seconds +
                             report_->shuffle_seconds +
                             report_->reduce_phase_seconds;
    return Status::OK();
  }

  // ---- Plan ----

  Status Plan() {
    // Block cache + prefetch (DESIGN.md §9): attach the shared cache
    // (idempotent, so repeated jobs share one warm cache) and stand up the
    // dedicated warm-task pool. Prefetch must NOT share the map-task pool:
    // its FIFO queue would order warm tasks after every queued map task,
    // by which time the scan they were meant to overlap has finished.
    if (config_.cache_bytes > 0) {
      fs_->EnsureBlockCache(config_.cache_bytes, metrics_);
      if (config_.prefetch_depth > 0) {
        prefetch_pool_ = std::make_unique<ThreadPool>(2);
      }
    }

    // Sort-merge shuffle setup (DESIGN.md §12). The reducer count is fixed
    // before any map task runs because map output is partitioned at emit
    // time. With a committer, spill and merge runs live inside the task
    // attempts' _temporary scratch (CommitJob/AbortJob tear them down with
    // it); a reduce job with no output path gets a private /_shuffle
    // directory, removed by ~JobRun. Resident runs never write there.
    if (job_.reducer) {
      if (GetCodec(config_.spill_codec) == nullptr) {
        return Status::InvalidArgument("unknown spill codec");
      }
      num_reducers_ = config_.num_reduce_tasks > 0
                          ? config_.num_reduce_tasks
                          : fs_->config().num_nodes *
                                fs_->config().reduce_slots_per_node;
      if (committer_ == nullptr) {
        static std::atomic<uint64_t> scratch_seq{0};
        scratch_root_ =
            "/_shuffle/job-" + std::to_string(scratch_seq.fetch_add(1));
      }
    }

    // A read that fails on every replica re-plans under a fresh read salt,
    // up to max_task_attempts, as a job client retries split computation.
    Status planned;
    IoStats plan_io;
    for (int attempt = 0; attempt < MaxAttempts(); ++attempt) {
      ScopedSpan plan_span(trace_, "plan.splits", "mr");
      const ReadContext plan_context{
          kAnyNode, &plan_io, AttemptSalt(kPlanReadSaltDomain, 0, attempt),
          metrics_, trace_};
      splits_.clear();
      planned =
          job_.input_format->GetSplits(fs_, config_, plan_context, &splits_);
      if (plan_span.active()) {
        plan_span.AddArg("splits", static_cast<uint64_t>(splits_.size()));
        plan_span.AddArg("attempt", attempt);
      }
      if (!planned.IsIoError()) break;
    }
    report_->failover_reads += plan_io.failover_reads;
    report_->checksum_failures += plan_io.checksum_failures;
    COLMR_RETURN_IF_ERROR(planned);
    if (splits_.empty()) {
      return Status::InvalidArgument("input produced no splits");
    }

    // Scheduling: assign every split to its node serially, in split order —
    // the assignment (and with it all locality accounting) is deterministic
    // and independent of the thread count tasks later execute with.
    std::vector<int> node_load(fs_->config().num_nodes, 0);
    assigned_node_.assign(splits_.size(), kAnyNode);
    assigned_local_.assign(splits_.size(), 0);
    for (size_t i = 0; i < splits_.size(); ++i) {
      bool data_local = false;
      assigned_node_[i] = ScheduleSplit(splits_[i], &node_load, &data_local);
      if (assigned_node_[i] != kAnyNode) node_load[assigned_node_[i]] += 1;
      assigned_local_[i] = data_local ? 1 : 0;
    }

    const int total_slots = fs_->config().TotalMapSlots();
    if (config_.parallelism == 1) {
      threads_ = 1;
    } else if (config_.parallelism > 1) {
      // More threads than cluster slots cannot run: the gate would park them.
      threads_ = std::min(config_.parallelism, std::max(1, total_slots));
    } else {
      threads_ = ThreadPool::DefaultThreads(total_slots);
    }
    report_->worker_threads = threads_;
    return Status::OK();
  }

  /// Picks the execution node for a split: the least-loaded live node
  /// holding the split's files, unless it is overloaded relative to a
  /// balanced assignment, in which case the scheduler falls back to the
  /// globally least-loaded node and the task reads remotely — Hadoop's
  /// "Node 1 is busy" situation from the paper's Fig. 3 discussion.
  NodeId ScheduleSplit(const InputSplit& split, std::vector<int>* node_load,
                       bool* data_local) const {
    const int num_nodes = fs_->config().num_nodes;
    // A node is "busy" once it holds more than its balanced share of tasks.
    const int fair_share =
        (static_cast<int>(splits_.size()) + num_nodes - 1) /
        std::max(1, num_nodes);

    NodeId best_local = kAnyNode;
    for (NodeId node : split.locations) {
      if (node < 0 || node >= num_nodes || fs_->IsNodeDead(node)) continue;
      if (best_local == kAnyNode ||
          (*node_load)[node] < (*node_load)[best_local]) {
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
    *data_local = SplitIsLocalTo(split, least);
    return least;
  }

  // ---- Map ----

  Status Map() {
    results_.resize(splits_.size());
    controls_.resize(splits_.size());
    for (auto& control : controls_) control = std::make_unique<TaskControl>();
    // Backups need someone to race; the serial engine has no one.
    speculate_ = config_.speculative_execution && config_.parallelism != 1;
    {
      ScopedSpan map_span(trace_, "map_phase", "mr");
      if (map_span.active()) {
        map_span.AddArg("tasks", static_cast<uint64_t>(splits_.size()));
        map_span.AddArg("threads", threads_);
      }
      if (threads_ > 1) {
        pool_ = std::make_unique<ThreadPool>(threads_);
        for (size_t i = 0; i < splits_.size(); ++i) {
          pool_->Submit([this, i] { RunPrimary(i); });
        }
        if (speculate_) MonitorStragglers();
        pool_->Wait();
      } else {
        for (size_t i = 0; i < splits_.size(); ++i) {
          RunPrimary(i);
          // Fail fast once a task's own retries are exhausted; the join
          // below reports the failure.
          if (!results_[i].status.ok()) break;
        }
      }
    }
    report_->speculative_launched = spec_launched_.load();
    report_->speculative_won = spec_won_.load();
    report_->speculative_lost = spec_lost_.load();

    // Failure/recovery accounting: filled before the join so a failed job
    // still reports what its recovery machinery did.
    for (const MapTaskResult& result : results_) {
      report_->task_retries += static_cast<uint64_t>(result.task.attempts - 1);
      report_->checksum_failures += result.task.io.checksum_failures;
      report_->failover_reads += result.task.io.failover_reads;
      // Spill-write faults of every attempt of the recorded chain (zero when
      // no task spilled); merge and reduce-output faults are added by
      // Shuffle and Output.
      report_->write_faults += result.task.io.write_faults;
    }
    report_->peak_node_slots = gate_.peaks();

    return JoinMapResults();
  }

  /// Merges per-task results into the report in split order, so map output
  /// (and everything derived from it) is byte-identical whatever the thread
  /// count. The first failed task, in split order, fails the job.
  Status JoinMapResults() {
    std::vector<std::pair<Value, Value>> map_output;
    std::vector<double> task_times;
    task_times.reserve(results_.size());
    for (MapTaskResult& result : results_) {
      COLMR_RETURN_IF_ERROR(result.status);
      TaskReport& task = result.task;
      task_times.push_back(task.sim_seconds);
      report_->map_input_records += task.input_records;
      report_->map_output_records += task.output_records;
      report_->map_output_bytes += result.output_bytes;
      report_->bytes_read_local += task.io.local_bytes;
      report_->bytes_read_remote += task.io.remote_bytes;
      report_->map_cpu_seconds += task.cpu_seconds;
      report_->data_local_tasks += task.data_local ? 1 : 0;
      report_->remote_tasks += task.data_local ? 0 : 1;
      report_->spill_count += result.spills;
      report_->spill_bytes += result.spilled_bytes;
      report_->peak_spill_buffer_bytes =
          std::max(report_->peak_spill_buffer_bytes, result.peak_buffer_bytes);
      for (auto& pair : result.pairs) map_output.push_back(std::move(pair));
      report_->map_tasks.push_back(std::move(task));
    }
    // A map-only job's output is its map output (a reduce job's is empty
    // here; Output fills it).
    report_->output = std::move(map_output);
    report_->map_phase_seconds = cost_model_.MapPhaseSeconds(task_times);
    double task_time_sum = 0;
    for (double t : task_times) task_time_sum += t;
    report_->map_slot_seconds =
        task_time_sum / std::max(1, fs_->config().TotalMapSlots());
    return Status::OK();
  }

  /// The primary execution of map task i: the retry chain of up to
  /// max_task_attempts, a fresh node per retry, blacklist feedback.
  void RunPrimary(size_t i) {
    TaskControl& ctrl = *controls_[i];
    const std::atomic<bool>* superseded = speculate_ ? &ctrl.done : nullptr;
    // Stamped here — not at submit time — so a task still queued behind
    // others is never mistaken for a straggler by the monitor.
    ctrl.started_at.store(phase_clock_.ElapsedSeconds(),
                          std::memory_order_relaxed);
    NodeId node = assigned_node_[i];
    bool data_local = assigned_local_[i] != 0;
    IoStats failed_io;
    double failed_cpu = 0;

    for (int attempt = 0; attempt < MaxAttempts(); ++attempt) {
      if (ctrl.done.load(std::memory_order_relaxed)) return;  // backup won
      {
        // Move off the scheduled node when it has been blacklisted since
        // scheduling, and always onto a fresh node for a retry. The tried
        // set lives in ctrl so a backup can pick a disjoint node.
        std::lock_guard<std::mutex> lock(ctrl.mu);
        if (retry_.IsBlacklisted(node) || ctrl.tried.count(node) > 0) {
          node = PickNode(splits_[i].locations, 0, ctrl.tried, node);
          data_local = SplitIsLocalTo(splits_[i], node);
        }
        ctrl.tried.insert(node);
      }
      MapTaskResult local =
          RunAttempt(i, attempt, node, data_local, superseded);

      // DataLoss is terminal: no replica anywhere can serve the bytes, so
      // burning the remaining attempts (or blaming the node) is wrong.
      const Status& status = local.status;
      if (status.ok() || status.IsDataLoss() || attempt + 1 >= MaxAttempts()) {
        local.task.attempts = attempt + 1;
        // The task's cost includes what its failed attempts consumed.
        local.task.cpu_seconds += failed_cpu;
        local.task.io.Add(failed_io);
        std::lock_guard<std::mutex> lock(ctrl.mu);
        if (ctrl.recorded) return;  // the backup finished first
        if (!status.ok() && ctrl.backup_inflight) {
          ctrl.deferred = std::make_unique<MapTaskResult>(std::move(local));
          return;
        }
        RecordLocked(i, std::move(local));
        return;
      }
      // Retryable failure — unless this attempt was aborted because the
      // backup already recorded the task, which is no node's fault and
      // needs no retry bookkeeping.
      if (ctrl.done.load(std::memory_order_relaxed)) return;
      TraceInstant(trace_, "task_retry", "mr",
                   {{"split", TraceCollector::JsonValue(
                                  static_cast<uint64_t>(i))},
                    {"node", TraceCollector::JsonValue(node)},
                    {"error", TraceCollector::JsonValue(status.message())}});
      RecordNodeFailure(node);
      failed_cpu += local.task.cpu_seconds;
      failed_io.Add(local.task.io);
    }
  }

  /// The single speculative backup of map task i: one attempt on a node the
  /// primary has not tried (reusing one when the cluster is exhausted). Its
  /// attempt index sits past the primary's range, so its fault-schedule
  /// salt never collides with theirs.
  void RunBackup(size_t i) {
    TaskControl& ctrl = *controls_[i];
    NodeId node;
    {
      std::lock_guard<std::mutex> lock(ctrl.mu);
      node = PickNode(splits_[i].locations, 0, ctrl.tried, assigned_node_[i]);
    }
    MapTaskResult local = RunAttempt(
        i, MaxAttempts(), node, SplitIsLocalTo(splits_[i], node), &ctrl.done);
    bool won = false;
    {
      std::lock_guard<std::mutex> lock(ctrl.mu);
      ctrl.backup_inflight = false;
      if (!ctrl.recorded && local.status.ok()) {
        won = true;
        RecordLocked(i, std::move(local));
      } else if (!ctrl.recorded && ctrl.deferred != nullptr) {
        // The primary already failed terminally and deferred to this
        // backup, which failed too: the primary's failure stands.
        RecordLocked(i, std::move(*ctrl.deferred));
      }
    }
    (won ? spec_won_ : spec_lost_).fetch_add(1);
    TraceInstant(trace_, won ? "speculative_won" : "speculative_lost", "mr",
                 {{"split", TraceCollector::JsonValue(
                                static_cast<uint64_t>(i))}});
  }

  /// Records task i's result — for the primary chain and the backup alike.
  /// Requires controls_[i]->mu; the first caller wins, and `done` tells
  /// every other attempt of the task to stop.
  void RecordLocked(size_t i, MapTaskResult result) {
    TaskControl& ctrl = *controls_[i];
    ctrl.recorded = true;
    ctrl.duration = phase_clock_.ElapsedSeconds() -
                    ctrl.started_at.load(std::memory_order_relaxed);
    result.task.sim_seconds =
        cost_model_.TaskSeconds({result.task.cpu_seconds, result.task.io});
    results_[i] = std::move(result);
    ctrl.done.store(true, std::memory_order_relaxed);
    tasks_recorded_.fetch_add(1);
  }

  /// Straggler monitor (Hadoop semantics): once completed tasks give a
  /// median duration, any running task lagging past max(2 × median, 10 ms)
  /// gets ONE backup attempt on another node. The calling thread plays the
  /// JobTracker here, polling while the pool drains.
  void MonitorStragglers() {
    while (tasks_recorded_.load(std::memory_order_relaxed) < splits_.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::vector<double> durations;
      for (auto& control : controls_) {
        std::lock_guard<std::mutex> lock(control->mu);
        if (control->recorded) durations.push_back(control->duration);
      }
      if (durations.empty()) continue;
      std::nth_element(durations.begin(),
                       durations.begin() + durations.size() / 2,
                       durations.end());
      const double threshold = std::max(2 * durations[durations.size() / 2],
                                        0.01);
      const double now = phase_clock_.ElapsedSeconds();
      for (size_t i = 0; i < splits_.size(); ++i) {
        TaskControl& ctrl = *controls_[i];
        const double started = ctrl.started_at.load(std::memory_order_relaxed);
        if (started < 0 || ctrl.done.load(std::memory_order_relaxed) ||
            now - started <= threshold) {
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(ctrl.mu);
          if (ctrl.recorded || ctrl.backup_launched) continue;
          ctrl.backup_launched = true;
          ctrl.backup_inflight = true;
        }
        spec_launched_.fetch_add(1);
        TraceInstant(trace_, "speculative_launch", "mr",
                     {{"split", TraceCollector::JsonValue(
                                    static_cast<uint64_t>(i))}});
        pool_->Submit([this, i] { RunBackup(i); });
      }
    }
  }

  /// One execution of map task i on `node`. Everything the attempt produces
  /// lands in the returned result, so a failed attempt can be discarded
  /// wholesale and retried. `superseded` (may be null) is the early-exit
  /// hint: once another attempt of the same task has recorded the result,
  /// this attempt stops reading and returns — its output is discarded
  /// either way, and a losing straggler must not hold the job's wall clock
  /// hostage.
  MapTaskResult RunAttempt(size_t i, int attempt, NodeId node, bool data_local,
                           const std::atomic<bool>* superseded) {
    MapTaskResult out;
    TaskReport* task = &out.task;
    task->split_index = static_cast<int>(i);
    task->node = node;
    task->data_local = data_local;
    {
      ScopedSpan wait_span(trace_, "slot_wait", "mr");
      gate_.Acquire(node);
      if (wait_span.active()) wait_span.AddArg("node", node);
    }
    m_slots_active_->Add(1);
    m_tasks_launched_->Increment();
    // The map_task span lives on the executing thread, so the hdfs.read
    // spans its record reader emits nest inside it on the same track.
    ScopedSpan task_span(trace_, "map_task", "mr");
    if (task_span.active()) {
      task_span.AddArg("split", static_cast<uint64_t>(i));
      task_span.AddArg("node", node);
      task_span.AddArg("attempt", attempt);
      task_span.AddArg("data_local", data_local);
    }
    ReadContext context{node, &task->io,
                        AttemptSalt(kMapReadSaltDomain, i, attempt), metrics_,
                        trace_};
    context.prefetch_depth = config_.prefetch_depth;
    context.prefetch_pool = prefetch_pool_.get();
    context.cancel = superseded;
    std::unique_ptr<RecordReader> reader;
    out.status = job_.input_format->CreateRecordReader(fs_, config_, splits_[i],
                                                       context, &reader);
    if (out.status.ok()) {
      out.status = MapRecords(i, attempt, reader.get(), superseded, &out);
      if (task_span.active()) {
        task_span.AddArg("input_records", task->input_records);
        task_span.AddArg("output_records", task->output_records);
      }
      m_task_cpu_micros_->Observe(
          static_cast<uint64_t>(task->cpu_seconds * 1e6));
    }
    task_span.End();
    m_slots_active_->Add(-1);
    gate_.Release(node);
    return out;
  }

  /// Drives the split through the mapper. A reduce job's map output goes
  /// into the sort buffer: bounded, it spills sorted runs into this
  /// attempt's private scratch (spill writes draw from their own fault-salt
  /// domain, so injected write faults hit spills and output writes
  /// independently); unbounded, it keeps one resident run. A map-only job's
  /// output is collected as is.
  Status MapRecords(size_t i, int attempt, RecordReader* reader,
                    const std::atomic<bool>* superseded,
                    MapTaskResult* out) {
    TaskReport* task = &out->task;
    std::unique_ptr<MapOutputBuffer> buffer;
    VectorEmitter map_only_out;
    if (job_.reducer) {
      MapOutputBuffer::Options opts;
      opts.fs = fs_;
      opts.scratch_dir = AttemptDir(TaskId('m', i), attempt);
      opts.write_context = WriteContext{
          task->node, &task->io, AttemptSalt(kSpillWriteSaltDomain, i, attempt),
          metrics_};
      opts.num_partitions = num_reducers_;
      opts.sort_buffer_bytes = config_.sort_buffer_bytes;
      opts.combiner = combiner();
      opts.codec = config_.spill_codec;
      opts.trace = trace_;
      buffer = std::make_unique<MapOutputBuffer>(std::move(opts));
    }
    Emitter* emitter = buffer != nullptr ? static_cast<Emitter*>(buffer.get())
                                         : &map_only_out;
    // Stops the attempt past its wall-clock deadline (task_timeout_ms),
    // once another attempt recorded the task, or after a spill write failed
    // (the buffer is sticky-bad; mapping on would only drop output, so the
    // attempt fails into the retry path).
    const double timeout_seconds =
        config_.task_timeout_ms > 0 ? config_.task_timeout_ms / 1e3 : 0;
    Stopwatch attempt_watch;
    auto poll = [&]() -> Status {
      if (superseded != nullptr &&
          superseded->load(std::memory_order_relaxed)) {
        return Status::IoError("attempt superseded: task " + std::to_string(i) +
                               " already has a recorded result");
      }
      if (buffer != nullptr && !buffer->status().ok()) return buffer->status();
      if (timeout_seconds > 0 &&
          attempt_watch.ElapsedSeconds() > timeout_seconds) {
        return Status::IoError("task " + std::to_string(i) + " attempt " +
                               std::to_string(attempt) +
                               " exceeded task_timeout_ms=" +
                               std::to_string(config_.task_timeout_ms));
      }
      return Status::OK();
    };
    ThreadCpuStopwatch watch;
    Status status = ForEachMappedRecord(
        reader, config_.batch_rows, config_.predicate.get(), poll,
        [&](Record& record) { job_.mapper(record, emitter); },
        &task->input_records);
    // The buffer's last sort and spill, or its resident run, is map work
    // inside the CPU window.
    if (status.ok() && buffer != nullptr) status = buffer->Finish();
    task->cpu_seconds = watch.ElapsedSeconds();
    if (buffer != nullptr) {
      out->runs = buffer->TakeRuns();
      out->output_bytes = buffer->output_kv_bytes();
      out->spills = buffer->spills();
      out->spilled_bytes = buffer->spilled_bytes();
      out->peak_buffer_bytes = buffer->peak_buffer_bytes();
      task->output_records = buffer->output_records();
    } else {
      for (const auto& [key, value] : map_only_out.pairs()) {
        out->output_bytes += TaggedEncodedSize(key) + TaggedEncodedSize(value);
      }
      task->output_records = map_only_out.pairs().size();
      out->pairs = std::move(map_only_out.pairs());
    }
    return status.ok() ? reader->status() : status;
  }

  // ---- Shuffle ----

  /// Collects the winning tasks' runs in (split, spill) order — the global
  /// sequence order the merge's tie-break reproduces stable sorting with.
  /// While more runs exist than merge_factor (io.sort.factor), intermediate
  /// passes merge contiguous groups of merge_factor runs into one run each,
  /// which keeps that order. Resident runs skip the passes: they hold no
  /// files open to bound, and a retried group would re-read segments its
  /// first attempt consumed.
  Status Shuffle() {
    ScopedSpan shuffle_span(trace_, "shuffle", "mr");
    for (MapTaskResult& result : results_) {
      for (SpillRun& run : result.runs) runs_.push_back(std::move(run));
    }
    if (shuffle_span.active()) {
      shuffle_span.AddArg("runs", static_cast<uint64_t>(runs_.size()));
    }
    const size_t merge_factor =
        static_cast<size_t>(std::max(2, config_.merge_factor));
    for (int pass = 0;
         config_.sort_buffer_bytes > 0 && runs_.size() > merge_factor; ++pass) {
      std::vector<SpillRun> next;
      for (size_t g = 0; g * merge_factor < runs_.size(); ++g) {
        const size_t begin = g * merge_factor;
        const size_t end = std::min(runs_.size(), begin + merge_factor);
        if (end - begin == 1) {
          next.push_back(std::move(runs_[begin]));
          continue;
        }
        std::vector<const SpillRun*> group;
        for (size_t r = begin; r < end; ++r) group.push_back(&runs_[r]);
        next.emplace_back();
        COLMR_RETURN_IF_ERROR(MergeGroup(pass, g, group, &next.back()));
      }
      runs_ = std::move(next);
      report_->merge_passes += 1;
    }
    // Bytes actually shuffled — what survives all map-side combining — and
    // the segments the reducers' final merges consume.
    for (const SpillRun& run : runs_) {
      report_->shuffle_bytes += run.TotalKvBytes();
      for (const SpillSegment& segment : run.segments) {
        report_->merge_segments += segment.records > 0 ? 1 : 0;
      }
    }
    if (shuffle_span.active()) {
      shuffle_span.AddArg("bytes", report_->shuffle_bytes);
    }
    // Simulated transfer: reducers pull their partitions in parallel over
    // the network, so the phase lasts as long as the largest per-reducer
    // pull.
    const double bytes_per_reducer = static_cast<double>(
        report_->shuffle_bytes) / std::max(1, num_reducers_);
    report_->shuffle_seconds =
        bytes_per_reducer / (fs_->config().network_bandwidth_mbps * 1e6);
    return Status::OK();
  }

  /// Merges one group of runs into *merged. A read or write fault retries
  /// the group with a fresh salt and path, like any other attempt.
  Status MergeGroup(int pass, size_t group,
                    const std::vector<const SpillRun*>& runs,
                    SpillRun* merged) {
    const std::string task_id =
        "merge-" + std::to_string(pass) + "-" + std::to_string(group);
    Status last;
    for (int attempt = 0; attempt < MaxAttempts(); ++attempt) {
      ScopedSpan merge_span(trace_, "merge", "mr");
      if (merge_span.active()) {
        merge_span.AddArg("pass", pass);
        merge_span.AddArg("group", static_cast<uint64_t>(group));
        merge_span.AddArg("runs", static_cast<uint64_t>(runs.size()));
        merge_span.AddArg("attempt", attempt);
      }
      const uint64_t salt = AttemptSalt(
          kMergeSaltDomain, static_cast<uint64_t>(pass) * 8191 + group,
          attempt);
      IoStats io;
      uint64_t segments = 0;
      last = MergeSpillRuns(fs_, runs, AttemptDir(task_id, attempt) + "/run",
                            WriteContext{kAnyNode, &io, salt, metrics_},
                            ReadContext{kAnyNode, &io, salt, metrics_, trace_},
                            config_.spill_codec, num_reducers_, combiner(),
                            merged, &segments);
      report_->failover_reads += io.failover_reads;
      report_->checksum_failures += io.checksum_failures;
      report_->write_faults += io.write_faults;
      if (last.ok()) {
        report_->merge_segments += segments;
        return Status::OK();
      }
      TraceInstant(trace_, "merge_retry", "mr",
                   {{"pass", TraceCollector::JsonValue(pass)},
                    {"group", TraceCollector::JsonValue(
                                  static_cast<uint64_t>(group))},
                    {"error", TraceCollector::JsonValue(last.message())}});
    }
    return last;
  }

  // ---- Reduce ----

  Status Reduce() {
    reduced_.resize(static_cast<size_t>(num_reducers_));
    {
      ScopedSpan reduce_phase_span(trace_, "reduce_phase", "mr");
      if (pool_ != nullptr) {
        for (size_t p = 0; p < reduced_.size(); ++p) {
          pool_->Submit([this, p] { ReduceTask(p); });
        }
        pool_->Wait();
      } else {
        for (size_t p = 0; p < reduced_.size(); ++p) ReduceTask(p);
      }
    }
    // Recovery accounting first, so a failed job still reports it.
    for (const ReduceTaskResult& result : reduced_) {
      report_->task_retries += result.retries;
      report_->failover_reads += result.io.failover_reads;
      report_->checksum_failures += result.io.checksum_failures;
    }
    // Spill-read failures surface after the pool joins, lowest partition
    // first (matching the map phase's lowest-index-failure contract).
    for (const ReduceTaskResult& result : reduced_) {
      COLMR_RETURN_IF_ERROR(result.status);
      report_->reduce_input_records.push_back(result.input_records);
      report_->reduce_output_records += result.pairs.size();
      report_->reduce_phase_seconds =
          std::max(report_->reduce_phase_seconds, result.cpu_seconds);
    }
    return Status::OK();
  }

  /// Reducer p streams its partition through a heap merge over every run —
  /// the partition never materializes as one vector. Groups of equal keys
  /// fold through the reducer as they drain off the heap; the merge order
  /// equals a stable sort of the concatenated map output, so the reducer
  /// sees the same (key, [values]) calls at every buffer size. A spill-read
  /// failure re-runs the reducer under a fresh read salt, up to
  /// max_task_attempts, as Hadoop re-fetches map output and then re-runs
  /// the reduce attempt. Resident runs cannot fail a read, and their first
  /// cursor consumes them, so they never retry.
  void ReduceTask(size_t p) {
    ReduceTaskResult& out = reduced_[p];
    const bool resident = !runs_.empty() && runs_[0].resident != nullptr;
    for (int attempt = 0; attempt < MaxAttempts(); ++attempt) {
      if (attempt > 0) out.retries += 1;
      out.status = ReduceAttempt(p, attempt, &out);
      if (out.status.ok() || out.status.IsDataLoss() || resident) return;
    }
  }

  Status ReduceAttempt(size_t p, int attempt, ReduceTaskResult* out) {
    ScopedSpan reduce_span(trace_, "reduce_task", "mr");
    if (reduce_span.active()) {
      reduce_span.AddArg("partition", static_cast<uint64_t>(p));
      reduce_span.AddArg("attempt", attempt);
    }
    ThreadCpuStopwatch watch;
    const ReadContext context{kAnyNode, &out->io,
                              AttemptSalt(kReduceSaltDomain, p, attempt),
                              metrics_, trace_};
    SpillMerger merger;
    for (size_t r = 0; r < runs_.size(); ++r) {
      if (runs_[r].segments[p].records == 0) continue;
      std::unique_ptr<SpillSegmentCursor> cursor;
      COLMR_RETURN_IF_ERROR(SpillSegmentCursor::Open(
          fs_, runs_[r], static_cast<int>(p), context, &cursor));
      merger.Add(std::move(cursor), r);
    }
    VectorEmitter emitter;
    uint64_t input_records = 0;
    COLMR_RETURN_IF_ERROR(ForEachKeyGroup(
        &merger, [&](const Value& key, const std::vector<Value>& values) {
          input_records += values.size();
          job_.reducer(key, values, &emitter);
          return Status::OK();
        }));
    if (reduce_span.active()) {
      reduce_span.AddArg("input_records", input_records);
    }
    out->input_records = input_records;
    out->cpu_seconds = watch.ElapsedSeconds();
    out->pairs = std::move(emitter.pairs());
    return Status::OK();
  }

  // ---- Output ----

  /// Materializes the reduce output as text part files through the commit
  /// protocol (DESIGN.md §11), then hands it to the report in partition
  /// order — identical to running the reducers one after another. Empty
  /// partitions still write their part file, matching Hadoop's
  /// one-file-per-reducer layout.
  Status Output() {
    if (committer_ != nullptr) {
      for (size_t p = 0; p < reduced_.size(); ++p) {
        COLMR_RETURN_IF_ERROR(WritePart(p));
      }
      COLMR_RETURN_IF_ERROR(committer_->CommitJob(kReduceSaltDomain));
    }
    for (ReduceTaskResult& result : reduced_) {
      for (auto& pair : result.pairs) {
        report_->output.push_back(std::move(pair));
      }
    }
    return Status::OK();
  }

  /// One output task: an attempt writes part-r-NNNNN into its private
  /// _temporary attempt dir, then commits with one atomic rename. A write or
  /// commit fault retries the whole attempt on another node, feeding the
  /// same blacklist as map retries; exhausting attempts fails the job.
  Status WritePart(size_t p) {
    const std::string task_id = TaskId('r', p);
    const std::string part_name = "part-r-" + task_id.substr(2);
    // Round-robin home: partition p starts its search at node p.
    const NodeId home = static_cast<NodeId>(
        p % static_cast<size_t>(std::max(1, fs_->config().num_nodes)));
    std::set<NodeId> tried;
    Status last;
    for (int attempt = 0; attempt < MaxAttempts(); ++attempt) {
      const NodeId node = PickNode({}, static_cast<size_t>(home), tried, home);
      tried.insert(node);
      ScopedSpan output_span(trace_, "output.write", "mr");
      if (output_span.active()) {
        output_span.AddArg("partition", static_cast<uint64_t>(p));
        output_span.AddArg("attempt", attempt);
        output_span.AddArg("node", node);
      }
      const uint64_t salt = AttemptSalt(kReduceSaltDomain, p, attempt);
      IoStats io;
      last = [&]() -> Status {
        std::unique_ptr<FileWriter> writer;
        COLMR_RETURN_IF_ERROR(
            fs_->Create(AttemptDir(task_id, attempt) + "/" + part_name,
                        WriteContext{node, &io, salt, metrics_}, &writer));
        for (const auto& [key, value] : reduced_[p].pairs) {
          writer->Append(key.ToString() + "\t" + value.ToString() + "\n");
          if (!writer->status().ok()) break;
        }
        return writer->Close();
      }();
      bool won = false;
      if (last.ok()) {
        last = committer_->CommitTask(task_id, attempt, salt, &won);
      }
      report_->write_faults += io.write_faults;
      if (last.ok() && won) {
        report_->tasks_committed += 1;
        return Status::OK();
      }
      // A failed attempt, or one that lost the commit rename race to a
      // duplicate: its scratch must go either way.
      committer_->AbortTask(task_id, attempt);
      report_->commit_aborts += 1;
      if (last.ok()) return Status::OK();
      RecordNodeFailure(node);
      if (attempt + 1 < MaxAttempts()) report_->write_retries += 1;
    }
    return last;
  }

  // ---- Shared by the phases ----

  /// Node for an attempt: the first `preferred` node (a split's replica
  /// holders, so a map retry keeps its locality) that is live, unblacklisted
  /// and untried; else the first such node scanning round-robin from
  /// `start`; else the first live unblacklisted node of that scan (attempts
  /// may outnumber nodes); else `fallback`.
  NodeId PickNode(const std::vector<NodeId>& preferred, size_t start,
                  const std::set<NodeId>& tried, NodeId fallback) const {
    const int num_nodes = fs_->config().num_nodes;
    auto usable = [&](NodeId node) {
      return node >= 0 && node < num_nodes && !fs_->IsNodeDead(node) &&
             !retry_.IsBlacklisted(node);
    };
    for (NodeId node : preferred) {
      if (usable(node) && tried.count(node) == 0) return node;
    }
    NodeId reusable = kAnyNode;
    for (int off = 0; off < num_nodes; ++off) {
      const NodeId node = static_cast<NodeId>((start + off) % num_nodes);
      if (!usable(node)) continue;
      if (tried.count(node) == 0) return node;
      if (reusable == kAnyNode) reusable = node;
    }
    return reusable != kAnyNode ? reusable : fallback;
  }

  /// Charges a failed attempt to its node; the blacklist feeds every later
  /// PickNode of the job.
  void RecordNodeFailure(NodeId node) {
    if (retry_.RecordFailure(node)) {
      TraceInstant(trace_, "node_blacklisted", "mr",
                   {{"node", TraceCollector::JsonValue(node)}});
    }
  }

  /// Private scratch of one task attempt: inside the committer's _temporary
  /// tree, or under the report-only job's /_shuffle root.
  std::string AttemptDir(const std::string& task_id, int attempt) const {
    if (committer_ != nullptr) {
      return committer_->TaskAttemptDir(task_id, attempt);
    }
    return scratch_root_ + "/attempt_" + task_id + "_" +
           std::to_string(attempt);
  }

  int MaxAttempts() const { return std::max(1, config_.max_task_attempts); }
  const ReduceFn* combiner() const {
    return job_.combiner ? &job_.combiner : nullptr;
  }

  MiniHdfs* const fs_;
  const CostModel& cost_model_;
  const Job& job_;
  const JobConfig& config_;
  JobReport* const report_;
  MetricsRegistry* const metrics_;
  TraceCollector* const trace_;
  Counter* const m_tasks_launched_;
  Gauge* const m_slots_active_;
  Histogram* const m_task_cpu_micros_;

  // Execute and Plan.
  std::unique_ptr<OutputCommitter> committer_;  // null without output_path
  /// Shuffle scratch of a reduce job with no committer: /_shuffle/job-<n>.
  std::string scratch_root_;
  int num_reducers_ = 0;
  int threads_ = 1;
  std::vector<InputSplit> splits_;
  std::vector<NodeId> assigned_node_;
  std::vector<char> assigned_local_;

  // Map.
  SlotGate gate_;
  RetryTracker retry_;
  bool speculate_ = false;
  std::vector<MapTaskResult> results_;
  std::vector<std::unique_ptr<TaskControl>> controls_;
  Stopwatch phase_clock_;
  std::atomic<size_t> tasks_recorded_{0};
  std::atomic<uint64_t> spec_launched_{0}, spec_won_{0}, spec_lost_{0};

  // Shuffle and reduce.
  std::vector<SpillRun> runs_;
  std::vector<ReduceTaskResult> reduced_;

  // Pools last: they join before the state their tasks touch goes away.
  std::unique_ptr<ThreadPool> prefetch_pool_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Publishes the engine counters that mirror JobReport fields (DESIGN.md
/// §8). The report is their only source, so they count what it counts —
/// the recorded (winning) attempts, Hadoop's job-counter meaning — and
/// appear when Run returns, on failure too.
void PublishCounters(const JobReport& report, MetricsRegistry* metrics) {
  uint64_t reduce_input_records = 0;
  for (uint64_t n : report.reduce_input_records) reduce_input_records += n;
  const std::pair<const char*, uint64_t> counters[] = {
      {"mr.task.retries", report.task_retries},
      {"mr.node.blacklisted", report.blacklisted_nodes.size()},
      {"mr.speculative.launched", report.speculative_launched},
      {"mr.speculative.won", report.speculative_won},
      {"mr.speculative.lost", report.speculative_lost},
      {"mr.map.input_records", report.map_input_records},
      {"mr.map.output_records", report.map_output_records},
      {"mr.spill.count", report.spill_count},
      {"mr.spill.bytes", report.spill_bytes},
      {"mr.spill.merge_passes", report.merge_passes},
      {"mr.spill.merge_segments", report.merge_segments},
      {"mr.shuffle.bytes", report.shuffle_bytes},
      {"mr.reduce.input_records", reduce_input_records},
      {"mr.commit.task", report.tasks_committed},
      {"mr.commit.aborts", report.commit_aborts},
      {"hdfs.write.retries", report.write_retries},
  };
  for (const auto& [name, value] : counters) {
    metrics->counter(name)->Increment(value);
  }
}

}  // namespace

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
    status = JobRun(fs_, cost_model_, job, report, metrics, trace).Execute();
    if (job_span.active() && !status.ok()) {
      job_span.AddArg("error", status.message());
    }
  }
  PublishCounters(*report, metrics);
  if (trace != nullptr && !job.config.trace_path.empty()) {
    Status write_status = trace->WriteFile(job.config.trace_path);
    if (status.ok()) status = write_status;
  }
  return status;
}

}  // namespace colmr
