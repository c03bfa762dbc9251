#ifndef COLMR_MAPREDUCE_COMMITTER_H_
#define COLMR_MAPREDUCE_COMMITTER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "hdfs/fault_injector.h"
#include "hdfs/mini_hdfs.h"

namespace colmr {

class Counter;
class MetricsRegistry;
class TraceCollector;

/// Atomic output commit for job output, Hadoop's FileOutputCommitter
/// protocol over MiniHdfs::Rename (DESIGN.md §11). The invariant it buys:
/// a crash, fault, retry, or duplicate speculative attempt at ANY instant
/// leaves the output directory either complete (every part promoted,
/// `_SUCCESS` present) or with no visible non-`_temporary` output — never
/// a torn mix.
///
/// Layout and state machine:
///
///   <out>/_temporary/attempt_<task>_<n>/   task attempt scratch (writing)
///   <out>/_temporary/committed_<task>/     exactly one winning attempt
///   <out>/part-*, <out>/_SUCCESS           job-committed, visible
///
///   SetupJob     -> fails InvalidArgument when <out> already exists
///   task writes  -> into its private attempt dir; a failed/slow/dead
///                   write tears only that dir
///   CommitTask   -> one namenode-atomic Rename(attempt_N, committed):
///                   the FIRST attempt of a task wins; every later
///                   committer of the same task loses the race
///                   (AlreadyExists -> *won = false) and must AbortTask —
///                   this is what makes duplicate speculative attempts
///                   safe
///   AbortTask    -> deletes the attempt dir (idempotent)
///   CommitJob    -> promotes every committed_<task>'s files into <out>,
///                   drops _temporary, writes _SUCCESS
///   AbortJob     -> deletes everything under <out> (idempotent)
///
/// Thread-safety: CommitTask/AbortTask may race freely across attempts
/// and tasks — the namenode's exclusive lock serializes the renames, and
/// per-task ids keep tasks independent. SetupJob/CommitJob/AbortJob are
/// job-scoped and called from the engine's driver thread.
///
/// Fault injection: the committer snapshots the filesystem's FaultInjector
/// at construction and draws task_commit_error_p / job_commit_error_p
/// outcomes before mutating anything, so an injected commit fault always
/// leaves the pre-commit state intact.
class OutputCommitter {
 public:
  OutputCommitter(MiniHdfs* fs, std::string output_path,
                  MetricsRegistry* metrics, TraceCollector* trace);

  static constexpr const char* kTemporaryDir = "_temporary";
  static constexpr const char* kSuccessMarker = "_SUCCESS";

  /// Validates the job can own the output directory: fails with
  /// InvalidArgument when output_path already exists as a file or a
  /// non-empty directory. Runs before any task.
  Status SetupJob() const;

  /// Scratch directory of one task attempt; the attempt creates its part
  /// files under it.
  std::string TaskAttemptDir(const std::string& task_id, int attempt) const;

  /// Atomically promotes attempt `attempt` of `task_id` to the task's
  /// committed output. *won = false (with OK status) when another attempt
  /// of the same task committed first — the caller lost the speculative
  /// race and must AbortTask its attempt. A non-OK status (injected
  /// commit fault, missing attempt dir) leaves the attempt dir in place
  /// for the caller to retry or abort.
  Status CommitTask(const std::string& task_id, int attempt, uint64_t salt,
                    bool* won);

  /// Deletes one attempt's scratch dir. Idempotent; safe after a lost
  /// race, a failed write, or a failed commit.
  Status AbortTask(const std::string& task_id, int attempt);

  /// Promotes every committed task's files into the output directory,
  /// removes _temporary, and writes the _SUCCESS marker. On any failure
  /// (injected job-commit fault, _SUCCESS write fault) the caller must
  /// AbortJob — partial promotion must not stay visible.
  Status CommitJob(uint64_t salt);

  /// Removes the entire output directory (promoted parts, _temporary,
  /// everything). Idempotent.
  Status AbortJob();

 private:
  std::string TemporaryDir() const;
  std::string CommittedDir(const std::string& task_id) const;

  MiniHdfs* fs_;
  std::string output_path_;
  FaultInjector faults_;
  TraceCollector* trace_;
  uint64_t fault_draws_ = 0;
  Counter* m_job_commits_;
};

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_COMMITTER_H_
