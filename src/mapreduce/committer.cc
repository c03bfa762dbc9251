#include "mapreduce/committer.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace colmr {

OutputCommitter::OutputCommitter(MiniHdfs* fs, std::string output_path,
                                 MetricsRegistry* metrics,
                                 TraceCollector* trace)
    : fs_(fs),
      output_path_(std::move(output_path)),
      faults_(fs->fault_config()),
      trace_(trace),
      m_job_commits_((metrics != nullptr ? *metrics
                                         : MetricsRegistry::Default())
                         .counter("mr.commit.job")) {}

std::string OutputCommitter::TemporaryDir() const {
  return output_path_ + "/" + kTemporaryDir;
}

std::string OutputCommitter::CommittedDir(const std::string& task_id) const {
  return TemporaryDir() + "/committed_" + task_id;
}

std::string OutputCommitter::TaskAttemptDir(const std::string& task_id,
                                            int attempt) const {
  return TemporaryDir() + "/attempt_" + task_id + "_" +
         std::to_string(attempt);
}

Status OutputCommitter::SetupJob() const {
  // The guard catches both shapes an "existing output" takes in this
  // namespace: a file at the exact path, or any file underneath it.
  if (fs_->Exists(output_path_)) {
    return Status::InvalidArgument("output path already exists (a file): " +
                                   output_path_);
  }
  std::vector<std::string> children;
  if (fs_->ListDir(output_path_, &children).ok()) {
    return Status::InvalidArgument(
        "output path already exists (a non-empty directory): " +
        output_path_);
  }
  return Status::OK();
}

Status OutputCommitter::CommitTask(const std::string& task_id, int attempt,
                                   uint64_t salt, bool* won) {
  *won = false;
  ScopedSpan span(trace_, "task_commit", "mr");
  if (span.active()) {
    span.AddArg("task", task_id);
    span.AddArg("attempt", attempt);
  }
  // Commit fault: drawn before any namespace mutation, keyed per
  // (task, attempt) so a retry redraws. The attempt dir survives for the
  // caller to retry or abort.
  if (faults_.TaskCommitFails(FaultInjector::PathKey(task_id), salt,
                              static_cast<uint64_t>(attempt))) {
    return Status::IoError("injected task-commit fault for task " + task_id +
                           " attempt " + std::to_string(attempt));
  }
  const Status rename =
      fs_->Rename(TaskAttemptDir(task_id, attempt), CommittedDir(task_id));
  if (rename.IsAlreadyExists()) {
    // Another attempt of this task committed first — the rename-or-lose
    // race. Losing is a clean outcome, not an error.
    if (span.active()) span.AddArg("won", false);
    return Status::OK();
  }
  COLMR_RETURN_IF_ERROR(rename);
  *won = true;
  if (span.active()) span.AddArg("won", true);
  return Status::OK();
}

Status OutputCommitter::AbortTask(const std::string& task_id, int attempt) {
  TraceInstant(trace_, "task_abort", "mr",
               {{"task", TraceCollector::JsonValue(task_id)},
                {"attempt", TraceCollector::JsonValue(attempt)}});
  return fs_->DeleteRecursive(TaskAttemptDir(task_id, attempt));
}

Status OutputCommitter::CommitJob(uint64_t salt) {
  ScopedSpan span(trace_, "job_commit", "mr");
  if (faults_.JobCommitFails(salt, fault_draws_++)) {
    return Status::IoError("injected job-commit fault for " + output_path_);
  }
  // Promote every committed task's files into the output directory. Each
  // promotion is one atomic directory rename; a crash between promotions
  // leaves the already-promoted parts alongside _temporary, which AbortJob
  // (or a re-run's SetupJob guard) cleans up — never a _SUCCESS-marked
  // partial.
  std::vector<std::string> children;
  const Status list = fs_->ListDir(TemporaryDir(), &children);
  if (list.ok()) {
    for (const std::string& child : children) {
      if (child.rfind("committed_", 0) != 0) continue;
      COLMR_RETURN_IF_ERROR(
          fs_->Rename(TemporaryDir() + "/" + child, output_path_));
    }
  }
  COLMR_RETURN_IF_ERROR(fs_->DeleteRecursive(TemporaryDir()));
  std::unique_ptr<FileWriter> marker;
  COLMR_RETURN_IF_ERROR(
      fs_->Create(output_path_ + "/" + kSuccessMarker, &marker));
  COLMR_RETURN_IF_ERROR(marker->Close());
  m_job_commits_->Increment();
  return Status::OK();
}

Status OutputCommitter::AbortJob() {
  TraceInstant(trace_, "job_abort", "mr",
               {{"output", TraceCollector::JsonValue(output_path_)}});
  return fs_->DeleteRecursive(output_path_);
}

}  // namespace colmr
