// Crash-safe output commit, write-path fault injection, and speculative
// execution (DESIGN.md §11). The invariant under test everywhere: whatever
// fault fires at whatever point — block seal, task commit, job commit,
// node death mid-write, stragglers, duplicate speculative attempts — the
// output directory ends either complete (every part present, _SUCCESS
// marker written) or with no visible output at all, and successful runs
// are byte-identical to a fault-free serial run.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hdfs/fault_injector.h"
#include "mapreduce/committer.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "word_count_job.h"

namespace colmr {
namespace {

// Every visible output file (name -> bytes), asserting the committed
// layout: a _SUCCESS marker, part files, and no _temporary residue.
std::map<std::string, std::string> CommittedOutput(MiniHdfs* fs,
                                                   const std::string& out) {
  std::map<std::string, std::string> files;
  std::vector<std::string> children;
  EXPECT_TRUE(fs->ListDir(out, &children).ok());
  bool success = false;
  for (const std::string& child : children) {
    EXPECT_NE(child, OutputCommitter::kTemporaryDir)
        << "_temporary leaked into committed output";
    if (child == OutputCommitter::kSuccessMarker) {
      success = true;
      continue;
    }
    files[child] = ReadFile(fs, out + "/" + child);
  }
  EXPECT_TRUE(success) << "no _SUCCESS marker in " << out;
  return files;
}

void ExpectNoVisibleOutput(MiniHdfs* fs, const std::string& out) {
  EXPECT_FALSE(fs->Exists(out));
  std::vector<std::string> children;
  EXPECT_FALSE(fs->ListDir(out, &children).ok())
      << "failed job left files under " << out;
}

// The fault-free serial reference all fault/speculation runs must match.
std::map<std::string, std::string> BaselineOutput() {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  Job job = WordCountJob("/out");
  job.config.parallelism = 1;
  JobRunner runner(fs.get());
  JobReport report;
  EXPECT_TRUE(runner.Run(job, &report).ok());
  EXPECT_GT(report.tasks_committed, 0u);
  return CommittedOutput(fs.get(), "/out");
}

TEST(OutputGuardTest, ExistingFileOrDirectoryIsRefusedUpFront) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 1, 50);

  // A plain file at the output path.
  {
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create("/taken", &writer).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  JobRunner runner(fs.get());
  JobReport report;
  Status s = runner.Run(WordCountJob("/taken"), &report);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The guard fires before any task runs.
  EXPECT_EQ(report.map_tasks.size(), 0u);

  // A non-empty directory under the output path.
  {
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create("/dir/child", &writer).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  s = runner.Run(WordCountJob("/dir"), &report);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // Including output a previous successful job committed.
  ASSERT_TRUE(runner.Run(WordCountJob("/out"), &report).ok());
  s = runner.Run(WordCountJob("/out"), &report);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// Enumerates the crash points of the write/commit path — block seal,
// task commit, job commit, node death mid-write — at probability 1.0:
// the job must fail and leave NO visible output, not a torn directory.
TEST(CrashSafetyTest, EveryFaultPointLeavesNoVisibleOutput) {
  struct Point {
    const char* label;
    void (*arm)(FaultConfig*);
  };
  const Point points[] = {
      {"block seal", [](FaultConfig* f) { f->write_error_p = 1.0; }},
      {"task commit", [](FaultConfig* f) { f->task_commit_error_p = 1.0; }},
      {"job commit", [](FaultConfig* f) { f->job_commit_error_p = 1.0; }},
      {"node death mid-write",
       [](FaultConfig* f) {
         for (NodeId n = 0; n < 8; ++n) f->write_death_nodes.insert(n);
       }},
  };
  for (const Point& point : points) {
    SCOPED_TRACE(point.label);
    auto fs = MakeFs();
    WriteWords(fs.get(), "/in", 3, 400);
    FaultConfig faults;
    faults.seed = FaultSeed();
    point.arm(&faults);
    fs->SetFaultConfig(faults);

    JobRunner runner(fs.get());
    JobReport report;
    const Status s = runner.Run(WordCountJob("/out"), &report);
    EXPECT_FALSE(s.ok()) << point.label;
    ExpectNoVisibleOutput(fs.get(), "/out");
    EXPECT_GT(report.commit_aborts, 0u);
  }
}

// A deterministic mid-write node death: the node hosting partition 0's
// first write attempt dies at its first block seal; the retry lands on a
// fresh node and the job commits output byte-identical to the baseline.
TEST(CrashSafetyTest, WriteDeathFailsOverAndCommitsIdenticalOutput) {
  const auto baseline = BaselineOutput();
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  FaultConfig faults;
  faults.seed = FaultSeed();
  // Output attempts round-robin from the partition index, so partition
  // 0's first attempt writes from node 0.
  faults.write_death_nodes.insert(0);
  fs->SetFaultConfig(faults);

  JobRunner runner(fs.get());
  JobReport report;
  Job job = WordCountJob("/out");
  job.config.parallelism = 1;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_TRUE(fs->IsNodeDead(0));
  EXPECT_GE(report.write_faults, 1u);
  EXPECT_GE(report.write_retries, 1u);
  EXPECT_GE(report.commit_aborts, 1u);  // the torn attempt was aborted
  EXPECT_EQ(CommittedOutput(fs.get(), "/out"), baseline);
}

// A node blacklisted by a reduce-output write failure is reported like
// one blacklisted by map retries: in the report and in the published
// counter. Partition 0's first write attempt runs on node 0, which dies at
// its first block seal, and one failure is enough to blacklist a node.
TEST(CrashSafetyTest, OutputWriteBlacklistIsReported) {
  const auto baseline = BaselineOutput();
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.write_death_nodes.insert(0);
  fs->SetFaultConfig(faults);

  MetricsRegistry registry;
  Job job = WordCountJob("/out");
  job.config.parallelism = 1;
  job.config.node_blacklist_failures = 1;
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(report.blacklisted_nodes, std::vector<NodeId>{0});
  EXPECT_EQ(registry.Snapshot().counters.at("mr.node.blacklisted"), 1u);
  EXPECT_EQ(CommittedOutput(fs.get(), "/out"), baseline);
}

// The probe run tells us which node executes split 0 (scheduling is
// deterministic), so a fault config can target exactly that node.
NodeId ProbeNodeOfSplit0() {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  Job job = WordCountJob("/probe");
  job.config.parallelism = 1;
  JobRunner runner(fs.get());
  JobReport report;
  EXPECT_TRUE(runner.Run(job, &report).ok());
  EXPECT_FALSE(report.map_tasks.empty());
  return report.map_tasks[0].node;
}

// An attempt stuck on a slow node exceeds task_timeout_ms, fails back
// into the retry machinery, re-runs on a fresh node, and the job output
// is unchanged.
TEST(StragglerTest, TimeoutFailsOverToFreshNode) {
  const auto baseline = BaselineOutput();
  const NodeId victim = ProbeNodeOfSplit0();

  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.slow_nodes.insert(victim);
  faults.slow_read_latency_ms = 150;
  fs->SetFaultConfig(faults);

  JobRunner runner(fs.get());
  Job job = WordCountJob("/out");
  job.config.parallelism = 1;
  job.config.task_timeout_ms = 50;
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_GE(report.task_retries, 1u);
  EXPECT_EQ(CommittedOutput(fs.get(), "/out"), baseline);
  // The stall the straggling attempt ate is real time, visible in the
  // job's wall clock.
  EXPECT_GE(report.wall_seconds, 0.15);
}

// Speculative execution: a slow node makes its tasks lag the completed-
// task median; the monitor launches backup attempts; whoever finishes
// first wins — and the output is byte-identical to the serial baseline.
TEST(StragglerTest, SpeculationIsByteIdenticalUnderSlowNode) {
  const auto baseline = BaselineOutput();
  const NodeId victim = ProbeNodeOfSplit0();

  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.slow_nodes.insert(victim);
  faults.slow_read_latency_ms = 40;
  fs->SetFaultConfig(faults);

  JobRunner runner(fs.get());
  Job job = WordCountJob("/out");
  job.config.parallelism = 4;
  job.config.speculative_execution = true;
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_GE(report.speculative_launched, 1u);
  EXPECT_EQ(report.speculative_won + report.speculative_lost,
            report.speculative_launched);
  EXPECT_EQ(CommittedOutput(fs.get(), "/out"), baseline);
}

// Speculation with no stragglers must be a no-op: nothing launched, output
// identical, across thread counts.
TEST(StragglerTest, SpeculationIsNoOpWithoutStragglers) {
  const auto baseline = BaselineOutput();
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  JobRunner runner(fs.get());
  Job job = WordCountJob("/out");
  job.config.parallelism = 4;
  job.config.speculative_execution = true;
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(CommittedOutput(fs.get(), "/out"), baseline);
}

// The committer's rename-or-lose race, driven directly: two attempts of
// one task both commit; exactly one wins, the loser aborts cleanly, and
// job commit publishes the winner's bytes.
TEST(CommitterTest, DuplicateAttemptsRaceToOneWinner) {
  auto fs = MakeFs();
  OutputCommitter committer(fs.get(), "/out", nullptr, nullptr);
  ASSERT_TRUE(committer.SetupJob().ok());

  auto write_attempt = [&](int attempt, const std::string& body) {
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create(committer.TaskAttemptDir("t_00000", attempt) +
                               "/part-r-00000",
                           &writer)
                    .ok());
    writer->Append(body);
    ASSERT_TRUE(writer->Close().ok());
  };
  write_attempt(0, "from attempt 0\n");
  write_attempt(1, "from attempt 1\n");

  bool won = false;
  ASSERT_TRUE(committer.CommitTask("t_00000", /*attempt=*/1, 1, &won).ok());
  EXPECT_TRUE(won);
  // The slower duplicate loses with OK status and must abort its scratch.
  ASSERT_TRUE(committer.CommitTask("t_00000", /*attempt=*/0, 0, &won).ok());
  EXPECT_FALSE(won);
  ASSERT_TRUE(committer.AbortTask("t_00000", 0).ok());

  ASSERT_TRUE(committer.CommitJob(0).ok());
  const auto files = CommittedOutput(fs.get(), "/out");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.at("part-r-00000"), "from attempt 1\n");
}

// AbortJob rolls the namespace back to nothing, whatever state the
// protocol was in.
TEST(CommitterTest, AbortJobErasesEverything) {
  auto fs = MakeFs();
  OutputCommitter committer(fs.get(), "/out", nullptr, nullptr);
  ASSERT_TRUE(committer.SetupJob().ok());
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(
      fs->Create(committer.TaskAttemptDir("t_00000", 0) + "/part", &writer)
          .ok());
  writer->Append("torn");
  ASSERT_TRUE(writer->Close().ok());
  bool won = false;
  ASSERT_TRUE(committer.CommitTask("t_00000", 0, 0, &won).ok());
  ASSERT_TRUE(committer.AbortJob().ok());
  ExpectNoVisibleOutput(fs.get(), "/out");
  // Idempotent.
  ASSERT_TRUE(committer.AbortJob().ok());
}

}  // namespace
}  // namespace colmr
