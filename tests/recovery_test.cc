#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "cif/cif.h"
#include "cif/cof.h"
#include "formats/detect.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/engine.h"
#include "workload/weblog.h"
#include "word_count_job.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 10;
  config.block_size = 32 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

void WriteCifDataset(MiniHdfs* fs, const std::string& path, int records) {
  CofOptions options;
  options.split_target_bytes = 64 * 1024;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs, path, WeblogSchema(), options, &writer).ok());
  WeblogGenerator gen(3);
  for (int i = 0; i < records; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

TEST(NodeFailureTest, KillRemovesReplicas) {
  auto fs = std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(1));
  WriteCifDataset(fs.get(), "/logs", 2000);

  EXPECT_EQ(fs->UnderReplicatedBlockCount(), 0u);
  ASSERT_TRUE(fs->KillNode(4).ok());
  EXPECT_TRUE(fs->IsNodeDead(4));
  EXPECT_TRUE(fs->KillNode(4).IsAlreadyExists());
  EXPECT_TRUE(fs->KillNode(99).IsInvalidArgument());
  // Some blocks lived on node 4 (10 nodes, 3 replicas -> ~30% of blocks).
  EXPECT_GT(fs->UnderReplicatedBlockCount(), 0u);

  // Data is still readable from surviving replicas.
  std::vector<std::string> files;
  ASSERT_TRUE(ExpandInputPaths(fs.get(), {"/logs"}, &files).ok());
  for (const std::string& file : files) {
    std::vector<BlockInfo> blocks;
    ASSERT_TRUE(fs->GetBlockLocations(file, &blocks).ok());
    for (const BlockInfo& block : blocks) {
      EXPECT_GE(block.replicas.size(), 2u);
      for (NodeId node : block.replicas) EXPECT_NE(node, 4);
    }
  }
}

TEST(NodeFailureTest, ReReplicationUnderCppPreservesCoLocation) {
  auto fs = std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(2));
  WriteCifDataset(fs.get(), "/logs", 2000);

  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/logs"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  ASSERT_GT(splits.size(), 1u);
  for (const InputSplit& split : splits) {
    ASSERT_EQ(split.locations.size(), 3u);
  }
  // Kill one of the first split's replica nodes.
  const NodeId victim = splits[0].locations[0];
  ASSERT_TRUE(fs->KillNode(victim).ok());
  ASSERT_GT(fs->UnderReplicatedBlockCount(), 0u);

  ASSERT_TRUE(fs->ReReplicate().ok());
  EXPECT_EQ(fs->UnderReplicatedBlockCount(), 0u);

  // Every split is again co-located on 3 common nodes: CPP repaired each
  // split-directory as a unit.
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  for (const InputSplit& split : splits) {
    EXPECT_EQ(split.locations.size(), 3u);
    for (NodeId node : split.locations) EXPECT_NE(node, victim);
  }

  // And the dataset still reads back in full.
  uint64_t records = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    .CreateRecordReader(fs.get(), config, split, ReadContext{},
                                        &reader)
                    .ok());
    while (reader->Next()) ++records;
    ASSERT_TRUE(reader->status().ok());
  }
  EXPECT_EQ(records, 2000u);
}

TEST(NodeFailureTest, SchedulerAvoidsDeadNodes) {
  auto fs = std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(3));
  WriteCifDataset(fs.get(), "/logs", 1500);
  ASSERT_TRUE(fs->KillNode(0).ok());
  ASSERT_TRUE(fs->KillNode(1).ok());

  Job job;
  job.config.input_paths = {"/logs"};
  job.config.projection = {"status"};
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(record.GetOrDie("status"), Value::Int32(1));
  };
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  for (const TaskReport& task : report.map_tasks) {
    EXPECT_NE(task.node, 0);
    EXPECT_NE(task.node, 1);
  }
}

// Status-count scan over /logs — the job used by the fault-recovery
// tests below. Returns the reduce output serialized to one string, so
// runs can be compared byte for byte.
Job StatusCountJob(int parallelism) {
  Job job;
  job.config.input_paths = {"/logs"};
  job.config.projection = {"status"};
  job.config.parallelism = parallelism;
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(record.GetOrDie("status"), Value::Int64(1));
  };
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* out) {
    int64_t total = 0;
    for (const Value& v : values) total += v.int64_value();
    out->Emit(key, Value::Int64(total));
  };
  return job;
}

std::string SerializeOutput(const JobReport& report) {
  std::string out;
  for (const auto& [key, value] : report.output) {
    out += key.ToString() + "\t" + value.ToString() + "\n";
  }
  return out;
}

TEST(TaskRetryTest, CorruptedCifReplicaScanIsByteIdentical) {
  // Fault-free baseline on an identically-built filesystem.
  std::string baseline;
  {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(21));
    WriteCifDataset(fs.get(), "/logs", 2000);
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(StatusCountJob(1), &report).ok());
    baseline = SerializeOutput(report);
    ASSERT_FALSE(baseline.empty());
  }

  for (int parallelism : {1, 4}) {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(21));
    WriteCifDataset(fs.get(), "/logs", 2000);
    // Corrupt one replica of a column file the projection reads — the
    // replica that will actually serve, which (scheduling being
    // deterministic) a fault-free dry run reveals: the task's own node
    // when it holds one, else the lowest-id replica.
    std::vector<std::string> files;
    ASSERT_TRUE(ExpandInputPaths(fs.get(), {"/logs"}, &files).ok());
    std::string victim;
    for (const std::string& file : files) {
      if (file.size() >= 11 &&
          file.compare(file.size() - 11, 11, "/status.col") == 0) {
        victim = file;
        break;
      }
    }
    ASSERT_FALSE(victim.empty());

    Job probe = StatusCountJob(1);
    std::vector<InputSplit> splits;
    ASSERT_TRUE(
        probe.input_format->GetSplits(fs.get(), probe.config, &splits).ok());
    size_t victim_split = splits.size();
    for (size_t i = 0; i < splits.size(); ++i) {
      for (const std::string& path : splits[i].paths) {
        if (path == victim) victim_split = i;
      }
    }
    ASSERT_LT(victim_split, splits.size());
    JobReport dry;
    ASSERT_TRUE(JobRunner(fs.get()).Run(probe, &dry).ok());
    const NodeId task_node = dry.map_tasks[victim_split].node;
    std::vector<BlockInfo> blocks;
    ASSERT_TRUE(fs->GetBlockLocations(victim, &blocks).ok());
    std::vector<NodeId> replicas = blocks[0].replicas;
    std::sort(replicas.begin(), replicas.end());
    const NodeId serving =
        std::find(replicas.begin(), replicas.end(), task_node) !=
                replicas.end()
            ? task_node
            : replicas[0];
    size_t ordinal = 0;
    while (blocks[0].replicas[ordinal] != serving) ++ordinal;
    NodeId corrupted = kAnyNode;
    ASSERT_TRUE(fs->CorruptReplica(victim, 0, ordinal, &corrupted).ok());
    ASSERT_EQ(corrupted, serving);

    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(StatusCountJob(parallelism), &report).ok());
    // The checksum caught the corrupt replica, the read failed over, and
    // the output is byte-identical to the fault-free run.
    EXPECT_GE(report.checksum_failures, 1u) << "parallelism " << parallelism;
    EXPECT_GE(report.failover_reads, 1u);
    EXPECT_EQ(SerializeOutput(report), baseline);
    EXPECT_EQ(fs->bad_replica_marks(), 1u);
    // Recovery: re-replication repairs the reported replica.
    ASSERT_TRUE(fs->ReReplicate().ok());
    EXPECT_EQ(fs->UnderReplicatedBlockCount(), 0u);
  }
}

TEST(TaskRetryTest, BrokenNodeIsRetriedAwayFromAndBlacklisted) {
  // Fault-free baseline.
  std::string baseline;
  {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(22));
    WriteCifDataset(fs.get(), "/logs", 2000);
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(StatusCountJob(1), &report).ok());
    baseline = SerializeOutput(report);
  }

  for (int parallelism : {1, 4}) {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(22));
    WriteCifDataset(fs.get(), "/logs", 2000);

    // Find a node some split is scheduled on and break it: every read a
    // task issues there fails, so its first attempt dies and the retry
    // lands elsewhere — Hadoop's bad-tracker scenario.
    ColumnInputFormat format;
    JobConfig config;
    config.input_paths = {"/logs"};
    std::vector<InputSplit> splits;
    ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    ASSERT_FALSE(splits.empty());
    const NodeId broken = splits[0].locations[0];
    FaultConfig faults;
    faults.broken_nodes = {broken};
    fs->SetFaultConfig(faults);

    Job job = StatusCountJob(parallelism);
    job.config.node_blacklist_failures = 1;  // first failure blacklists
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());

    EXPECT_GE(report.task_retries, 1u);
    ASSERT_EQ(report.blacklisted_nodes.size(), 1u);
    EXPECT_EQ(report.blacklisted_nodes[0], broken);
    // No completed attempt ran on the broken node.
    for (const TaskReport& task : report.map_tasks) {
      EXPECT_NE(task.node, broken);
    }
    EXPECT_EQ(SerializeOutput(report), baseline);
  }
}

TEST(TaskRetryTest, TransientFaultScanCompletesByteIdentical) {
  std::string baseline;
  {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(23));
    WriteCifDataset(fs.get(), "/logs", 2000);
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(StatusCountJob(1), &report).ok());
    baseline = SerializeOutput(report);
  }

  for (int parallelism : {1, 4}) {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(23));
    WriteCifDataset(fs.get(), "/logs", 2000);
    // The projected status column is narrow (the point of CIF), so the
    // scan issues few replica reads; p is raised so the deterministic
    // schedule contains failovers despite the small draw count.
    FaultConfig faults;
    faults.seed = 5;
    faults.read_error_p = 0.2;
    fs->SetFaultConfig(faults);

    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(StatusCountJob(parallelism), &report).ok());
    // Failovers happened (some replica attempts drew errors), yet the
    // output matches the fault-free run byte for byte.
    EXPECT_GE(report.failover_reads, 1u);
    EXPECT_EQ(SerializeOutput(report), baseline);
  }
}

TEST(TaskRetryTest, FailedJobReportsTheSameAtEveryParallelism) {
  // Split 0 can never succeed: every replica of block 0 of its status
  // column is corrupt. The other tasks draw transient read faults. The
  // failed job's recovery fields must not depend on the thread count, so
  // the serial engine runs every task, not only those before the first
  // failure.
  std::vector<Status> statuses;
  std::vector<JobReport> reports;
  for (int parallelism : {1, 4}) {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(22));
    WriteCifDataset(fs.get(), "/logs", 2000);
    Job job = StatusCountJob(parallelism);
    std::vector<InputSplit> splits;
    ASSERT_TRUE(
        job.input_format->GetSplits(fs.get(), job.config, &splits).ok());
    ASSERT_EQ(splits.size(), 4u);
    std::string victim;
    for (const std::string& path : splits[0].paths) {
      if (path.ends_with("/status.col")) victim = path;
    }
    ASSERT_FALSE(victim.empty());
    for (size_t replica = 0; replica < 3; ++replica) {
      ASSERT_TRUE(fs->CorruptReplica(victim, 0, replica).ok());
    }
    FaultConfig faults;
    faults.seed = FaultSeed();
    faults.read_error_p = 0.3;
    fs->SetFaultConfig(faults);

    JobReport report;
    statuses.push_back(JobRunner(fs.get()).Run(job, &report));
    reports.push_back(std::move(report));
  }
  EXPECT_FALSE(statuses[0].ok());
  EXPECT_EQ(statuses[0].ToString(), statuses[1].ToString());
  EXPECT_EQ(reports[0].task_retries, reports[1].task_retries);
  EXPECT_EQ(reports[0].failover_reads, reports[1].failover_reads);
  EXPECT_EQ(reports[0].checksum_failures, reports[1].checksum_failures);
  EXPECT_EQ(reports[0].blacklisted_nodes, reports[1].blacklisted_nodes);
}

TEST(TaskRetryTest, MidJobNodeKillDoesNotChangeOutput) {
  std::string baseline;
  {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(24));
    WriteCifDataset(fs.get(), "/logs", 2000);
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(StatusCountJob(1), &report).ok());
    baseline = SerializeOutput(report);
  }

  for (int parallelism : {1, 4}) {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(24));
    WriteCifDataset(fs.get(), "/logs", 2000);

    ColumnInputFormat format;
    JobConfig config;
    config.input_paths = {"/logs"};
    std::vector<InputSplit> splits;
    ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    const NodeId victim = splits.back().locations[0];

    // Kill a replica-holding node from inside the first map invocation:
    // after scheduling, while tasks are executing. In-flight readers keep
    // serving their snapshots; later block reads fail over to surviving
    // replicas. Output must not change.
    Job job = StatusCountJob(parallelism);
    auto once = std::make_shared<std::once_flag>();
    MiniHdfs* raw_fs = fs.get();
    MapFn inner = job.mapper;
    job.mapper = [once, raw_fs, victim, inner](Record& record, Emitter* out) {
      std::call_once(*once, [&] { ASSERT_TRUE(raw_fs->KillNode(victim).ok()); });
      inner(record, out);
    };
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());
    EXPECT_EQ(SerializeOutput(report), baseline);
    EXPECT_TRUE(fs->IsNodeDead(victim));
    EXPECT_GT(fs->UnderReplicatedBlockCount(), 0u);
    ASSERT_TRUE(fs->ReReplicate().ok());
    EXPECT_EQ(fs->UnderReplicatedBlockCount(), 0u);
  }
}

TEST(ImageTest, SaveLoadRoundTrips) {
  const std::string image = ::testing::TempDir() + "/colmr_fs_image.bin";
  {
    auto fs = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(4));
    WriteCifDataset(fs.get(), "/logs", 500);
    ASSERT_TRUE(fs->KillNode(7).ok());
    ASSERT_TRUE(fs->SaveImage(image).ok());
  }
  auto fs = std::make_unique<MiniHdfs>(
      ClusterConfig{}, std::make_unique<ColumnPlacementPolicy>(4));
  ASSERT_TRUE(fs->LoadImage(image).ok());
  EXPECT_EQ(fs->config().num_nodes, 10);
  EXPECT_TRUE(fs->IsNodeDead(7));

  // Full dataset read-back after the round trip.
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/logs"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  uint64_t records = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    .CreateRecordReader(fs.get(), config, split, ReadContext{},
                                        &reader)
                    .ok());
    while (reader->Next()) ++records;
    ASSERT_TRUE(reader->status().ok());
  }
  EXPECT_EQ(records, 500u);

  // Writes after a load get fresh, non-colliding block ids.
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/extra", &writer).ok());
  writer->Append(Slice("hello"));
  ASSERT_TRUE(writer->Close().ok());
  uint64_t size;
  ASSERT_TRUE(fs->GetFileSize("/extra", &size).ok());
  EXPECT_EQ(size, 5u);
  std::remove(image.c_str());
}

TEST(ImageTest, RejectsGarbage) {
  const std::string image = ::testing::TempDir() + "/colmr_bad_image.bin";
  {
    FILE* f = std::fopen(image.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an image", f);
    std::fclose(f);
  }
  auto fs = MiniHdfs::CreateDefault();
  EXPECT_TRUE(fs->LoadImage(image).IsCorruption());
  EXPECT_TRUE(fs->LoadImage("/no/such/file").IsIoError());
  std::remove(image.c_str());
}

TEST(DetectTest, IdentifiesEveryFormat) {
  auto fs = std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(5));
  Schema::Ptr schema = WeblogSchema();
  WeblogGenerator gen(6);
  const Value record = gen.Next();

  std::unique_ptr<TextWriter> txt;
  ASSERT_TRUE(TextWriter::Open(fs.get(), "/t", schema, &txt).ok());
  ASSERT_TRUE(txt->WriteRecord(record).ok());
  ASSERT_TRUE(txt->Close().ok());
  std::unique_ptr<SeqWriter> seq;
  ASSERT_TRUE(
      SeqWriter::Open(fs.get(), "/s", schema, SeqWriterOptions{}, &seq).ok());
  ASSERT_TRUE(seq->WriteRecord(record).ok());
  ASSERT_TRUE(seq->Close().ok());
  std::unique_ptr<RcFileWriter> rc;
  ASSERT_TRUE(
      RcFileWriter::Open(fs.get(), "/r", schema, RcFileWriterOptions{}, &rc)
          .ok());
  ASSERT_TRUE(rc->WriteRecord(record).ok());
  ASSERT_TRUE(rc->Close().ok());
  std::unique_ptr<CofWriter> cof;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/c", schema, CofOptions{}, &cof).ok());
  ASSERT_TRUE(cof->WriteRecord(record).ok());
  ASSERT_TRUE(cof->Close().ok());

  const std::pair<const char*, const char*> expectations[] = {
      {"/t", "txt"}, {"/s", "seq"}, {"/r", "rcfile"}, {"/c", "cif"}};
  for (const auto& [path, expected] : expectations) {
    std::shared_ptr<InputFormat> format;
    std::string name;
    ASSERT_TRUE(DetectInputFormat(fs.get(), path, &format, &name).ok())
        << path;
    EXPECT_EQ(name, expected) << path;
    EXPECT_EQ(format->name(), expected);
  }
  std::shared_ptr<InputFormat> format;
  EXPECT_FALSE(DetectInputFormat(fs.get(), "/missing", &format, nullptr).ok());
}

TEST(CombinerTest, ReducesShuffleBytesWithSameResult) {
  auto fs = std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(8));
  WriteCifDataset(fs.get(), "/logs", 3000);

  auto make_job = [&](bool with_combiner) {
    Job job;
    job.config.input_paths = {"/logs"};
    job.config.projection = {"status"};
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      out->Emit(record.GetOrDie("status"), Value::Int64(1));
    };
    ReduceFn sum = [](const Value& key, const std::vector<Value>& values,
                      Emitter* out) {
      int64_t total = 0;
      for (const Value& v : values) total += v.int64_value();
      out->Emit(key, Value::Int64(total));
    };
    job.reducer = sum;
    if (with_combiner) job.combiner = sum;
    return job;
  };

  JobRunner runner(fs.get());
  JobReport without, with;
  ASSERT_TRUE(runner.Run(make_job(false), &without).ok());
  ASSERT_TRUE(runner.Run(make_job(true), &with).ok());

  // Same aggregate answer...
  auto to_map = [](const JobReport& report) {
    std::map<int32_t, int64_t> result;
    for (const auto& [key, value] : report.output) {
      result[key.int32_value()] = value.int64_value();
    }
    return result;
  };
  EXPECT_EQ(to_map(without), to_map(with));
  int64_t total = 0;
  for (const auto& [status, count] : to_map(with)) total += count;
  EXPECT_EQ(total, 3000);

  // ...with far fewer shuffled records and bytes (4 distinct statuses per
  // task instead of one pair per input record).
  EXPECT_LT(with.map_output_records, without.map_output_records / 10);
  EXPECT_LT(with.map_output_bytes, without.map_output_bytes / 10);
}

}  // namespace
}  // namespace colmr
