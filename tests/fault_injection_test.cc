#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "hdfs/fault_injector.h"
#include "hdfs/mini_hdfs.h"

namespace colmr {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig config;
  config.num_nodes = 5;
  config.replication = 3;
  config.block_size = 1024;
  config.io_buffer_size = 256;
  return config;
}

std::string Payload(size_t n) {
  std::string data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back(static_cast<char>('a' + (i * 131) % 26));
  }
  return data;
}

std::unique_ptr<MiniHdfs> MakeFs(const std::string& path,
                                 const std::string& payload) {
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<DefaultPlacementPolicy>());
  std::unique_ptr<FileWriter> writer;
  EXPECT_TRUE(fs->Create(path, &writer).ok());
  writer->Append(payload);
  EXPECT_TRUE(writer->Close().ok());
  return fs;
}

Status ReadAll(const MiniHdfs& fs, const std::string& path,
               const ReadContext& context, std::string* out) {
  std::unique_ptr<FileReader> reader;
  COLMR_RETURN_IF_ERROR(fs.Open(path, context, &reader));
  return reader->Read(0, reader->size(), out);
}

TEST(ChecksumTest, CorruptReplicaIsCaughtMarkedAndFailedOver) {
  const std::string payload = Payload(3000);  // 3 blocks
  auto fs = MakeFs("/f", payload);

  NodeId corrupt_node = kAnyNode;
  ASSERT_TRUE(fs->CorruptReplica("/f", 1, 0, &corrupt_node).ok());
  ASSERT_NE(corrupt_node, kAnyNode);

  // Read from the corrupted node itself, so its (local) replica is the
  // first candidate for block 1 — the checksum must reject it and the
  // read must fail over to a clean replica.
  IoStats stats;
  std::string got;
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{corrupt_node, &stats}, &got).ok());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_GE(stats.failover_reads, 1u);
  EXPECT_EQ(fs->bad_replica_marks(), 1u);

  // The namenode now treats the replica as missing...
  EXPECT_EQ(fs->UnderReplicatedBlockCount(), 1u);
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  EXPECT_EQ(blocks[1].replicas.size(), 2u);
  for (NodeId node : blocks[1].replicas) EXPECT_NE(node, corrupt_node);

  // ...and re-replication replaces it from a good copy.
  ASSERT_TRUE(fs->ReReplicate().ok());
  EXPECT_EQ(fs->UnderReplicatedBlockCount(), 0u);

  // After repair the whole file reads cleanly from any context.
  IoStats after;
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{corrupt_node, &after}, &got).ok());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(after.checksum_failures, 0u);
}

TEST(ChecksumTest, VerificationIsCachedPerReplica) {
  const std::string payload = Payload(2048);
  auto fs = MakeFs("/f", payload);
  NodeId corrupt_node = kAnyNode;
  ASSERT_TRUE(fs->CorruptReplica("/f", 0, 0, &corrupt_node).ok());

  // Many small reads through one reader: the corrupt replica is rejected
  // once (then marked bad), not once per read.
  IoStats stats;
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/f", ReadContext{corrupt_node, &stats}, &reader).ok());
  std::string got;
  std::string chunk;
  for (uint64_t off = 0; off < reader->size(); off += 256) {
    ASSERT_TRUE(reader->Read(off, 256, &chunk).ok());
    got += chunk;
  }
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stats.checksum_failures, 1u);
}

TEST(DataLossTest, AllReplicasBadReadsAndRepairsAsDataLoss) {
  const std::string payload = Payload(800);  // 1 block
  auto fs = MakeFs("/f", payload);
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  ASSERT_EQ(blocks.size(), 1u);
  for (NodeId node : blocks[0].replicas) {
    ASSERT_TRUE(fs->MarkReplicaBad(blocks[0].id, node).ok());
  }

  std::string got;
  EXPECT_TRUE(ReadAll(*fs, "/f", ReadContext{}, &got).IsDataLoss());
  EXPECT_EQ(fs->LostBlockCount(), 1u);

  // ReReplicate must report the loss, not silently resurrect the bytes.
  Status repair = fs->ReReplicate();
  EXPECT_TRUE(repair.IsDataLoss()) << repair.ToString();
  EXPECT_EQ(fs->LostBlockCount(), 1u);
  EXPECT_TRUE(ReadAll(*fs, "/f", ReadContext{}, &got).IsDataLoss());
}

TEST(DataLossTest, LastReplicaKilledIsLost) {
  const std::string payload = Payload(500);
  auto fs = MakeFs("/f", payload);
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  for (NodeId node : blocks[0].replicas) {
    ASSERT_TRUE(fs->KillNode(node).ok());
  }
  std::string got;
  EXPECT_TRUE(ReadAll(*fs, "/f", ReadContext{}, &got).IsDataLoss());
  EXPECT_EQ(fs->LostBlockCount(), 1u);
}

TEST(TransientFaultTest, FailoverPreservesBytes) {
  const std::string payload = Payload(4096);
  auto fs = MakeFs("/f", payload);
  FaultConfig faults;
  faults.seed = 7;
  faults.read_error_p = 0.4;
  fs->SetFaultConfig(faults);

  // Each salt draws an independent deterministic schedule. Over several
  // attempts we must see (a) only correct bytes from successful reads,
  // (b) at least one failover, (c) at least one success — p = 0.4 with
  // 3 replicas fails a whole block only ~6% of the time.
  uint64_t successes = 0;
  uint64_t failovers = 0;
  for (uint64_t salt = 0; salt < 8; ++salt) {
    IoStats stats;
    std::string got;
    Status s = ReadAll(*fs, "/f", ReadContext{kAnyNode, &stats, salt}, &got);
    if (s.ok()) {
      EXPECT_EQ(got, payload);
      ++successes;
    } else {
      EXPECT_TRUE(s.IsIoError()) << s.ToString();
    }
    failovers += stats.failover_reads;
  }
  EXPECT_GT(successes, 0u);
  EXPECT_GT(failovers, 0u);
  // Transient errors never condemn replicas.
  EXPECT_EQ(fs->bad_replica_marks(), 0u);
  EXPECT_EQ(fs->UnderReplicatedBlockCount(), 0u);
}

TEST(TransientFaultTest, ScheduleIsDeterministic) {
  const std::string payload = Payload(4096);
  FaultConfig faults;
  faults.seed = 11;
  faults.read_error_p = 0.3;

  auto run = [&](uint64_t salt) {
    auto fs = MakeFs("/f", payload);
    fs->SetFaultConfig(faults);
    IoStats stats;
    std::string got;
    Status s = ReadAll(*fs, "/f", ReadContext{kAnyNode, &stats, salt}, &got);
    return std::make_pair(s.ok(), stats.failover_reads);
  };
  // Same salt → identical outcome across fresh filesystems; a different
  // salt (a retried attempt) draws a different schedule.
  EXPECT_EQ(run(3), run(3));
  bool any_differs = false;
  for (uint64_t salt = 0; salt < 6 && !any_differs; ++salt) {
    any_differs = run(salt) != run(salt + 100);
  }
  EXPECT_TRUE(any_differs);
}

TEST(FlakyNodeTest, FlakyServerIsAvoidedViaFailover) {
  const std::string payload = Payload(1500);
  auto fs = MakeFs("/f", payload);
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  const NodeId flaky = blocks[0].replicas[0];

  FaultConfig faults;
  faults.flaky_nodes = {flaky};
  faults.flaky_read_error_p = 1.0;  // always fails when it serves
  fs->SetFaultConfig(faults);

  // Reading *on* the flaky node: its local replica always errors, so
  // every block it holds is served remotely instead.
  IoStats stats;
  std::string got;
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{flaky, &stats}, &got).ok());
  EXPECT_EQ(got, payload);
  EXPECT_GE(stats.failover_reads, 1u);
  EXPECT_EQ(stats.local_bytes, 0u);
  EXPECT_GT(stats.remote_bytes, 0u);
}

TEST(BrokenNodeTest, ExecutionNodeCannotReadAtAll) {
  const std::string payload = Payload(600);
  auto fs = MakeFs("/f", payload);
  FaultConfig faults;
  faults.broken_nodes = {2};
  fs->SetFaultConfig(faults);

  std::string got;
  EXPECT_TRUE(ReadAll(*fs, "/f", ReadContext{2}, &got).IsIoError());
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{3}, &got).ok());
  EXPECT_EQ(got, payload);
}

TEST(SlowNodeTest, StallLatencyIsCharged) {
  const std::string payload = Payload(600);
  auto fs = MakeFs("/f", payload);
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  const NodeId slow = blocks[0].replicas[0];

  FaultConfig faults;
  faults.slow_nodes = {slow};
  faults.slow_read_latency_ms = 5;
  fs->SetFaultConfig(faults);

  IoStats stats;
  std::string got;
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{slow, &stats}, &got).ok());
  EXPECT_EQ(got, payload);
  EXPECT_DOUBLE_EQ(stats.stall_seconds, 0.005);

  // A context on a different node is served by its own first candidate;
  // reading via a node that holds no replica starts at the lowest id,
  // which may or may not be the slow node — just assert determinism.
  IoStats again;
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{slow, &again}, &got).ok());
  EXPECT_DOUBLE_EQ(again.stall_seconds, stats.stall_seconds);
}

// ---- Write-path faults (DESIGN.md §11) ----

TEST(WriteFaultTest, SealFaultMakesWriterStickyAndCharges) {
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<DefaultPlacementPolicy>());
  FaultConfig faults;
  faults.write_error_p = 1.0;
  fs->SetFaultConfig(faults);

  IoStats stats;
  WriteContext context{1, &stats, /*fault_salt=*/7};
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/w", context, &writer).ok());
  writer->Append(Payload(3000));  // 3 blocks' worth
  EXPECT_TRUE(writer->Close().IsIoError());
  // Sticky: the FIRST seal fails and the writer stays failed — one fault
  // charged, not one per block, and later Appends are dropped.
  EXPECT_EQ(stats.write_faults, 1u);
  EXPECT_FALSE(writer->status().ok());
  writer->Append("more");
  EXPECT_TRUE(writer->Close().IsIoError());

  // The torn file is what the commit protocol must hide: it exists, with
  // only the blocks sealed before the fault (none here).
  EXPECT_TRUE(fs->Exists("/w"));
}

TEST(WriteFaultTest, ScheduleIsDeterministicAndSaltKeyed) {
  FaultConfig faults;
  faults.seed = 11;
  faults.write_error_p = 0.4;
  const FaultInjector injector(faults);
  const uint64_t wkey = FaultInjector::PathKey("/out/part-r-00000");
  // Pure function of the draw coordinates.
  for (uint64_t draw = 0; draw < 8; ++draw) {
    EXPECT_EQ(injector.WriteAttemptFails(wkey, 2, 5, draw),
              injector.WriteAttemptFails(wkey, 2, 5, draw));
  }
  // A fresh attempt (new salt) draws a different schedule somewhere.
  bool any_differs = false;
  for (uint64_t draw = 0; draw < 32 && !any_differs; ++draw) {
    any_differs = injector.WriteAttemptFails(wkey, 2, 5, draw) !=
                  injector.WriteAttemptFails(wkey, 2, 6, draw);
  }
  EXPECT_TRUE(any_differs);
  EXPECT_EQ(FaultInjector::PathKey("/a"), FaultInjector::PathKey("/a"));
  EXPECT_NE(FaultInjector::PathKey("/a"), FaultInjector::PathKey("/b"));
}

TEST(WriteFaultTest, SlowWriteNodeStallsAndChargesLikeSlowReads) {
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<DefaultPlacementPolicy>());
  FaultConfig faults;
  faults.slow_write_nodes = {2};
  faults.slow_write_latency_ms = 5;
  fs->SetFaultConfig(faults);

  IoStats stats;
  WriteContext context{2, &stats};
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/w", context, &writer).ok());
  writer->Append(Payload(600));  // one block
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_DOUBLE_EQ(stats.stall_seconds, 0.005);

  // A writer on a fast node pays nothing.
  IoStats fast;
  WriteContext fast_context{3, &fast};
  ASSERT_TRUE(fs->Create("/w2", fast_context, &writer).ok());
  writer->Append(Payload(600));
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_DOUBLE_EQ(fast.stall_seconds, 0.0);
}

TEST(WriteFaultTest, WriteDeathKillsTheNodeAtFirstSeal) {
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<DefaultPlacementPolicy>());
  FaultConfig faults;
  faults.write_death_nodes = {3};
  fs->SetFaultConfig(faults);

  IoStats stats;
  WriteContext context{3, &stats};
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/w", context, &writer).ok());
  writer->Append(Payload(600));
  EXPECT_TRUE(writer->Close().IsIoError());
  EXPECT_TRUE(fs->IsNodeDead(3));
  EXPECT_EQ(stats.write_faults, 1u);

  // A retry from a surviving node succeeds.
  IoStats retry_stats;
  WriteContext retry{4, &retry_stats, /*fault_salt=*/1};
  ASSERT_TRUE(fs->Create("/w2", retry, &writer).ok());
  writer->Append(Payload(600));
  ASSERT_TRUE(writer->Close().ok());
}

TEST(WriteFaultTest, CommitDrawsAreDeterministic) {
  FaultConfig faults;
  faults.seed = 5;
  faults.task_commit_error_p = 0.5;
  faults.job_commit_error_p = 0.5;
  const FaultInjector injector(faults);
  const uint64_t key = FaultInjector::PathKey("r_00003");
  for (uint64_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(injector.TaskCommitFails(key, attempt, 0),
              injector.TaskCommitFails(key, attempt, 0));
    EXPECT_EQ(injector.JobCommitFails(7, attempt),
              injector.JobCommitFails(7, attempt));
  }
}

// Every seeded fault schedule is a function of these draws, so a change
// to the hashing behind them silently moves every fault universe the
// suites and the oracle replay. The literals pin PathKey and one bit per
// draw over a small (key, node, salt, draw) grid.
TEST(FaultInjectorTest, DrawsArePinned) {
  EXPECT_EQ(FaultInjector::PathKey(""), 0xc3817c016ba4ff30ull);
  EXPECT_EQ(FaultInjector::PathKey("/seq/part-00000"), 0xdae089a0395419b9ull);
  EXPECT_EQ(FaultInjector::PathKey("/out/_temporary/r_00003/part-r-00003"),
            0x5ae02d4b710b52daull);

  FaultConfig config;
  config.seed = 9002;
  config.read_error_p = 0.5;
  config.write_error_p = 0.5;
  config.task_commit_error_p = 0.5;
  const FaultInjector faults(config);
  // Bit i of a mask is draw i of the grid, in loop order.
  auto mask = [](auto fails) {
    uint64_t bits = 0;
    int bit = 0;
    for (uint64_t key : {0ull, 1ull, 2ull, 1000003ull}) {
      for (NodeId node : {kAnyNode, 3}) {
        for (uint64_t salt : {0ull, 0x8000000000000000ull | 656}) {
          for (uint64_t draw = 0; draw < 4; ++draw) {
            bits |= uint64_t{fails(key, node, salt, draw)} << bit++;
          }
        }
      }
    }
    return bits;
  };
  const uint64_t reads = mask([&](uint64_t key, NodeId node, uint64_t salt,
                                  uint64_t draw) {
    return faults.ReadAttemptFails(key, node, salt, draw);
  });
  const uint64_t writes = mask([&](uint64_t key, NodeId node, uint64_t salt,
                                   uint64_t draw) {
    return faults.WriteAttemptFails(key, node, salt, draw);
  });
  const uint64_t commits = mask([&](uint64_t key, NodeId node, uint64_t salt,
                                    uint64_t draw) {
    return faults.TaskCommitFails(key ^ static_cast<uint64_t>(node), salt,
                                  draw);
  });
  EXPECT_EQ(reads, 0xc448398f9e4a95f4ull);
  EXPECT_EQ(writes, 0x55f8d6de69176641ull);
  EXPECT_EQ(commits, 0x3e4348fab2cb9d7full);
}

TEST(ReaderSnapshotTest, DeleteDuringReadIsSafe) {
  const std::string payload = Payload(2500);
  auto fs = MakeFs("/f", payload);
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &reader).ok());
  ASSERT_TRUE(fs->Delete("/f").ok());
  EXPECT_FALSE(fs->Exists("/f"));

  // The reader serves its snapshot even though the namespace entry and
  // the namenode's block-data references are gone.
  std::string got;
  ASSERT_TRUE(reader->Read(0, reader->size(), &got).ok());
  EXPECT_EQ(got, payload);
}

TEST(ImagePersistenceTest, ReplicaHealthSurvivesSaveLoad) {
  const std::string image = ::testing::TempDir() + "/colmr_fault_image.bin";
  const std::string payload = Payload(3000);
  NodeId corrupt_node = kAnyNode;
  {
    auto fs = MakeFs("/f", payload);
    ASSERT_TRUE(fs->CorruptReplica("/f", 2, 1, &corrupt_node).ok());
    std::vector<BlockInfo> blocks;
    ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
    ASSERT_TRUE(fs->MarkReplicaBad(blocks[0].id, blocks[0].replicas[0]).ok());
    ASSERT_TRUE(fs->SaveImage(image).ok());
  }
  auto fs = std::make_unique<MiniHdfs>(
      ClusterConfig{}, std::make_unique<DefaultPlacementPolicy>());
  ASSERT_TRUE(fs->LoadImage(image).ok());

  // The bad mark survived: block 0 is still under-replicated.
  EXPECT_GE(fs->UnderReplicatedBlockCount(), 1u);

  // The corruption survived: reading on the corrupted node trips the
  // (recomputed) checksum and still returns correct bytes.
  IoStats stats;
  std::string got;
  ASSERT_TRUE(ReadAll(*fs, "/f", ReadContext{corrupt_node, &stats}, &got).ok());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stats.checksum_failures, 1u);
  std::remove(image.c_str());
}

}  // namespace
}  // namespace colmr
