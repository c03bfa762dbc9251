#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/coding.h"
#include "hdfs/block_cache.h"
#include "hdfs/cost_model.h"
#include "hdfs/mini_hdfs.h"
#include "hdfs/placement.h"
#include "hdfs/reader.h"
#include "obs/metrics.h"

namespace colmr {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig config;
  config.num_nodes = 8;
  config.replication = 3;
  config.block_size = 1024;  // tiny blocks so tests span many
  config.io_buffer_size = 256;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<DefaultPlacementPolicy>(1));
}

std::string Pattern(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 26);
  return s;
}

TEST(MiniHdfsTest, CreateWriteRead) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/data/file", &writer).ok());
  const std::string payload = Pattern(5000);
  writer->Append(payload);
  ASSERT_TRUE(writer->Close().ok());

  uint64_t size = 0;
  ASSERT_TRUE(fs->GetFileSize("/data/file", &size).ok());
  EXPECT_EQ(size, payload.size());

  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/data/file", ReadContext{}, &reader).ok());
  std::string read_back;
  ASSERT_TRUE(reader->Read(0, payload.size(), &read_back).ok());
  EXPECT_EQ(read_back, payload);

  // Positioned read across a block boundary.
  ASSERT_TRUE(reader->Read(1000, 100, &read_back).ok());
  EXPECT_EQ(read_back, payload.substr(1000, 100));
  // Read past EOF is short, not an error.
  ASSERT_TRUE(reader->Read(4990, 100, &read_back).ok());
  EXPECT_EQ(read_back, payload.substr(4990));
}

TEST(MiniHdfsTest, PathValidationAndDuplicates) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  EXPECT_TRUE(fs->Create("relative/path", &writer).IsInvalidArgument());
  ASSERT_TRUE(fs->Create("/x", &writer).ok());
  writer->Close();
  std::unique_ptr<FileWriter> dup;
  EXPECT_TRUE(fs->Create("/x", &dup).IsAlreadyExists());
  std::unique_ptr<FileReader> reader;
  EXPECT_TRUE(fs->Open("/missing", ReadContext{}, &reader).IsNotFound());
}

TEST(MiniHdfsTest, BlocksAreReplicated) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  writer->Append(Pattern(3000));  // 3 blocks at block_size 1024
  ASSERT_TRUE(writer->Close().ok());

  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  ASSERT_EQ(blocks.size(), 3u);
  uint64_t total = 0;
  for (const BlockInfo& b : blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
    std::set<NodeId> distinct(b.replicas.begin(), b.replicas.end());
    EXPECT_EQ(distinct.size(), 3u);
    total += b.size;
  }
  EXPECT_EQ(total, 3000u);
}

TEST(MiniHdfsTest, ListDirAndDelete) {
  auto fs = MakeFs();
  for (const char* path : {"/d/s0/a.col", "/d/s0/b.col", "/d/s1/a.col"}) {
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create(path, &writer).ok());
    writer->Append(Slice("x"));
    writer->Close();
  }
  std::vector<std::string> children;
  ASSERT_TRUE(fs->ListDir("/d", &children).ok());
  EXPECT_EQ(children, (std::vector<std::string>{"s0", "s1"}));
  ASSERT_TRUE(fs->ListDir("/d/s0", &children).ok());
  EXPECT_EQ(children, (std::vector<std::string>{"a.col", "b.col"}));

  ASSERT_TRUE(fs->Delete("/d/s0/a.col").ok());
  EXPECT_FALSE(fs->Exists("/d/s0/a.col"));
  EXPECT_TRUE(fs->Delete("/d/s0/a.col").IsNotFound());
}

TEST(MiniHdfsTest, RenameMovesFileAtomically) {
  auto fs = MakeFs();
  const std::string payload = Pattern(2500);
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/a/f", &writer).ok());
  writer->Append(payload);
  ASSERT_TRUE(writer->Close().ok());

  ASSERT_TRUE(fs->Rename("/a/f", "/b/f").ok());
  EXPECT_FALSE(fs->Exists("/a/f"));
  ASSERT_TRUE(fs->Exists("/b/f"));
  // Metadata-only move: the bytes (and their checksums) read back intact
  // at the new name.
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/b/f", ReadContext{}, &reader).ok());
  std::string got;
  ASSERT_TRUE(reader->Read(0, payload.size(), &got).ok());
  EXPECT_EQ(got, payload);

  EXPECT_TRUE(fs->Rename("/missing", "/x").IsNotFound());
  EXPECT_TRUE(fs->Rename("relative", "/x").IsInvalidArgument());
  EXPECT_TRUE(fs->Rename("/b/f", "relative").IsInvalidArgument());
}

TEST(MiniHdfsTest, RenameMovesDirectoriesAndRefusesCollisions) {
  auto fs = MakeFs();
  for (const char* path : {"/d/x", "/d/sub/y", "/e/x"}) {
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create(path, &writer).ok());
    writer->Append(Slice(path));
    ASSERT_TRUE(writer->Close().ok());
  }
  // Directory rename moves every file under the prefix.
  ASSERT_TRUE(fs->Rename("/d", "/moved").ok());
  EXPECT_FALSE(fs->Exists("/d/x"));
  EXPECT_TRUE(fs->Exists("/moved/x"));
  EXPECT_TRUE(fs->Exists("/moved/sub/y"));

  // A destination collision fails the WHOLE rename before moving
  // anything — the atomicity CommitTask's rename-or-lose race rests on.
  ASSERT_TRUE(fs->Rename("/moved", "/e").IsAlreadyExists());
  EXPECT_TRUE(fs->Exists("/moved/x"));
  EXPECT_TRUE(fs->Exists("/moved/sub/y"));
  EXPECT_TRUE(fs->Exists("/e/x"));

  // Renaming a directory into itself is rejected, not an infinite loop.
  EXPECT_TRUE(fs->Rename("/moved", "/moved/inner").IsInvalidArgument());
}

TEST(MiniHdfsTest, DeleteRecursiveRemovesTreeAndIsIdempotent) {
  auto fs = MakeFs();
  for (const char* path : {"/t/a", "/t/sub/b", "/t/sub/deep/c", "/keep"}) {
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create(path, &writer).ok());
    writer->Append(Slice("x"));
    ASSERT_TRUE(writer->Close().ok());
  }
  ASSERT_TRUE(fs->DeleteRecursive("/t").ok());
  EXPECT_FALSE(fs->Exists("/t/a"));
  EXPECT_FALSE(fs->Exists("/t/sub/b"));
  EXPECT_FALSE(fs->Exists("/t/sub/deep/c"));
  EXPECT_TRUE(fs->Exists("/keep"));
  std::vector<std::string> children;
  EXPECT_FALSE(fs->ListDir("/t", &children).ok());
  // Idempotent: deleting what is already gone is OK, not NotFound.
  EXPECT_TRUE(fs->DeleteRecursive("/t").ok());
  // Exact-file form works too.
  EXPECT_TRUE(fs->DeleteRecursive("/keep").ok());
  EXPECT_FALSE(fs->Exists("/keep"));
}

TEST(PlacementTest, SplitDirectoryNaming) {
  EXPECT_EQ(SplitDirectoryOf("/data/x/s0/url.col"), "/data/x/s0");
  EXPECT_EQ(SplitDirectoryOf("/data/x/s123/url.col"), "/data/x/s123");
  EXPECT_EQ(SplitDirectoryOf("/data/x/sx/url.col"), "");
  EXPECT_EQ(SplitDirectoryOf("/data/x/url.col"), "");
  EXPECT_EQ(SplitDirectoryOf("/s0"), "");
  EXPECT_EQ(SplitDirectoryOf("/data/split9/f"), "");
}

TEST(PlacementTest, DefaultPolicyScattersColumnFiles) {
  // Fig. 3a: under the default policy, sibling column files usually have
  // no common replica node.
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<DefaultPlacementPolicy>(7));
  std::vector<std::string> paths;
  for (const char* name : {"c1", "c2", "c3", "c4"}) {
    const std::string path = std::string("/ds/s0/") + name + ".col";
    paths.push_back(path);
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create(path, &writer).ok());
    writer->Append(Pattern(2500));
    writer->Close();
  }
  // With 4 files x 3 blocks each on 8 nodes, a common node for all blocks
  // is vanishingly unlikely.
  EXPECT_TRUE(fs->CommonReplicaNodes(paths).empty());
}

TEST(PlacementTest, ColumnPlacementPolicyCoLocates) {
  // Fig. 3b: under CPP every file of a split-directory shares one replica
  // set, so all three replicas can read any column locally.
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<ColumnPlacementPolicy>(7));
  std::vector<std::string> paths;
  for (const char* name : {"c1", "c2", "c3", "c4"}) {
    const std::string path = std::string("/ds/s0/") + name + ".col";
    paths.push_back(path);
    std::unique_ptr<FileWriter> writer;
    ASSERT_TRUE(fs->Create(path, &writer).ok());
    writer->Append(Pattern(2500));
    writer->Close();
  }
  EXPECT_EQ(fs->CommonReplicaNodes(paths).size(), 3u);

  // A different split-directory gets its own (load-balanced) replica set.
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/ds/s1/c1.col", &writer).ok());
  writer->Append(Pattern(100));
  writer->Close();
  // Non-convention paths fall back to the default policy (still valid).
  ASSERT_TRUE(fs->Create("/plain/file", &writer).ok());
  writer->Append(Pattern(100));
  writer->Close();
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/plain/file", &blocks).ok());
  EXPECT_EQ(blocks[0].replicas.size(), 3u);
}

TEST(ReadAccountingTest, LocalVsRemoteBytes) {
  auto fs = std::make_unique<MiniHdfs>(
      SmallCluster(), std::make_unique<ColumnPlacementPolicy>(7));
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/ds/s0/c.col", &writer).ok());
  writer->Append(Pattern(2048));
  writer->Close();
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/ds/s0/c.col", &blocks).ok());
  const NodeId holder = blocks[0].replicas[0];
  NodeId stranger = 0;
  while (std::find(blocks[0].replicas.begin(), blocks[0].replicas.end(),
                   stranger) != blocks[0].replicas.end()) {
    ++stranger;
  }

  IoStats local_stats;
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(
      fs->Open("/ds/s0/c.col", ReadContext{holder, &local_stats}, &reader)
          .ok());
  std::string out;
  ASSERT_TRUE(reader->Read(0, 2048, &out).ok());
  EXPECT_EQ(local_stats.local_bytes, 2048u);
  EXPECT_EQ(local_stats.remote_bytes, 0u);

  IoStats remote_stats;
  ASSERT_TRUE(
      fs->Open("/ds/s0/c.col", ReadContext{stranger, &remote_stats}, &reader)
          .ok());
  ASSERT_TRUE(reader->Read(0, 2048, &out).ok());
  EXPECT_EQ(remote_stats.local_bytes, 0u);
  EXPECT_EQ(remote_stats.remote_bytes, 2048u);
}

// What one fixed BufferedReader script charges: the accounting a fill,
// a read-through skip, a seek and a jump must keep whatever the reader's
// window is made of.
struct ScriptCharges {
  IoStats io;
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
};

ScriptCharges ReplayAccountingScript(MiniHdfs* fs, NodeId node) {
  const std::string payload = Pattern(3000);  // blocks of 1024, 1024, 952
  MetricsRegistry metrics;
  ScriptCharges charges;
  ReadContext context{node, &charges.io};
  context.metrics = &metrics;
  std::unique_ptr<FileReader> raw;
  EXPECT_TRUE(fs->Open("/f", context, &raw).ok());
  BufferedReader reader(std::move(raw), 256);
  Slice view;
  const auto expect_at = [&](uint64_t offset, size_t n) {
    ASSERT_TRUE(reader.Peek(n, &view).ok());
    ASSERT_GE(view.size(), n);
    EXPECT_EQ(view.ToString(), payload.substr(offset, view.size()));
  };
  // Sequential peeks that leave tails, the last across a block boundary.
  expect_at(0, 10);
  reader.Consume(200);
  expect_at(200, 100);
  reader.Consume(300);
  expect_at(500, 300);
  reader.Consume(290);
  expect_at(790, 300);
  reader.Consume(295);
  // A short skip reads through; a long one seeks.
  EXPECT_TRUE(reader.Skip(400).ok());
  expect_at(1485, 1);
  EXPECT_TRUE(reader.Skip(1000).ok());
  expect_at(2485, 50);
  reader.Consume(50);
  // A backward seek, then a fill across the second block boundary.
  EXPECT_TRUE(reader.Seek(2000).ok());
  expect_at(2000, 8);
  reader.Consume(8);
  // A jump past the window is free only from the cache; inside the
  // window it always is.
  const bool jumped = reader.TryJump(2900);
  if (jumped) expect_at(2900, 1);
  EXPECT_TRUE(reader.TryJump(reader.position() + 4));
  const uint64_t at = reader.position();
  expect_at(at, 3000 - at);
  MetricsSnapshot snap = metrics.Snapshot();
  charges.read_ops = snap.counters["hdfs.read.ops"];
  charges.read_bytes = snap.histograms["hdfs.read.bytes"].sum;
  return charges;
}

TEST(ReadAccountingTest, BufferedScriptChargesArePinned) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  writer->Append(Pattern(3000));
  ASSERT_TRUE(writer->Close().ok());
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  ASSERT_EQ(blocks.size(), 3u);
  // Read from a node holding the first block: later blocks may be remote.
  const NodeId node = blocks[0].replicas[0];

  // Literal values: a change in what a fill, a read-through skip, a seek
  // or a jump charges fails here.
  const ScriptCharges uncached = ReplayAccountingScript(fs.get(), node);
  EXPECT_EQ(uncached.io.local_bytes, 1650u);
  EXPECT_EQ(uncached.io.remote_bytes, 1208u);
  EXPECT_EQ(uncached.io.reads, 9u);
  EXPECT_EQ(uncached.io.seeks, 3u);
  EXPECT_EQ(uncached.read_ops, 9u);
  EXPECT_EQ(uncached.read_bytes, 2858u);

  // The same script over a warm cache. Hits charge no bytes; a fill of
  // an empty window served by one cached block is a memory hit, stops at
  // the block's end and charges no IoStats read.
  fs->EnsureBlockCache(1 << 20, nullptr);
  std::unique_ptr<FileReader> warm;
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &warm).ok());
  std::string all;
  ASSERT_TRUE(warm->Read(0, warm->size(), &all).ok());
  const ScriptCharges cached = ReplayAccountingScript(fs.get(), node);
  EXPECT_EQ(cached.io.local_bytes + cached.io.remote_bytes, 0u);
  EXPECT_EQ(cached.io.reads, 5u);
  EXPECT_EQ(cached.io.seeks, 3u);
  EXPECT_EQ(cached.read_ops, 9u);
  EXPECT_EQ(cached.read_bytes, 2006u);
}

// A fill probes the block cache once: a block the cache misses is read
// from a replica without a second lookup, and a cached one is one hit.
TEST(ReadAccountingTest, FillProbesTheCacheOnce) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  writer->Append(Pattern(3000));
  ASSERT_TRUE(writer->Close().ok());
  MetricsRegistry metrics;
  fs->EnsureBlockCache(1 << 20, &metrics);
  struct Probes {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  // One Peek on a fresh reader: a fill of its empty window.
  const auto first_peek = [&] {
    const MetricsSnapshot before = metrics.Snapshot();
    std::unique_ptr<FileReader> raw;
    EXPECT_TRUE(fs->Open("/f", ReadContext{}, &raw).ok());
    BufferedReader reader(std::move(raw), 256);
    Slice view;
    EXPECT_TRUE(reader.Peek(10, &view).ok());
    EXPECT_EQ(view.ToString(), Pattern(3000).substr(0, view.size()));
    MetricsSnapshot diff = metrics.Snapshot().Diff(before);
    return Probes{diff.counters["hdfs.cache.hits"],
                  diff.counters["hdfs.cache.misses"]};
  };
  const Probes cold = first_peek();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 1u);
  // The cold fill cached the block: the same fill is now one hit.
  const Probes warm = first_peek();
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.misses, 0u);
}

TEST(BufferedReaderTest, SequentialPeekConsume) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  const std::string payload = Pattern(5000);
  writer->Append(payload);
  writer->Close();

  IoStats stats;
  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{kAnyNode, &stats}, &raw).ok());
  BufferedReader reader(std::move(raw), 256);
  std::string got;
  while (!reader.AtEnd()) {
    Slice view;
    ASSERT_TRUE(reader.Peek(1, &view).ok());
    got.append(view.data(), view.size());
    reader.Consume(view.size());
  }
  EXPECT_EQ(got, payload);
  // Sequential scan: exactly one seek (the initial positioning).
  EXPECT_EQ(stats.seeks, 1u);
  EXPECT_EQ(stats.local_bytes, payload.size());
}

TEST(BufferedReaderTest, SeekOutsideWindowCountsSeekAndChargesPrefetch) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  writer->Append(Pattern(10000));
  writer->Close();

  IoStats stats;
  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{kAnyNode, &stats}, &raw).ok());
  BufferedReader reader(std::move(raw), 256);
  Slice view;
  ASSERT_TRUE(reader.Peek(10, &view).ok());  // fetches a 256-byte buffer
  reader.Consume(10);
  ASSERT_TRUE(reader.Seek(5000).ok());  // far outside the window
  ASSERT_TRUE(reader.Peek(10, &view).ok());
  EXPECT_EQ(view[0], Pattern(5001)[5000]);
  EXPECT_EQ(stats.seeks, 2u);
  // Both buffer fills were charged even though only 20 bytes were used:
  // read amplification at io.file.buffer.size granularity.
  EXPECT_EQ(stats.local_bytes, 512u);
}

TEST(BufferedReaderTest, SkipWithinBufferIsFree) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  writer->Append(Pattern(1000));
  writer->Close();

  IoStats stats;
  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{kAnyNode, &stats}, &raw).ok());
  BufferedReader reader(std::move(raw), 512);
  Slice view;
  ASSERT_TRUE(reader.Peek(1, &view).ok());
  ASSERT_TRUE(reader.Skip(100).ok());  // buffered: no extra seek
  EXPECT_EQ(stats.seeks, 1u);
  EXPECT_EQ(reader.position(), 100u);
}

TEST(BufferedReaderTest, PeekGrowsAcrossBufferBoundaries) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  const std::string payload = Pattern(3000);
  writer->Append(payload);
  writer->Close();

  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &raw).ok());
  BufferedReader reader(std::move(raw), 256);
  Slice view;
  ASSERT_TRUE(reader.Peek(2000, &view).ok());  // far larger than the buffer
  ASSERT_GE(view.size(), 2000u);
  EXPECT_EQ(Slice(view.data(), 2000).ToString(), payload.substr(0, 2000));
}

TEST(BufferedReaderTest, VarintAndBytesHelpers) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  Buffer b;
  PutVarint64(&b, 300);
  PutFixed32(&b, 77);
  b.Append(Slice("tail"));
  writer->Append(b.AsSlice());
  writer->Close();

  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &raw).ok());
  BufferedReader reader(std::move(raw), 0);
  uint64_t v;
  uint32_t f;
  std::string tail;
  ASSERT_TRUE(reader.ReadVarint64(&v).ok());
  ASSERT_TRUE(reader.ReadFixed32(&f).ok());
  ASSERT_TRUE(reader.ReadBytes(4, &tail).ok());
  EXPECT_EQ(v, 300u);
  EXPECT_EQ(f, 77u);
  EXPECT_EQ(tail, "tail");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BufferedReaderTest, ReadBytesPastEndIsCorruption) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  writer->Append(Slice("0123456789"));
  writer->Close();

  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &raw).ok());
  BufferedReader reader(std::move(raw), 0);
  std::string head;
  ASSERT_TRUE(reader.ReadBytes(6, &head).ok());
  EXPECT_EQ(head, "012345");
  // A length decoded from a (truncated) header that runs past EOF must
  // surface as Corruption, not a silently short success.
  std::string tail;
  Status s = reader.ReadBytes(10, &tail);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The cursor did not move: the remaining bytes are still readable.
  ASSERT_TRUE(reader.ReadBytes(4, &tail).ok());
  EXPECT_EQ(tail, "6789");
}

TEST(CostModelTest, TaskSecondsComposesTerms) {
  ClusterConfig config;
  config.disk_bandwidth_mbps = 100;
  config.network_bandwidth_mbps = 10;
  config.seek_latency_ms = 10;
  CostModel model(config);
  TaskCost cost;
  cost.cpu_seconds = 1.0;
  cost.io.local_bytes = 100 * 1000 * 1000;  // 1s at 100 MB/s
  cost.io.remote_bytes = 10 * 1000 * 1000;  // 1s at 10 MB/s
  cost.io.seeks = 100;                      // 1s at 10 ms
  EXPECT_NEAR(model.TaskSeconds(cost), 4.0, 1e-9);
}

TEST(CostModelTest, MapPhasePacksOntoSlots) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.map_slots_per_node = 2;  // 4 slots
  CostModel model(config);
  // 8 unit tasks on 4 slots: 2 waves.
  std::vector<double> tasks(8, 1.0);
  EXPECT_NEAR(model.MapPhaseSeconds(tasks), 2.0, 1e-9);
  // One long task dominates.
  tasks.push_back(10.0);
  EXPECT_NEAR(model.MapPhaseSeconds(tasks), 10.0, 1e-9);
  EXPECT_NEAR(model.MapPhaseSeconds({}), 0.0, 1e-9);
}

}  // namespace
}  // namespace colmr

namespace colmr {
namespace {

TEST(BufferedReaderTest, ShortForwardSkipReadsThroughWithoutSeek) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  const std::string payload = Pattern(4000);
  writer->Append(payload);
  writer->Close();

  IoStats stats;
  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{kAnyNode, &stats}, &raw).ok());
  BufferedReader reader(std::move(raw), 256);
  Slice view;
  ASSERT_TRUE(reader.Peek(1, &view).ok());
  reader.Consume(1);
  // Skip 400 bytes: past the 256-byte buffer but within the 2x-buffer
  // read-through window -> bytes are fetched, no extra seek.
  ASSERT_TRUE(reader.Skip(400).ok());
  EXPECT_EQ(reader.position(), 401u);
  EXPECT_EQ(stats.seeks, 1u);
  ASSERT_TRUE(reader.Peek(1, &view).ok());
  EXPECT_EQ(view[0], payload[401]);
  // Intervening bytes were charged (read through).
  EXPECT_GE(stats.local_bytes, 401u);
}

TEST(BufferedReaderTest, LongForwardSkipSeeksAndSavesBytes) {
  auto fs = MakeFs();
  std::unique_ptr<FileWriter> writer;
  ASSERT_TRUE(fs->Create("/f", &writer).ok());
  const std::string payload = Pattern(20000);
  writer->Append(payload);
  writer->Close();

  IoStats stats;
  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open("/f", ReadContext{kAnyNode, &stats}, &raw).ok());
  BufferedReader reader(std::move(raw), 256);
  Slice view;
  ASSERT_TRUE(reader.Peek(1, &view).ok());
  reader.Consume(1);
  ASSERT_TRUE(reader.Skip(15000).ok());  // way past the read-through window
  EXPECT_EQ(reader.position(), 15001u);
  EXPECT_EQ(stats.seeks, 2u);  // initial + the jump
  ASSERT_TRUE(reader.Peek(1, &view).ok());
  EXPECT_EQ(view[0], payload[15001]);
  // The skipped middle was never fetched.
  EXPECT_LT(stats.local_bytes, 2000u);
}

TEST(SchedulerModelTest, OverloadedLocalNodesFallBackToRemote) {
  // Many splits all local to the same replica set: the fair-share rule
  // pushes the excess onto other nodes (the paper's "Node 1 is busy").
  ClusterConfig config = SmallCluster();
  CostModel model(config);
  std::vector<int> load(config.num_nodes, 0);
  // Simulated by construction: fair share for 16 splits on 8 nodes is 2,
  // so a replica set of {0,1,2} can absorb at most 6 local tasks.
  // (Exercised end-to-end in mapreduce_test; here we pin the arithmetic.)
  const int fair_share = (16 + config.num_nodes - 1) / config.num_nodes;
  EXPECT_EQ(fair_share, 2);
}

}  // namespace
}  // namespace colmr
