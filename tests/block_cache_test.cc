// Tests for the shared block cache and block prefetch (DESIGN.md §9):
// BlockCache LRU/charging semantics, FileReader read-through and
// invalidation (a corrupted replica must never be served from the cache),
// and asynchronous prefetch. Job output equal to a reference with the
// cache and prefetch on or off, cold or warm, with and without
// a corrupted replica, is oracle_test's.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cif/cif.h"
#include "cif/cof.h"
#include "hdfs/block_cache.h"
#include "hdfs/reader.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "workload/crawl.h"

namespace colmr {
namespace {

// ---- BlockCache unit tests ------------------------------------------------

std::shared_ptr<const std::string> Bytes(size_t n, char fill) {
  return std::make_shared<const std::string>(n, fill);
}

TEST(BlockCacheTest, InsertLookupEraseClear) {
  MetricsRegistry metrics;
  BlockCache cache(1 << 20, &metrics);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, Bytes(100, 'a'));
  auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, std::string(100, 'a'));
  // A different generation of the same id is a distinct entry.
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  cache.Insert(1, 1, Bytes(50, 'b'));
  EXPECT_EQ(cache.SizeBytes(), 150u);
  // Erase drops every generation of the id.
  cache.Erase(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.SizeBytes(), 0u);
  cache.Insert(2, 0, Bytes(10, 'c'));
  cache.Insert(3, 0, Bytes(10, 'd'));
  cache.Clear();
  EXPECT_EQ(cache.SizeBytes(), 0u);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
}

TEST(BlockCacheTest, LruEvictionIsByteChargedAndTouchAware) {
  // Ids that are multiples of 8 land in one shard; total capacity 8 * 256
  // gives that shard a 256-byte budget — room for two 100-byte entries.
  MetricsRegistry metrics;
  BlockCache cache(8 * 256, &metrics);
  cache.Insert(8, 0, Bytes(100, 'a'));
  cache.Insert(16, 0, Bytes(100, 'b'));
  // Touch id 8 so id 16 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(8, 0), nullptr);
  cache.Insert(24, 0, Bytes(100, 'c'));
  EXPECT_NE(cache.Lookup(8, 0), nullptr);
  EXPECT_EQ(cache.Lookup(16, 0), nullptr);
  EXPECT_NE(cache.Lookup(24, 0), nullptr);
  EXPECT_GE(metrics.Snapshot().counters.at("hdfs.cache.evictions"), 1u);
}

TEST(BlockCacheTest, OversizedEntryIsNotAdmitted) {
  MetricsRegistry metrics;
  BlockCache cache(8 * 64, &metrics);  // 64-byte shard budget
  cache.Insert(8, 0, Bytes(100, 'x'));
  EXPECT_EQ(cache.Lookup(8, 0), nullptr);
  EXPECT_EQ(cache.SizeBytes(), 0u);
}

TEST(BlockCacheTest, MetricsCountHitsMissesAndBytes) {
  MetricsRegistry metrics;
  BlockCache cache(1 << 20, &metrics);
  cache.Insert(5, 0, Bytes(64, 'z'));
  EXPECT_EQ(cache.Lookup(9, 0, 16), nullptr);  // miss
  EXPECT_NE(cache.Lookup(5, 0, 16), nullptr);  // hit serving 16 bytes
  // Contains is a metrics-free probe.
  EXPECT_TRUE(cache.Contains(5, 0));
  EXPECT_FALSE(cache.Contains(9, 0));
  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("hdfs.cache.hits"), 1u);
  EXPECT_EQ(snap.counters.at("hdfs.cache.misses"), 1u);
  // hit_bytes counts what hits served, not the blocks they found.
  EXPECT_EQ(snap.counters.at("hdfs.cache.hit_bytes"), 16u);
}

// ---- FileReader read-through and invalidation -----------------------------

ClusterConfig CacheCluster() {
  ClusterConfig config;
  config.num_nodes = 5;
  config.replication = 3;
  config.block_size = 1024;
  config.io_buffer_size = 256;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs(const std::string& path,
                                 const std::string& payload,
                                 ClusterConfig config = CacheCluster()) {
  auto fs = std::make_unique<MiniHdfs>(
      config, std::make_unique<DefaultPlacementPolicy>(1));
  std::unique_ptr<FileWriter> writer;
  EXPECT_TRUE(fs->Create(path, &writer).ok());
  writer->Append(payload);
  EXPECT_TRUE(writer->Close().ok());
  return fs;
}

std::string Payload(size_t n) {
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) payload[i] = 'a' + (i * 131) % 26;
  return payload;
}

std::string ReadAll(MiniHdfs* fs, const std::string& path,
                    const ReadContext& context) {
  std::unique_ptr<FileReader> reader;
  EXPECT_TRUE(fs->Open(path, context, &reader).ok());
  std::string data;
  EXPECT_TRUE(reader->Read(0, reader->size(), &data).ok());
  return data;
}

TEST(CacheReadThroughTest, SecondReadHitsWithoutIoCharge) {
  const std::string payload = Payload(4000);  // 4 blocks
  auto fs = MakeFs("/f", payload);
  MetricsRegistry metrics;
  fs->EnsureBlockCache(1 << 20, &metrics);

  IoStats cold, warm;
  ReadContext context{0, &cold};
  context.metrics = &metrics;
  EXPECT_EQ(ReadAll(fs.get(), "/f", context), payload);
  EXPECT_EQ(metrics.Snapshot().counters.at("hdfs.cache.hits"), 0u);

  context.stats = &warm;
  EXPECT_EQ(ReadAll(fs.get(), "/f", context), payload);
  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("hdfs.cache.hits"), 4u);
  EXPECT_EQ(snap.counters.at("hdfs.cache.hit_bytes"), payload.size());
  // A memory hit has no simulated I/O cost: nothing is charged.
  EXPECT_GT(cold.local_bytes + cold.remote_bytes, 0u);
  EXPECT_EQ(warm.local_bytes + warm.remote_bytes, 0u);
}

TEST(CacheReadThroughTest, CorruptReplicaIsNeverServedFromCache) {
  const std::string payload = Payload(2048);  // 2 blocks
  auto fs = MakeFs("/f", payload);
  MetricsRegistry metrics;
  fs->EnsureBlockCache(1 << 20, &metrics);

  // Warm the cache from node 0's replicas.
  ReadContext warm_context{0, nullptr};
  warm_context.metrics = &metrics;
  EXPECT_EQ(ReadAll(fs.get(), "/f", warm_context), payload);
  EXPECT_GT(fs->block_cache()->SizeBytes(), 0u);

  // Corrupting a replica bumps the block's generation and erases the id,
  // so a reader opened afterwards takes the verifying path, catches the
  // flip, and fails over — stale cached bytes are unreachable.
  NodeId corrupt_node = kAnyNode;
  ASSERT_TRUE(fs->CorruptReplica("/f", 0, 0, &corrupt_node).ok());
  IoStats stats;
  ReadContext context{corrupt_node, &stats};
  context.metrics = &metrics;
  EXPECT_EQ(ReadAll(fs.get(), "/f", context), payload);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_GE(stats.failover_reads, 1u);

  // The failover replica re-verified and re-populated the new generation:
  // the next reader hits and still sees pristine bytes.
  IoStats hit_stats;
  context.stats = &hit_stats;
  EXPECT_EQ(ReadAll(fs.get(), "/f", context), payload);
  EXPECT_EQ(hit_stats.checksum_failures, 0u);
  EXPECT_EQ(hit_stats.local_bytes + hit_stats.remote_bytes, 0u);
}

TEST(CacheReadThroughTest, DeleteAndReReplicateInvalidate) {
  const std::string payload = Payload(2048);
  auto fs = MakeFs("/f", payload);
  fs->EnsureBlockCache(1 << 20, nullptr);
  ReadContext context{0, nullptr};
  EXPECT_EQ(ReadAll(fs.get(), "/f", context), payload);
  EXPECT_GT(fs->block_cache()->SizeBytes(), 0u);

  // ReReplicate with nothing to repair leaves the cache warm...
  ASSERT_TRUE(fs->ReReplicate().ok());
  EXPECT_GT(fs->block_cache()->SizeBytes(), 0u);
  // ...but after a replica set actually changes, the block is dropped.
  NodeId corrupt_node = kAnyNode;
  ASSERT_TRUE(fs->CorruptReplica("/f", 0, 0, &corrupt_node).ok());
  IoStats stats;
  ReadContext corrupt_context{corrupt_node, &stats};
  EXPECT_EQ(ReadAll(fs.get(), "/f", corrupt_context), payload);  // marks bad
  EXPECT_EQ(ReadAll(fs.get(), "/f", corrupt_context), payload);  // re-warms
  ASSERT_TRUE(fs->ReReplicate().ok());

  ASSERT_TRUE(fs->Delete("/f").ok());
  EXPECT_EQ(fs->block_cache()->SizeBytes(), 0u);
}

TEST(CacheReadThroughTest, KilledNodeBytesStillServeFromCache) {
  const std::string payload = Payload(3072);  // 3 blocks
  auto fs = MakeFs("/f", payload);
  MetricsRegistry metrics;
  fs->EnsureBlockCache(1 << 20, &metrics);

  // Warm the cache, then kill a replica holder. Cached bytes were
  // checksum-verified at fill time, so the kill does NOT invalidate them:
  // the generation only moves when replica contents change, not when the
  // replica set shrinks.
  ReadContext warm{0, nullptr};
  warm.metrics = &metrics;
  EXPECT_EQ(ReadAll(fs.get(), "/f", warm), payload);
  std::vector<BlockInfo> blocks;
  ASSERT_TRUE(fs->GetBlockLocations("/f", &blocks).ok());
  ASSERT_TRUE(fs->KillNode(blocks[0].replicas[0]).ok());

  IoStats stats;
  ReadContext context{blocks[0].replicas[0], &stats};
  context.metrics = &metrics;
  EXPECT_EQ(ReadAll(fs.get(), "/f", context), payload);
  EXPECT_EQ(stats.local_bytes + stats.remote_bytes, 0u);  // pure cache hits
  EXPECT_EQ(metrics.Snapshot().counters.at("hdfs.cache.hits"), 3u);

  // After repair (ReReplicate changes replica sets → generation bumps)
  // reads still return pristine bytes — never a stale mix.
  ASSERT_TRUE(fs->ReReplicate().ok());
  IoStats after;
  ReadContext repaired{1, &after};
  repaired.metrics = &metrics;
  EXPECT_EQ(ReadAll(fs.get(), "/f", repaired), payload);
}

TEST(CacheReadThroughTest, RenameIsMetadataOnlyAndKeepsCacheWarm) {
  const std::string payload = Payload(2048);
  auto fs = MakeFs("/f", payload);
  fs->EnsureBlockCache(1 << 20, nullptr);
  EXPECT_EQ(ReadAll(fs.get(), "/f", ReadContext{0, nullptr}), payload);
  const uint64_t warm_bytes = fs->block_cache()->SizeBytes();
  EXPECT_GT(warm_bytes, 0u);

  // Rename moves namespace entries only: block ids, generations, and the
  // cached verified bytes all stay valid under the new name.
  ASSERT_TRUE(fs->Rename("/f", "/g").ok());
  EXPECT_EQ(fs->block_cache()->SizeBytes(), warm_bytes);
  IoStats stats;
  EXPECT_EQ(ReadAll(fs.get(), "/g", ReadContext{0, &stats}), payload);
  EXPECT_EQ(stats.local_bytes + stats.remote_bytes, 0u);  // served warm
}

TEST(CacheReadThroughTest, BufferedReaderServesViewsAcrossBlockBoundaries) {
  // Stream the file through BufferedReader twice, with the cache off and
  // on (the second pass then runs warm): every pass must yield identical
  // bytes, including values straddling block boundaries.
  const std::string payload = Payload(4096 + 700);
  for (const bool cache : {false, true}) {
    auto fs = MakeFs("/f", payload);
    if (cache) fs->EnsureBlockCache(1 << 20, nullptr);
    for (int pass = 0; pass < 2; ++pass) {
      ReadContext context{0, nullptr};
      std::unique_ptr<FileReader> file;
      ASSERT_TRUE(fs->Open("/f", context, &file).ok());
      BufferedReader reader(std::move(file), 256);
      std::string got, chunk;
      // Odd chunk size so reads straddle both buffer and block boundaries.
      while (!reader.AtEnd()) {
        size_t n = std::min<uint64_t>(331, reader.Remaining());
        ASSERT_TRUE(reader.ReadBytes(n, &chunk).ok());
        got += chunk;
      }
      EXPECT_EQ(got, payload) << "cache " << cache << " pass " << pass;
    }
  }
}

TEST(CacheReadThroughTest, FailedSkipKeepsTheCursorReadable) {
  // A read-through Skip drops a pinned window, then fails to fetch the
  // next block: the cursor must stay where it was, readable again.
  const std::string payload = Payload(2048);
  auto fs = MakeFs("/f", payload);
  fs->EnsureBlockCache(1 << 20, nullptr);
  std::unique_ptr<FileReader> file;
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &file).ok());
  std::string block0;
  ASSERT_TRUE(file->Read(0, 1024, &block0).ok());  // caches block 0 only
  FaultConfig faults;
  faults.read_error_p = 1.0;  // every uncached read fails
  fs->SetFaultConfig(faults);
  ASSERT_TRUE(fs->Open("/f", ReadContext{}, &file).ok());
  BufferedReader reader(std::move(file), 256);
  ASSERT_TRUE(reader.Seek(900).ok());
  Slice view;
  ASSERT_TRUE(reader.Peek(1, &view).ok());  // pinned: bytes 900..1023
  EXPECT_FALSE(reader.Skip(300).ok());      // block 1 is unreadable
  ASSERT_TRUE(reader.Peek(1, &view).ok());
  EXPECT_EQ(view.ToString(), payload.substr(900, view.size()));
}

// ---- Job-level: prefetch counters and a warm re-scan ----------------------

// Output comparison only: with the cache on, IoStats legitimately differ
// (hits charge no bytes), so unlike the parallel-engine equivalence tests
// this deliberately does not compare I/O accounting.
void ExpectSameOutput(const JobReport& a, const JobReport& b) {
  EXPECT_EQ(a.map_input_records, b.map_input_records);
  EXPECT_EQ(a.map_output_records, b.map_output_records);
  EXPECT_EQ(a.reduce_output_records, b.reduce_output_records);
  ASSERT_EQ(a.output.size(), b.output.size());
  for (size_t i = 0; i < a.output.size(); ++i) {
    EXPECT_EQ(a.output[i].first.Compare(b.output[i].first), 0) << "key " << i;
    EXPECT_EQ(a.output[i].second.Compare(b.output[i].second), 0)
        << "value " << i;
  }
}

TEST(CacheJobTest, CifScanIssuesPrefetchAndHitsOnRescan) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 32 * 1024;
  config.io_buffer_size = 4 * 1024;
  auto fs = std::make_unique<MiniHdfs>(
      config, std::make_unique<ColumnPlacementPolicy>(23));
  Schema::Ptr schema = CrawlSchema();

  CrawlGeneratorOptions gen_options;
  gen_options.min_content_bytes = 300;
  gen_options.max_content_bytes = 800;
  CrawlGenerator gen(77, gen_options);
  CofOptions cof_options;
  cof_options.split_target_bytes = 128 * 1024;
  cof_options.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> cof;
  ASSERT_TRUE(CofWriter::Open(fs.get(), "/cif", schema, cof_options, &cof).ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(cof->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(cof->Close().ok());

  MetricsRegistry metrics;
  Job job;
  job.config.input_paths = {"/cif"};
  // Eager records over a multi-block column: the content column file
  // spans several HDFS blocks per split, so the sequential scan has
  // blocks ahead of it to warm.
  job.config.projection = {"url", "content"};
  job.config.lazy_records = false;
  job.config.cache_bytes = 16 << 20;
  job.config.prefetch_depth = 3;
  job.config.metrics = &metrics;
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(Value::Int64(0),
              Value::Int64(static_cast<int64_t>(
                  record.GetOrDie("url").string_value().size() +
                  record.GetOrDie("content").string_value().size())));
  };
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* out) {
    int64_t sum = 0;
    for (const Value& v : values) sum += v.int64_value();
    out->Emit(key, Value::Int64(sum));
  };
  // With a combiner, cold and warm runs must also agree on the combined
  // map output count.
  job.combiner = job.reducer;

  JobRunner runner(fs.get());
  JobReport cold, warm;
  ASSERT_TRUE(runner.Run(job, &cold).ok());
  MetricsSnapshot after_cold = metrics.Snapshot();
  EXPECT_GT(after_cold.counters.at("cif.prefetch.issued"), 0u);
  EXPECT_GT(after_cold.counters.at("cif.prefetch.blocks"), 0u);

  ASSERT_TRUE(runner.Run(job, &warm).ok());
  MetricsSnapshot after_warm = metrics.Snapshot();
  EXPECT_GT(after_warm.counters.at("hdfs.cache.hits"), 0u);
  ExpectSameOutput(cold, warm);
}

}  // namespace
}  // namespace colmr
