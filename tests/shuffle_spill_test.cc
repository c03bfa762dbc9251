// Sort-merge shuffle (DESIGN.md §12). Every job with a reducer takes one
// path: map output buffers into runs — resident in memory when
// sort_buffer_bytes == 0, spilled to scratch storage otherwise — and
// reducers k-way merge them. Output equal to a reference at every buffer
// size, codec, merge factor and fault schedule is oracle_test's job; here
// the spill accounting (spill_count, merge_passes, peak_spill_buffer_bytes)
// must show that a bounded buffer stayed bounded, an unbounded one must
// never touch storage, and damaged run files must fail, not mislead.
//
// Also home of the pinned-vector tests for the stable shuffle hash: the
// partitioner is a specified function (common/hash.h FNV-1a + splitmix64),
// not std::hash, so its exact outputs are part of the contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "hdfs/fault_injector.h"
#include "mapreduce/engine.h"
#include "mapreduce/spill.h"
#include "obs/metrics.h"
#include "serde/encoding.h"
#include "word_count_job.h"

namespace colmr {
namespace {

// report.output rendered to one comparable string.
std::string OutputToString(const JobReport& report) {
  std::string s;
  for (const auto& [key, value] : report.output) {
    s += key.ToString();
    s += '\t';
    s += value.ToString();
    s += '\n';
  }
  return s;
}

// ---------------------------------------------------------------------
// Pinned vectors: the specified hash and the partitioner built on it.
// These exact values are the cross-platform contract — std::hash gave a
// different partition assignment per stdlib, which is the bug this PR
// fixes. If one of these fails, the hash function changed and every
// existing partition assignment and sync marker silently moved.
// ---------------------------------------------------------------------

TEST(StableHashTest, HashBytesVectorsArePinned) {
  EXPECT_EQ(HashBytes(Slice("", 0), 0), 0x5b21f68ffa77f14cull);
  EXPECT_EQ(HashBytes(Slice("hello"), 0), 0x231ca7b6003c0723ull);
  EXPECT_EQ(HashBytes(Slice("hello"), 1), 0x1a322cf0c41ba363ull);
}

TEST(StableHashTest, TaggedValueHashVectorsArePinned) {
  const uint64_t seed = kShufflePartitionSeed;
  EXPECT_EQ(HashTaggedValue(Value::String("the"), seed),
            0x2b16a336a4f586d9ull);
  EXPECT_EQ(HashTaggedValue(Value::Int32(42), seed), 0x838a6579c0a87f56ull);
  EXPECT_EQ(HashTaggedValue(Value::Int64(-7), seed), 0x9d31333e481930a1ull);
  EXPECT_EQ(HashTaggedValue(Value::Double(2.5), seed),
            0xc57597ef7fd96534ull);
  EXPECT_EQ(HashTaggedValue(Value::Null(), seed), 0xd22612d33348f049ull);
}

// The streaming hash must agree with hashing the materialized encoding —
// that equivalence is what lets the partitioner skip the per-pair
// ToString()/Encode allocation the old code paid.
TEST(StableHashTest, StreamingHashMatchesMaterializedEncoding) {
  std::vector<Value> values = {
      Value::Null(),        Value::Bool(true),     Value::Int32(-123456),
      Value::Int64(1ll << 40), Value::Double(3.25), Value::String("shuffle"),
      Value::Record({Value::Int32(7), Value::String("x")}),
  };
  for (const Value& v : values) {
    Buffer encoded;
    EncodeTaggedValue(v, &encoded);
    EXPECT_EQ(HashTaggedValue(v, 99), HashBytes(encoded.AsSlice(), 99))
        << v.ToString();
  }
}

TEST(StableHashTest, ShufflePartitionVectorsArePinned) {
  struct Case {
    const char* word;
    uint32_t part4;
    uint32_t part7;
  };
  const Case cases[] = {
      {"the", 1, 1},  {"quick", 0, 6}, {"brown", 1, 2}, {"fox", 2, 3},
      {"lazy", 1, 5}, {"dog", 0, 0},   {"again", 1, 5},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ShufflePartition(Value::String(c.word), 4), c.part4) << c.word;
    EXPECT_EQ(ShufflePartition(Value::String(c.word), 7), c.part7) << c.word;
  }
}

// The word count of WriteWords(files, words_per_file)'s input, computed
// from the generator's arithmetic (line n is "word<n % 509> common")
// without running a job, and rendered the way reducers emit it: partition
// by partition (ShufflePartition), keys ascending within each.
std::string WordCountOracle(int files, int words_per_file) {
  std::map<std::string, int64_t> counts;
  for (int n = 0; n < files * words_per_file; ++n) {
    counts["word" + std::to_string(n % 509)] += 1;
    counts["common"] += 1;
  }
  const ClusterConfig cluster = TestCluster();
  const uint32_t reducers =
      static_cast<uint32_t>(cluster.num_nodes * cluster.reduce_slots_per_node);
  std::vector<std::string> parts(reducers);
  for (const auto& [word, count] : counts) {
    const Value key = Value::String(word);
    parts[ShufflePartition(key, reducers)] +=
        key.ToString() + '\t' + Value::Int64(count).ToString() + '\n';
  }
  std::string output;
  for (const std::string& part : parts) output += part;
  return output;
}

// ---------------------------------------------------------------------
// Spill accounting invariants.
// ---------------------------------------------------------------------

TEST(ShuffleSpillTest, SpillsAtLeastTwicePerTaskWhenOutputExceedsBuffer) {
  // First pass unbounded to learn the job's true map output volume. The
  // tail split of each input file is smaller than the rest, so size the
  // buffer off the smallest substantial task, not the average: every
  // eligible task's output must exceed 4x the buffer.
  uint64_t min_task_records = 0;
  size_t eligible_tasks = 0;
  uint64_t avg_record_bytes = 0;
  {
    auto fs = MakeFs();
    WriteWords(fs.get(), "/in", 3, 400);
    Job job = WordCountJob("/out", /*with_combiner=*/false);
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());
    ASSERT_GT(report.map_output_records, 0u);
    avg_record_bytes = report.map_output_bytes / report.map_output_records;
    for (const TaskReport& task : report.map_tasks) {
      if (task.output_records < 10) continue;  // runt tail split
      ++eligible_tasks;
      if (min_task_records == 0 || task.output_records < min_task_records) {
        min_task_records = task.output_records;
      }
    }
  }
  ASSERT_GT(eligible_tasks, 0u);
  ASSERT_GT(avg_record_bytes, 0u);

  // >= 5x the smallest eligible task's output, so even that task spills
  // at least four times before the Finish() flush.
  const uint64_t sort_buffer = min_task_records * avg_record_bytes / 5;
  ASSERT_GT(sort_buffer, 0u);

  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  MetricsRegistry registry;
  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = sort_buffer;
  job.config.merge_factor = 2;  // force intermediate merge passes
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());

  // >= 2 spills per eligible map task: output exceeded the buffer several
  // times over, so no such task fit in a single Finish() flush.
  EXPECT_GE(report.spill_count, 2 * eligible_tasks);
  EXPECT_GT(report.spill_bytes, 0u);
  // merge_factor 2 with >= 2 runs/task forces intermediate passes, and
  // the final reduce-side merge consumes segments too.
  EXPECT_GT(report.merge_passes, 0u);
  EXPECT_GT(report.merge_segments, 0u);
  EXPECT_LE(report.peak_spill_buffer_bytes, sort_buffer + 64);
  EXPECT_LE(report.shuffle_bytes, report.map_output_bytes);

  // The metrics registry saw the same story the report tells.
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("mr.spill.count"), report.spill_count);
  EXPECT_EQ(snapshot.counters.at("mr.spill.bytes"), report.spill_bytes);
  EXPECT_EQ(snapshot.counters.at("mr.spill.merge_passes"),
            report.merge_passes);
  EXPECT_EQ(snapshot.counters.at("mr.spill.merge_segments"),
            report.merge_segments);
}

// JobReport is the only source of the engine counters that mirror its
// fields, so the two agree even when spilling attempts fail and retry:
// only the recorded attempts' spills, bytes and records count.
TEST(ShuffleSpillTest, PublishedCountersEqualReportUnderRetries) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 4, 400);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.write_error_p = 0.05;
  fs->SetFaultConfig(faults);

  MetricsRegistry registry;
  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = 256;
  job.config.merge_factor = 4;
  job.config.max_task_attempts = 12;
  job.config.node_blacklist_failures = 100;
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  ASSERT_GT(report.task_retries, 0u);
  EXPECT_EQ(OutputToString(report), WordCountOracle(4, 400));

  uint64_t reduce_input_records = 0;
  for (uint64_t n : report.reduce_input_records) reduce_input_records += n;
  const std::map<std::string, uint64_t> published = {
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
  const MetricsSnapshot snapshot = registry.Snapshot();
  for (const auto& [name, value] : published) {
    ASSERT_EQ(snapshot.counters.count(name), 1u) << name;
    EXPECT_EQ(snapshot.counters.at(name), value) << name;
  }
}

// A certain write fault on every block seal must fail the job cleanly —
// spill I/O reaches the same sticky-failure path as output writes — and
// leave no visible output.
TEST(ShuffleSpillTest, CertainSpillFaultFailsJobCleanly) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 2, 200);
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.write_error_p = 1.0;
  fs->SetFaultConfig(faults);

  Job job = WordCountJob("/out", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = 128;
  JobRunner runner(fs.get());
  JobReport report;
  Status s = runner.Run(job, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_GT(report.write_faults, 0u);
  EXPECT_FALSE(fs->Exists("/out"));
}

// Report-only jobs (no output path) spill into a private /_shuffle scratch
// that is torn down with the run.
TEST(ShuffleSpillTest, ReportOnlyJobCleansScratch) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  Job job = WordCountJob(/*out=*/"", /*with_combiner=*/false);
  job.config.sort_buffer_bytes = 128;
  job.config.parallelism = 4;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(OutputToString(report), WordCountOracle(3, 400));
  EXPECT_GT(report.spill_count, 0u);
  EXPECT_FALSE(fs->Exists("/_shuffle"));
}

// An unbounded buffer keeps every run resident: even with more map tasks
// than merge_factor there are no spills, no merge passes and no storage
// writes. Every block seal fails here, and the job never seals one.
TEST(ShuffleSpillTest, UnboundedBufferNeverTouchesStorage) {
  auto fs = MakeFs();
  WriteWords(fs.get(), "/in", 3, 400);
  const uint64_t stored_before = fs->TotalStoredBytes();
  FaultConfig faults;
  faults.seed = FaultSeed();
  faults.write_error_p = 1.0;
  fs->SetFaultConfig(faults);

  Job job = WordCountJob(/*out=*/"", /*with_combiner=*/false);
  job.config.merge_factor = 2;
  job.config.parallelism = 4;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  ASSERT_GT(report.map_tasks.size(), 2u);
  EXPECT_EQ(OutputToString(report), WordCountOracle(3, 400));
  EXPECT_EQ(report.spill_count, 0u);
  EXPECT_EQ(report.spill_bytes, 0u);
  EXPECT_EQ(report.merge_passes, 0u);
  EXPECT_EQ(report.write_faults, 0u);
  EXPECT_EQ(report.shuffle_bytes, report.map_output_bytes);
  EXPECT_EQ(fs->TotalStoredBytes(), stored_before);
  std::vector<std::string> root;
  ASSERT_TRUE(fs->ListDir("/", &root).ok());
  EXPECT_EQ(std::count(root.begin(), root.end(), "_shuffle"), 0);
}

// ---------------------------------------------------------------------
// Run-file integrity: runs cross a storage layer, so a truncated or
// corrupted run must fail its drain with a Status — never a crash, never
// different records.
// ---------------------------------------------------------------------

// A record as comparable bytes: its key's and value's tagged encodings.
std::string EncodedRecord(const Value& key, const Value& value) {
  Buffer bytes;
  EncodeTaggedValue(key, &bytes);
  EncodeTaggedValue(value, &bytes);
  return bytes.AsSlice().ToString();
}

// Drains every segment of `run` in partition order.
Status DrainRun(MiniHdfs* fs, const SpillRun& run,
                std::vector<std::vector<std::string>>* segments) {
  segments->assign(run.segments.size(), {});
  for (size_t p = 0; p < run.segments.size(); ++p) {
    std::unique_ptr<SpillSegmentCursor> cursor;
    COLMR_RETURN_IF_ERROR(SpillSegmentCursor::Open(
        fs, run, static_cast<int>(p), ReadContext{}, &cursor));
    while (cursor->Next()) {
      (*segments)[p].push_back(EncodedRecord(cursor->key(), cursor->value()));
    }
    COLMR_RETURN_IF_ERROR(cursor->status());
  }
  return Status::OK();
}

TEST(SpillRunCorruptionTest, DamagedRunsFailOrReadBackExactly) {
  const int kPartitions = 3;
  for (CodecType codec : {CodecType::kNone, CodecType::kLzf,
                          CodecType::kZlite}) {
    SCOPED_TRACE("codec=" + std::to_string(static_cast<int>(codec)));
    auto fs = MakeFs();
    std::unique_ptr<SpillRunWriter> writer;
    ASSERT_TRUE(SpillRunWriter::Open(fs.get(), "/run", WriteContext{}, codec,
                                     kPartitions, &writer)
                    .ok());
    // Keys ascend within each partition; values mix kinds and lengths.
    std::vector<std::vector<std::string>> expected(kPartitions);
    for (int i = 0; i < 60; ++i) {
      char key_text[16];
      std::snprintf(key_text, sizeof(key_text), "key%03d", i);
      const Value key = Value::String(key_text);
      const Value value =
          i % 3 == 0 ? Value::Int64(int64_t{i} * 1000003)
          : i % 3 == 1 ? Value::String(std::string(static_cast<size_t>(i), 'v'))
                       : Value::Double(i + 0.25);
      ASSERT_TRUE(writer->Append(i / 20, key, value).ok());
      expected[static_cast<size_t>(i / 20)].push_back(
          EncodedRecord(key, value));
    }
    SpillRun run;
    ASSERT_TRUE(writer->Close(&run).ok());
    std::vector<std::vector<std::string>> drained;
    ASSERT_TRUE(DrainRun(fs.get(), run, &drained).ok());
    ASSERT_EQ(drained, expected);

    // Each damaged copy of the file is drained through `run`'s segment
    // table, as a reducer would.
    const std::string bytes = ReadFile(fs.get(), "/run");
    SpillRun damaged_run;
    damaged_run.path = "/damaged";
    damaged_run.codec = run.codec;
    damaged_run.segments = run.segments;
    auto check = [&](const std::string& damaged, const std::string& what) {
      std::unique_ptr<FileWriter> file;
      ASSERT_TRUE(fs->Create(damaged_run.path, &file).ok());
      file->Append(damaged);
      ASSERT_TRUE(file->Close().ok());
      std::vector<std::vector<std::string>> got;
      if (DrainRun(fs.get(), damaged_run, &got).ok()) {
        EXPECT_EQ(got, expected) << what << " read back different records";
      }
      ASSERT_TRUE(fs->Delete(damaged_run.path).ok());
    };
    for (size_t length = 0; length < bytes.size(); ++length) {
      check(bytes.substr(0, length), "truncation to " + std::to_string(length));
    }
    for (size_t i = 0; i < bytes.size(); ++i) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
      check(flipped, "flip of byte " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace colmr
