// Observability layer (DESIGN.md §8): metrics registry semantics and
// thread-safety, JSON emission/validation, trace span collection, the
// engine's span tree, reduce-side JobReport counters, the Figure 10
// acceptance check that CIF-SL skip counters track predicate selectivity,
// and exact scan counts from readers that tally locally.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cif/cif.h"
#include "cif/column_format.h"
#include "cif/cof.h"
#include "common/hash.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/engine.h"
#include "mapreduce/job.h"
#include "mapreduce/map_loop.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 64 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(5));
}

// ---- Metric primitives ----

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, TracksValueAndMax) {
  Gauge gauge;
  gauge.Set(3);
  EXPECT_EQ(gauge.Add(4), 7);
  EXPECT_EQ(gauge.Add(-5), 2);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max_value(), 7);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.max_value(), 0);
}

TEST(GaugeTest, ConcurrentAddsBalanceOut) {
  Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 10000; ++i) {
        gauge.Add(1);
        gauge.Add(-1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_GE(gauge.max_value(), 1);
  EXPECT_LE(gauge.max_value(), kThreads);
}

TEST(HistogramTest, BucketBoundsAndCounts) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 64);
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_LT(Histogram::BucketLower(b), Histogram::BucketUpper(b)) << b;
  }

  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(5);
  histogram.Observe(5);
  histogram.Observe(300);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 310u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(3), 2u);  // 5 in [4, 8)
  EXPECT_EQ(histogram.bucket(9), 1u);  // 300 in [256, 512)
}

TEST(HistogramTest, QuantileLandsInContainingBucket) {
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("h");
  // 1..1000 uniformly: the true median 500 lives in bucket [256, 512).
  for (uint64_t v = 1; v <= 1000; ++v) histogram->Observe(v);
  MetricsSnapshot snapshot = registry.Snapshot();
  const auto& data = snapshot.histograms.at("h");
  const double p50 = data.Quantile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  const double p99 = data.Quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  // Quantiles are monotone in q.
  EXPECT_LE(data.Quantile(0.1), data.Quantile(0.9));
}

TEST(MetricsRegistryTest, LookupReturnsSameObject) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x.y.z");
  Counter* b = registry.counter("x.y.z");
  EXPECT_EQ(a, b);
  // Separate namespaces per metric kind.
  EXPECT_NE(static_cast<void*>(registry.gauge("x.y.z")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, ConcurrentLookupAndIncrement) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 5000; ++i) {
        registry.counter("shared")->Increment();
        registry.histogram("lat")->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("shared"), uint64_t{kThreads} * 5000);
  EXPECT_EQ(snapshot.histograms.at("lat").count(), uint64_t{kThreads} * 5000);
}

TEST(MetricsSnapshotTest, DiffSubtractsAndSurvivesReset) {
  MetricsRegistry registry;
  registry.counter("c")->Increment(10);
  registry.gauge("g")->Set(5);
  registry.histogram("h")->Observe(100);
  MetricsSnapshot before = registry.Snapshot();

  registry.counter("c")->Increment(7);
  registry.gauge("g")->Set(2);
  registry.histogram("h")->Observe(100);
  registry.histogram("h")->Observe(200);
  MetricsSnapshot diff = registry.Snapshot().Diff(before);
  EXPECT_EQ(diff.counters.at("c"), 7u);
  // Gauges are levels, not accumulations: diff keeps the current value.
  EXPECT_EQ(diff.gauges.at("g").value, 2);
  EXPECT_EQ(diff.histograms.at("h").count(), 2u);

  // A reset between snapshots must not produce underflowed garbage.
  registry.Reset();
  registry.counter("c")->Increment(3);
  MetricsSnapshot after_reset = registry.Snapshot().Diff(before);
  EXPECT_EQ(after_reset.counters.at("c"), 3u);
}

TEST(MetricsSnapshotTest, NonZeroDropsIdleMetrics) {
  MetricsRegistry registry;
  registry.counter("live")->Increment();
  registry.counter("idle");
  registry.histogram("empty");
  MetricsSnapshot snapshot = registry.Snapshot().NonZero();
  EXPECT_EQ(snapshot.counters.count("live"), 1u);
  EXPECT_EQ(snapshot.counters.count("idle"), 0u);
  EXPECT_EQ(snapshot.histograms.count("empty"), 0u);
}

TEST(MetricsSnapshotTest, TextAndJsonRender) {
  MetricsRegistry registry;
  registry.counter("hdfs.read.ops")->Increment(3);
  registry.gauge("mr.slots.active")->Set(2);
  registry.histogram("hdfs.read.bytes")->Observe(4096);
  MetricsSnapshot snapshot = registry.Snapshot();

  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("hdfs.read.ops 3"), std::string::npos);

  const std::string json = snapshot.ToJson();
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"hdfs.read.ops\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---- JSON writer and validator ----

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Field("quote\"back\\slash", "tab\there\nnewline");
  w.Field("control", std::string_view("\x01\x1f", 2));
  w.BeginArray("values");
  w.Element(uint64_t{42});
  w.Element("plain");
  w.Element(1.5);
  w.EndArray();
  w.BeginObject("nested");
  w.Field("flag", true);
  w.FieldRaw("raw", "[1,2,3]");
  w.EndObject();
  w.EndObject();

  std::string error;
  EXPECT_TRUE(ValidateJson(w.str(), &error)) << error << "\n" << w.str();
  EXPECT_NE(w.str().find("\\u0001"), std::string::npos);
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\"raw\":[1,2,3]"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject();
  w.Field("nan", std::nan(""));
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"nan\":null}");
}

TEST(ValidateJsonTest, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(ValidateJson("{}"));
  EXPECT_TRUE(ValidateJson("  [1, 2.5, -3e8, \"x\", null, true] "));
  EXPECT_TRUE(ValidateJson("{\"a\":{\"b\":[{\"c\":\"\\u0041\\n\"}]}}"));
}

TEST(ValidateJsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            // empty
      "{",           // unbalanced
      "{\"a\":1,}",  // trailing comma
      "{a: 1}",      // unquoted key
      "[1 2]",       // missing comma
      "\"\\x41\"",   // bad escape
      "NaN",         // not a JSON literal
      "{} trailing", // garbage after the value
      "[01]",        // leading zero
  };
  for (const char* doc : bad) {
    std::string error;
    EXPECT_FALSE(ValidateJson(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

// ---- Trace collection ----

struct ParsedEvent {
  std::string name;
  std::string cat;
  char phase = '?';
  uint64_t ts = 0;
  uint64_t dur = 0;
  int tid = 0;

  uint64_t end() const { return ts + dur; }
  bool Contains(const ParsedEvent& other) const {
    return ts <= other.ts && other.end() <= end();
  }
};

// Extracts events from the known trace_event layout; enough structure for
// assertions without a DOM parser (ValidateJson covers well-formedness).
std::vector<ParsedEvent> ParseTrace(const std::string& json) {
  std::vector<ParsedEvent> events;
  const std::string marker = "{\"name\":\"";
  size_t pos = json.find(marker);
  while (pos != std::string::npos) {
    const size_t next = json.find(marker, pos + 1);
    const std::string event = json.substr(
        pos, (next == std::string::npos ? json.size() : next) - pos);
    ParsedEvent parsed;
    auto string_field = [&event](const std::string& key) -> std::string {
      const std::string prefix = "\"" + key + "\":\"";
      const size_t at = event.find(prefix);
      if (at == std::string::npos) return "";
      const size_t start = at + prefix.size();
      return event.substr(start, event.find('"', start) - start);
    };
    auto number_field = [&event](const std::string& key) -> uint64_t {
      const std::string prefix = "\"" + key + "\":";
      const size_t at = event.find(prefix);
      if (at == std::string::npos) return 0;
      return std::strtoull(event.c_str() + at + prefix.size(), nullptr, 10);
    };
    parsed.name = string_field("name");
    parsed.cat = string_field("cat");
    const std::string phase = string_field("ph");
    parsed.phase = phase.empty() ? '?' : phase[0];
    parsed.ts = number_field("ts");
    parsed.dur = number_field("dur");
    parsed.tid = static_cast<int>(number_field("tid"));
    events.push_back(std::move(parsed));
    pos = next;
  }
  return events;
}

TEST(TraceCollectorTest, EmitsValidChromeTraceJson) {
  TraceCollector collector;
  {
    ScopedSpan outer(&collector, "outer", "test");
    outer.AddArg("path", "/a \"quoted\" path");
    outer.AddArg("bytes", uint64_t{123});
    { ScopedSpan inner(&collector, "inner", "test"); }
    TraceInstant(&collector, "marker", "test",
                 {{"why", TraceCollector::JsonValue("because")}});
  }
  EXPECT_EQ(collector.event_count(), 3u);

  const std::string json = collector.ToJson();
  std::string error;
  ASSERT_TRUE(ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  std::vector<ParsedEvent> events = ParseTrace(json);
  ASSERT_EQ(events.size(), 3u);
  // Spans emit at close: inner, marker (instant), then outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "marker");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].phase, 'X');
  EXPECT_TRUE(events[2].Contains(events[0]));
  EXPECT_GE(events[2].dur, 1u);  // zero-length spans clamp to 1us
}

TEST(TraceCollectorTest, NullCollectorIsNoop) {
  ScopedSpan span(nullptr, "ghost");
  EXPECT_FALSE(span.active());
  span.AddArg("ignored", 1);
  TraceInstant(nullptr, "ghost", "test");
}

TEST(TraceCollectorTest, WriteFileRoundTrips) {
  TraceCollector collector;
  { ScopedSpan span(&collector, "span", "test"); }

  std::string path = ::testing::TempDir() + "/colmr_trace_test.json";
  ASSERT_TRUE(collector.WriteFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(ValidateJson(contents));
  EXPECT_NE(contents.find("\"span\""), std::string::npos);

  EXPECT_FALSE(collector.WriteFile("/nonexistent-dir/trace.json").ok());
}

// ---- Engine integration ----

// A small CIF dataset plus the standard filter-and-count job over it.
std::unique_ptr<MiniHdfs> WriteMicroDataset(uint64_t records,
                                            double hit_fraction,
                                            bool skip_lists) {
  auto fs = MakeFs();
  CofOptions options;
  options.split_target_bytes = 256 * 1024;
  if (skip_lists) {
    options.default_column.layout = ColumnLayout::kSkipList;
    options.column_overrides["str0"] = ColumnOptions{};  // always read
  }
  std::unique_ptr<CofWriter> writer;
  EXPECT_TRUE(CofWriter::Open(fs.get(), "/data", MicrobenchSchema(), options,
                              &writer)
                  .ok());
  MicrobenchGenerator gen(77, hit_fraction);
  for (uint64_t i = 0; i < records; ++i) {
    EXPECT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  return fs;
}

Job MicroScanJob() {
  Job job;
  job.config.input_paths = {"/data"};
  job.config.projection = {"str0", "int0"};
  job.config.parallelism = 1;
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    const int32_t key = record.GetOrDie("int0").int32_value() % 4;
    out->Emit(Value::Int32(key), Value::Int32(1));
  };
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* out) {
    out->Emit(key, Value::Int32(static_cast<int32_t>(values.size())));
  };
  return job;
}

TEST(EngineObservabilityTest, ReduceSideReportCounters) {
  auto fs = WriteMicroDataset(1200, 0.0, false);
  MetricsRegistry registry;
  Job job = MicroScanJob();
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());

  EXPECT_GT(report.map_output_bytes, 0u);
  EXPECT_EQ(report.shuffle_bytes, report.map_output_bytes);
  uint64_t reduce_inputs = 0;
  for (uint64_t n : report.reduce_input_records) reduce_inputs += n;
  EXPECT_EQ(reduce_inputs, report.map_output_records);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("mr.reduce.input_records"), reduce_inputs);
  EXPECT_EQ(snapshot.counters.at("mr.shuffle.bytes"), report.shuffle_bytes);
  EXPECT_EQ(snapshot.counters.at("mr.map.input_records"),
            report.map_input_records);
}

TEST(EngineObservabilityTest, PrivateRegistryIsolatesJobCounters) {
  auto fs = WriteMicroDataset(600, 0.0, false);
  MetricsSnapshot default_before = MetricsRegistry::Default().Snapshot();

  MetricsRegistry registry;
  Job job = MicroScanJob();
  job.config.metrics = &registry;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());

  EXPECT_EQ(registry.Snapshot().counters.at("mr.job.runs"), 1u);
  EXPECT_GT(registry.Snapshot().counters.at("hdfs.read.ops"), 0u);
  // The job-scoped layers (mr/hdfs/cif) must not leak into the default
  // registry. (serde + placement counters stay process-global by design.)
  MetricsSnapshot default_diff =
      MetricsRegistry::Default().Snapshot().Diff(default_before);
  EXPECT_EQ(default_diff.counters["mr.job.runs"], 0u);
  EXPECT_EQ(default_diff.counters["hdfs.read.ops"], 0u);
}

std::string RunTracedJob(MiniHdfs* fs, const std::string& output_path,
                         uint64_t sort_buffer_bytes,
                         std::vector<ParsedEvent>* events) {
  TraceCollector collector;
  Job job = MicroScanJob();
  job.config.output_path = output_path;  // exercises the output.write span
  job.config.sort_buffer_bytes = sort_buffer_bytes;
  job.config.trace = &collector;
  JobRunner runner(fs);
  JobReport report;
  EXPECT_TRUE(runner.Run(job, &report).ok());
  const std::string json = collector.ToJson();
  *events = ParseTrace(json);
  return json;
}

// Runs the job with an unbounded sort buffer (resident runs) and a small
// bounded one (spills and merge passes): the one shuffle path gives both
// the same span tree.
TEST(EngineObservabilityTest, SpansNestAndAreDeterministicAtParallelism1) {
  auto fs = WriteMicroDataset(1200, 0.0, false);
  for (const uint64_t sort_buffer : {uint64_t{0}, uint64_t{256}}) {
    SCOPED_TRACE(sort_buffer);
    const std::string tag = std::to_string(sort_buffer);
    std::vector<ParsedEvent> first, second;
    const std::string json =
        RunTracedJob(fs.get(), "/out1-" + tag, sort_buffer, &first);
    RunTracedJob(fs.get(), "/out2-" + tag, sort_buffer, &second);

    std::string error;
    ASSERT_TRUE(ValidateJson(json, &error)) << error;

    // Determinism: identical span-name sequences across identical runs.
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].name, second[i].name) << "event " << i;
      EXPECT_EQ(first[i].tid, second[i].tid) << "event " << i;
    }
    // Serial execution stays on one track.
    for (const ParsedEvent& event : first) EXPECT_EQ(event.tid, 1);

    auto find = [&first](const std::string& name) -> const ParsedEvent* {
      for (const ParsedEvent& event : first) {
        if (event.name == name) return &event;
      }
      return nullptr;
    };
    const ParsedEvent* job_span = find("job");
    const ParsedEvent* plan = find("plan.splits");
    const ParsedEvent* map_phase = find("map_phase");
    const ParsedEvent* map_task = find("map_task");
    const ParsedEvent* hdfs_read = find("hdfs.read");
    const ParsedEvent* shuffle = find("shuffle");
    const ParsedEvent* reduce_phase = find("reduce_phase");
    const ParsedEvent* reduce_task = find("reduce_task");
    const ParsedEvent* output_write = find("output.write");
    ASSERT_NE(job_span, nullptr);
    ASSERT_NE(plan, nullptr);
    ASSERT_NE(map_phase, nullptr);
    ASSERT_NE(map_task, nullptr);
    ASSERT_NE(hdfs_read, nullptr);
    ASSERT_NE(shuffle, nullptr);
    ASSERT_NE(reduce_phase, nullptr);
    ASSERT_NE(reduce_task, nullptr);
    ASSERT_NE(output_write, nullptr);

    // The span tree: job ⊇ {plan.splits, map_phase ⊇ map_task, shuffle,
    // reduce_phase ⊇ reduce_task, output.write}.
    EXPECT_TRUE(job_span->Contains(*plan));
    EXPECT_TRUE(job_span->Contains(*map_phase));
    EXPECT_TRUE(map_phase->Contains(*map_task));
    EXPECT_TRUE(job_span->Contains(*shuffle));
    EXPECT_TRUE(job_span->Contains(*reduce_phase));
    EXPECT_TRUE(reduce_phase->Contains(*reduce_task));
    EXPECT_TRUE(job_span->Contains(*output_write));
    EXPECT_EQ(hdfs_read->cat, "hdfs");
    // Some hdfs.read lands inside a map task (the column scan itself).
    bool read_in_task = false;
    for (const ParsedEvent& event : first) {
      if (event.name != "hdfs.read") continue;
      for (const ParsedEvent& task : first) {
        if (task.name == "map_task" && task.Contains(event)) {
          read_in_task = true;
        }
      }
    }
    EXPECT_TRUE(read_in_task);

    // Only the bounded buffer spills (inside its map task) and takes merge
    // passes, which run inside the shuffle span.
    const ParsedEvent* spill = find("spill");
    const ParsedEvent* merge = find("merge");
    if (sort_buffer == 0) {
      EXPECT_EQ(spill, nullptr);
      EXPECT_EQ(merge, nullptr);
    } else {
      ASSERT_NE(spill, nullptr);
      ASSERT_NE(merge, nullptr);
      EXPECT_TRUE(map_task->Contains(*spill));
      EXPECT_TRUE(shuffle->Contains(*merge));
    }
  }
}

TEST(EngineObservabilityTest, TracePathWritesLoadableFile) {
  auto fs = WriteMicroDataset(600, 0.0, false);
  const std::string path = ::testing::TempDir() + "/colmr_job_trace.json";
  Job job = MicroScanJob();
  job.config.trace_path = path;
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 20, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(ValidateJson(contents));
  EXPECT_NE(contents.find("\"job\""), std::string::npos);
  EXPECT_NE(contents.find("\"map_task\""), std::string::npos);
}

// ---- Figure 10 acceptance: skip counters track selectivity ----

struct SkipCounters {
  uint64_t skip_blocks = 0;
  uint64_t skipped_bytes = 0;
  uint64_t records = 0;
  uint64_t map_touches = 0;  // rows whose map0 the map function read
  uint64_t map_decoded = 0;  // map0 values decoded
};

// Scans a CIF-SL dataset with lazy records, touching the map column only
// for matching records — the Fig. 10 access pattern — against a private
// registry so runs stay isolated. batch_rows sizes the map loop's batches:
// 1 drives one-row batches, larger values bulk ones.
SkipCounters ScanSelective(MiniHdfs* fs, uint64_t batch_rows) {
  MetricsRegistry registry;
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/data"};
  config.projection = {"str0", "map0"};
  config.lazy_records = true;
  std::vector<InputSplit> splits;
  EXPECT_TRUE(format.GetSplits(fs, config, &splits).ok());
  SkipCounters result;
  IoStats io;
  uint64_t rows = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    EXPECT_TRUE(format
                    .CreateRecordReader(fs, config, split,
                                        ReadContext{kAnyNode, &io, 0,
                                                    &registry, nullptr},
                                        &reader)
                    .ok());
    EXPECT_TRUE(ForEachMappedRecord(
                    reader.get(), batch_rows, nullptr,
                    [] { return Status::OK(); },
                    [&](Record& record) {
                      const std::string& s =
                          record.GetOrDie("str0").string_value();
                      if (s.rfind(kMicrobenchMatchPrefix, 0) == 0) {
                        result.records +=
                            record.GetOrDie("map0").map_entries().size();
                        ++result.map_touches;
                      }
                    },
                    &rows)
                    .ok());
    EXPECT_TRUE(reader->status().ok());
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  result.skip_blocks = snapshot.counters["cif.scan.skip_blocks"];
  result.skipped_bytes = snapshot.counters["cif.scan.skipped_bytes"];
  // str0 is decoded on every row; the rest of values_read is map0.
  result.map_decoded = snapshot.counters["cif.scan.values_read"] - rows;
  return result;
}

TEST(Fig10CountersTest, SkipCountersFallMonotonicallyWithSelectivity) {
  // As the match fraction rises, fewer rows of the map column can be
  // skipped, so both Figure 10 counters must fall monotonically. In either
  // map loop the map column decodes at most twice the rows the map
  // function touches, plus one: a batch window must not decode rows the
  // map function never reads.
  const double selectivities[] = {0.01, 0.2, 0.9};
  for (uint64_t batch_rows : {uint64_t{1}, uint64_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    SkipCounters results[3];
    for (int i = 0; i < 3; ++i) {
      auto fs = WriteMicroDataset(6000, selectivities[i], true);
      results[i] = ScanSelective(fs.get(), batch_rows);
      EXPECT_GT(results[i].map_touches, 0u) << selectivities[i];
      EXPECT_LE(results[i].map_decoded, 2 * results[i].map_touches + 1)
          << selectivities[i];
    }

    EXPECT_GT(results[0].skip_blocks, 0u);
    EXPECT_GT(results[0].skipped_bytes, 0u);
    EXPECT_GE(results[0].skip_blocks, results[1].skip_blocks);
    EXPECT_GE(results[1].skip_blocks, results[2].skip_blocks);
    EXPECT_GT(results[0].skip_blocks, results[2].skip_blocks);
    EXPECT_GE(results[0].skipped_bytes, results[1].skipped_bytes);
    EXPECT_GE(results[1].skipped_bytes, results[2].skipped_bytes);
    EXPECT_GT(results[0].skipped_bytes, results[2].skipped_bytes);
  }
}

// ---- Scan counters stay exact when readers tally locally ----

// The tally dataset: `id` is the row number and the map function reads it
// on every row; it touches `tag` (skip-list strings) and `attrs` (a DCSL
// map of 0-4 entries) sparsely and never on two adjacent rows, so each
// touch decodes exactly one value.
constexpr uint64_t kTallyRows = 6000;

bool TouchesTag(uint64_t id) {
  return id % 2 == 0 && SplitMix64(id) % 100 < 20;
}
bool TouchesAttrs(uint64_t id) {
  return id % 2 == 1 && SplitMix64(id ^ 0x5eed) % 100 < 4;
}
uint64_t AttrEntries(uint64_t id) { return id % 5; }
// Wide attrs: 10-14 entries of 45-byte values, so a map's bytes often
// straddle the edge of the window its segment decodes from.
uint64_t WideAttrEntries(uint64_t id) { return 10 + id % 5; }

std::unique_ptr<MiniHdfs> WriteTallyDataset(bool wide_attrs = false) {
  auto fs = MakeFs();
  CofOptions options;
  options.split_target_bytes = 48 * 1024;
  options.default_column.layout = ColumnLayout::kSkipList;
  options.column_overrides["id"] = ColumnOptions{};
  options.column_overrides["attrs"] = {ColumnLayout::kDictSkipList,
                                       CodecType::kNone, 0};
  Schema::Ptr schema = Schema::Record(
      "Tally", {{"id", Schema::Int64()},
                {"tag", Schema::String()},
                {"attrs", Schema::Map(Schema::String())}});
  std::unique_ptr<CofWriter> writer;
  EXPECT_TRUE(CofWriter::Open(fs.get(), "/tally", schema, options, &writer)
                  .ok());
  for (uint64_t id = 0; id < kTallyRows; ++id) {
    Value::MapEntries entries;
    std::string value = "value-" + std::to_string(id);
    if (wide_attrs) value.resize(45, '.');
    const uint64_t n_entries =
        wide_attrs ? WideAttrEntries(id) : AttrEntries(id);
    for (uint64_t e = 0; e < n_entries; ++e) {
      entries.emplace_back("key" + std::to_string(e), Value::String(value));
    }
    EXPECT_TRUE(writer
                    ->WriteRecord(Value::Record(
                        {Value::Int64(static_cast<int64_t>(id)),
                         Value::String("tag-" + std::to_string(id * 7)),
                         Value::Map(std::move(entries))}))
                    .ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  return fs;
}

// The ids of each split, in row order, from an eager scan of `id`.
std::vector<std::vector<uint64_t>> SplitIds(MiniHdfs* fs) {
  MetricsRegistry registry;
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/tally"};
  config.projection = {"id"};
  std::vector<InputSplit> splits;
  EXPECT_TRUE(format.GetSplits(fs, config, &splits).ok());
  std::vector<std::vector<uint64_t>> ids(splits.size());
  IoStats io;
  for (size_t i = 0; i < splits.size(); ++i) {
    std::unique_ptr<RecordReader> reader;
    EXPECT_TRUE(format
                    .CreateRecordReader(fs, config, splits[i],
                                        ReadContext{kAnyNode, &io, 0,
                                                    &registry, nullptr},
                                        &reader)
                    .ok());
    uint64_t rows = 0;
    EXPECT_TRUE(ForEachMappedRecord(
                    reader.get(), 1024, nullptr, [] { return Status::OK(); },
                    [&](Record& record) {
                      ids[i].push_back(static_cast<uint64_t>(
                          record.GetOrDie("id").int64_value()));
                    },
                    &rows)
                    .ok());
  }
  return ids;
}

struct TallyCounts {
  uint64_t values_skipped = 0;
  uint64_t values_read = 0;
  uint64_t field_reads = 0;
  uint64_t serde_skipped = 0;
  uint64_t serde_decoded = 0;
};

// What the lazy scan must count, from the data and the touches alone.
// Between two touches of a column, SkipRows crosses the untouched rows
// with 1000-, 100- and 10-row skip blocks where a block starts at a
// multiple of its size and ends inside the file, and walks the others
// one value at a time: a walked `tag` value is one serde skip, a walked
// `attrs` value one per map entry. A touch decodes one value, and an
// `attrs` touch decodes each of its entries.
TallyCounts ExpectedTallies(const std::vector<std::vector<uint64_t>>& ids) {
  TallyCounts expected;
  for (const std::vector<uint64_t>& split : ids) {
    const uint64_t rows = split.size();
    expected.values_read += rows;  // id, on every row
    expected.field_reads += rows;
    for (const bool attrs : {false, true}) {
      uint64_t row = 0;
      for (uint64_t touch = 0; touch < rows; ++touch) {
        const uint64_t id = split[touch];
        if (!(attrs ? TouchesAttrs(id) : TouchesTag(id))) continue;
        while (row < touch) {
          uint64_t block = 1;
          for (uint64_t size : {kCifSkip2, kCifSkip1, kCifSkip0}) {
            if (touch - row >= size && row % size == 0 && row + size <= rows) {
              block = size;
              break;
            }
          }
          if (block == 1) {
            ++expected.values_skipped;
            expected.serde_skipped += attrs ? AttrEntries(split[row]) : 1;
          }
          row += block;
        }
        ++expected.values_read;
        ++expected.field_reads;
        if (attrs) expected.serde_decoded += AttrEntries(id);
        row = touch + 1;
      }
    }
  }
  return expected;
}

TEST(ScanTallyTest, CountersAreExactAtEveryParallelism) {
  // Per-value scan counts go to plain per-reader tallies that are
  // published per SkipRows / NextBatch call, per batch window and when
  // the record is destroyed: once Run returns, every count must be there,
  // whatever the parallelism or window size. An eager scan decodes every
  // projected value exactly once and skips none, so Table 1's and
  // Fig. 10's "CIF" arm stays eager.
  auto fs = WriteTallyDataset();
  const std::vector<std::vector<uint64_t>> ids = SplitIds(fs.get());
  ASSERT_GT(ids.size(), 2u);
  const TallyCounts expected = ExpectedTallies(ids);
  ASSERT_GT(expected.values_skipped, 0u);
  ASSERT_GT(expected.serde_decoded, 0u);

  for (const bool lazy : {false, true}) {
    for (int parallelism : {1, 4}) {
      for (uint64_t batch_rows : {uint64_t{7}, uint64_t{1024}}) {
        SCOPED_TRACE(std::string(lazy ? "lazy" : "eager") +
                     " parallelism=" + std::to_string(parallelism) +
                     " batch_rows=" + std::to_string(batch_rows));
        MetricsRegistry registry;
        Job job;
        job.config.input_paths = {"/tally"};
        job.config.projection = {"id", "tag", "attrs"};
        job.config.lazy_records = lazy;
        job.config.parallelism = parallelism;
        job.config.batch_rows = batch_rows;
        job.config.metrics = &registry;
        job.input_format = std::make_shared<ColumnInputFormat>();
        job.mapper = [](Record& record, Emitter* out) {
          const uint64_t id =
              static_cast<uint64_t>(record.GetOrDie("id").int64_value());
          if (TouchesTag(id)) record.GetOrDie("tag");
          if (TouchesAttrs(id)) {
            const int64_t entries = static_cast<int64_t>(
                record.GetOrDie("attrs").map_entries().size());
            out->Emit(Value::Int32(0), Value::Int64(entries));
          }
        };
        job.reducer = [](const Value& key, const std::vector<Value>& values,
                         Emitter* out) {
          int64_t sum = 0;
          for (const Value& v : values) sum += v.int64_value();
          out->Emit(key, Value::Int64(sum));
        };
        const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
        JobRunner runner(fs.get());
        JobReport report;
        ASSERT_TRUE(runner.Run(job, &report).ok());
        MetricsSnapshot serde =
            MetricsRegistry::Default().Snapshot().Diff(before);
        MetricsSnapshot scan = registry.Snapshot();

        EXPECT_EQ(report.map_input_records, kTallyRows);
        ASSERT_EQ(report.output.size(), 1u);
        EXPECT_EQ(
            static_cast<uint64_t>(report.output[0].second.int64_value()),
            expected.serde_decoded);
        EXPECT_EQ(scan.counters["cif.lazy.field_reads"],
                  expected.field_reads);
        if (lazy) {
          EXPECT_EQ(scan.counters["cif.scan.values_skipped"],
                    expected.values_skipped);
          EXPECT_EQ(scan.counters["cif.scan.values_read"],
                    expected.values_read);
          EXPECT_EQ(serde.counters["serde.skip.values"],
                    expected.serde_skipped);
          EXPECT_EQ(serde.counters["serde.decode.values"],
                    expected.serde_decoded);
        } else {
          EXPECT_EQ(scan.counters["cif.scan.values_skipped"], 0u);
          EXPECT_EQ(scan.counters["cif.scan.values_read"],
                    kTallyRows * job.config.projection.size());
          EXPECT_EQ(serde.counters["serde.skip.values"], 0u);
        }
      }
    }
  }
}

// An eager scan decodes each DCSL segment from one window, and a map
// straddling the window's edge is decoded again once the window grows:
// its entries must still count once in serde.decode.values. `id` and
// `tag` decode into typed lanes, which count no values.
TEST(ScanTallyTest, EagerDcslCountsEachEntryOnce) {
  auto fs = WriteTallyDataset(/*wide_attrs=*/true);
  uint64_t entries = 0;
  for (uint64_t id = 0; id < kTallyRows; ++id) entries += WideAttrEntries(id);
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    Job job;
    job.config.input_paths = {"/tally"};
    job.config.projection = {"id", "tag", "attrs"};
    job.config.lazy_records = false;
    job.config.parallelism = parallelism;
    job.config.batch_rows = 1024;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      out->Emit(Value::Int32(0),
                Value::Int64(static_cast<int64_t>(
                    record.GetOrDie("attrs").map_entries().size())));
    };
    job.reducer = [](const Value& key, const std::vector<Value>& values,
                     Emitter* out) {
      int64_t sum = 0;
      for (const Value& v : values) sum += v.int64_value();
      out->Emit(key, Value::Int64(sum));
    };
    const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
    JobRunner runner(fs.get());
    JobReport report;
    ASSERT_TRUE(runner.Run(job, &report).ok());
    MetricsSnapshot serde = MetricsRegistry::Default().Snapshot().Diff(before);
    ASSERT_EQ(report.output.size(), 1u);
    EXPECT_EQ(
        static_cast<uint64_t>(report.output[0].second.int64_value()),
        entries);
    EXPECT_EQ(serde.counters["serde.decode.values"], entries);
  }
}

}  // namespace
}  // namespace colmr
