// Closed-loop MapReduce job benchmark. One client — this thread — submits
// the next job through JobRunner::Run only after the previous one
// returned; every job runs at engine parallelism 4 with no prefetch pool.
//
//   jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with plain objects and no
// trace collector. --trace 1 runs the same loop untraced (the overhead
// baseline), then traced at parallelism 4 and 1 with the probes of
// probes.h, and reports per-layer metrics. Every job's output is checked
// against the workload's reference; the last stdout line is one JSON
// object, and the exit code is non-zero on any mismatch or failure.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "mapreduce/engine.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "trace_stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace colmr;

constexpr int kParallelism = 4;
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 17;
constexpr double kSetupSampleSeconds = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The registry counters a job's metrics use. Job-scoped ones come from
/// the job's private registry; serde.* from a diff of the process-wide
/// registry (serde ignores JobConfig::metrics); hdfs.cache.* from the
/// registry the filesystem's cache was attached with.
enum Count : int {
  kReadBytes = 0,  // sum of the hdfs.read.bytes histogram
  kReadOps,
  kSeeks,
  kSplitsPruned,
  kRowgroupsPruned,
  kSkippedBytes,
  kFieldReads,
  kValuesRead,
  kSerdeBatchRows,
  kSerdeDecodeValues,
  kSerdeFallback,
  kCacheHits,
  kCacheMisses,
  kCacheEvictions,
  kNumCounts,
};

enum class Scope { kJob, kProcess, kCache };

struct CountSource {
  Scope scope;
  const char* name;
};

constexpr CountSource kCountSources[kNumCounts] = {
    {Scope::kJob, "hdfs.read.bytes"},
    {Scope::kJob, "hdfs.read.ops"},
    {Scope::kJob, "hdfs.seek.count"},
    {Scope::kJob, "cif.prune.splits"},
    {Scope::kJob, "cif.prune.rowgroups"},
    {Scope::kJob, "cif.scan.skipped_bytes"},
    {Scope::kJob, "cif.lazy.field_reads"},
    {Scope::kJob, "cif.scan.values_read"},
    {Scope::kProcess, "serde.batch.rows"},
    {Scope::kProcess, "serde.decode.values"},
    {Scope::kProcess, "serde.batch.fallback_values"},
    {Scope::kCache, "hdfs.cache.hits"},
    {Scope::kCache, "hdfs.cache.misses"},
    {Scope::kCache, "hdfs.cache.evictions"},
};

uint64_t Lookup(const MetricsSnapshot& s, const std::string& name) {
  auto counter = s.counters.find(name);
  if (counter != s.counters.end()) return counter->second;
  auto histogram = s.histograms.find(name);
  return histogram == s.histograms.end() ? 0 : histogram->second.sum;
}

/// Everything one job left behind for the metrics (its output is dropped
/// once checked, so a long loop keeps memory flat).
struct JobSample {
  bool ok = false;
  double wall_s = 0;
  uint64_t output_bytes = 0;
  JobReport report;
  std::array<uint64_t, kNumCounts> counts{};
  SpanSummary spans;
  ProbeTotals probes;

  double count(Count c) const { return static_cast<double>(counts[c]); }
};

struct LoopResult {
  std::vector<JobSample> jobs;
  double wall_s = 0;
  double cpu_s = 0;
};

class Bench {
 public:
  explicit Bench(Workload* workload) : workload_(workload) {}

  JobSample RunJob(uint64_t index, int parallelism, bool traced) {
    JobSample sample;
    Job job = workload_->MakeJob(index);
    MetricsRegistry job_metrics;
    job.config.parallelism = parallelism;
    job.config.prefetch_depth = 0;
    job.config.metrics = &job_metrics;
    std::unique_ptr<TraceCollector> collector;
    std::unique_ptr<Probes> probes;
    if (traced) {
      collector = std::make_unique<TraceCollector>();
      probes = std::make_unique<Probes>(collector.get());
      job.config.trace = collector.get();
      job.input_format = TraceInputFormat(job.input_format, probes.get());
      job.mapper = TraceMapper(std::move(job.mapper), probes.get(),
                               job.config.lazy_records);
      if (job.reducer) {
        job.reducer = TraceReducer(std::move(job.reducer), probes.get());
      }
    }
    const MetricsSnapshot process_before = MetricsRegistry::Default().Snapshot();
    const MetricsSnapshot cache_before = workload_->cache_metrics()->Snapshot();
    JobRunner runner(workload_->fs());
    Stopwatch watch;
    const Status status = runner.Run(job, &sample.report);
    sample.wall_s = watch.ElapsedSeconds();
    const MetricsSnapshot scopes[] = {
        job_metrics.Snapshot(),
        MetricsRegistry::Default().Snapshot().Diff(process_before),
        workload_->cache_metrics()->Snapshot().Diff(cache_before)};
    for (int c = 0; c < kNumCounts; ++c) {
      sample.counts[c] = Lookup(scopes[static_cast<int>(kCountSources[c].scope)],
                                kCountSources[c].name);
    }
    sample.ok = status.ok() && workload_->Check(index, sample.report);
    sample.report.output = {};
    if (!status.ok()) {
      std::fprintf(stderr, "job %llu failed: %s\n",
                   static_cast<unsigned long long>(index),
                   status.ToString().c_str());
    } else if (!sample.ok) {
      std::fprintf(stderr, "job %llu: output differs from the reference\n",
                   static_cast<unsigned long long>(index));
    }
    sample.output_bytes = workload_->OutputBytes(index);
    const Status cleanup = workload_->Cleanup(index);
    if (!cleanup.ok()) {
      std::fprintf(stderr, "cleanup of job %llu: %s\n",
                   static_cast<unsigned long long>(index),
                   cleanup.ToString().c_str());
      sample.ok = false;
    }
    if (traced) {
      sample.probes = probes->Sum();
      std::string error;
      if (!SummarizeTrace(collector->ToJson(), &sample.spans, &error)) {
        std::fprintf(stderr, "trace: %s\n", error.c_str());
        sample.ok = false;
      }
    }
    ++attempted_;
    if (!sample.ok) ++failed_;
    return sample;
  }

  /// Submits jobs back to back until `seconds` passed and the loop holds
  /// at least one full deck, appending to `loop`. Job indices continue
  /// from the loop's job count, so the first deck pass of every loop is
  /// the same sequence of jobs.
  void Loop(double seconds, int parallelism, bool traced, LoopResult* loop) {
    const uint64_t deck = workload_->Shape().deck;
    const double cpu_before = CpuSeconds();
    Stopwatch watch;
    for (uint64_t i = loop->jobs.size();
         watch.ElapsedSeconds() < seconds || i < deck; ++i) {
      loop->jobs.push_back(RunJob(i, parallelism, traced));
    }
    loop->wall_s += watch.ElapsedSeconds();
    loop->cpu_s += CpuSeconds() - cpu_before;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  Workload* workload_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void Write(JsonWriter* w) const {
    w->BeginObject("metrics");
    for (const Entry& e : entries_) {
      w->BeginObject(e.name);
      w->Field("value", std::isfinite(e.value) ? e.value : 0.0);
      w->Field("unit", e.unit);
      w->EndObject();
    }
    w->EndObject();
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-34s %14.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::vector<double> Walls(const LoopResult& loop) {
  std::vector<double> v;
  for (const JobSample& j : loop.jobs) v.push_back(j.wall_s);
  return v;
}

/// Per-job mean of f over the loop's first deck pass — the part of every
/// loop that is the same sequence of jobs, so counts repeat exactly.
template <typename F>
double DeckMean(const LoopResult& loop, uint64_t deck, F f) {
  const size_t n = std::min<size_t>(loop.jobs.size(), deck);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += f(loop.jobs[i]);
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

/// Per-job mean of f over the whole loop.
template <typename F>
double Mean(const LoopResult& loop, F f) {
  return DeckMean(loop, loop.jobs.size(), f);
}

double TaskCpu(const JobSample& j) {
  double cpu = 0;
  for (const TaskReport& t : j.report.map_tasks) cpu += t.cpu_seconds;
  return cpu;
}

double ReadMb(const JobSample& j) { return j.count(kReadBytes) / 1e6; }

/// Self seconds per layer for one traced job (see README.md, "Layer
/// attribution"). "wait" is the client thread parked on the worker pool
/// during the parallel phases and is left out of the shares.
std::map<std::string, double> Layers(const JobSample& j, bool cif) {
  const SpanSummary& s = j.spans;
  const ProbeTotals& p = j.probes;
  auto us = [](uint64_t v) { return static_cast<double>(v) * 1e-6; };
  auto ns = [](uint64_t v) { return static_cast<double>(v) * 1e-9; };
  // Decode and read spans directly under map_task sit in no bench span:
  // they can only come from lazy Record::Get calls, which are not spans.
  const double get_engine = us(s.Child("map_task", "cif_next_batch") +
                               s.Child("map_task", "hdfs.read"));
  const double map_task_other_engine =
      us(s.EngineChildren("map_task")) - get_engine;
  const double storage =
      us(s.Self("cif_next_batch")) +
      (ns(p.ns[kOpen]) - us(s.EngineChildren("bench.open"))) +
      (ns(p.ns[kFill]) - us(s.EngineChildren("bench.fill"))) +
      (ns(p.ns[kGet]) - get_engine);
  std::map<std::string, double> layers;
  layers["hdfs"] = us(s.Self("hdfs.read"));
  layers["cif"] = cif ? storage : 0;
  layers["formats"] = cif ? 0 : storage;
  layers["plan"] = us(s.Self("plan.splits")) +
                   (ns(p.ns[kPlan]) - us(s.EngineChildren("bench.plan")));
  layers["map.loop"] = us(s.Total("map_task")) - ns(p.ns[kOpen]) -
                       ns(p.ns[kFill]) - ns(p.ns[kMapFn]) -
                       map_task_other_engine;
  layers["map.fn"] = ns(p.ns[kMapFn]) - ns(p.ns[kGet]) - ns(p.ns[kEmit]);
  layers["map.emit"] =
      ns(p.ns[kEmit]) - us(s.EngineChildren("bench.emit"));
  layers["spill"] = us(s.Self("spill"));
  layers["merge"] = us(s.Self("merge"));
  layers["shuffle"] = us(s.Self("shuffle"));
  layers["reduce"] = us(s.Total("reduce_task")) -
                     us(s.EngineChildren("reduce_task")) -
                     ns(p.ns[kReduceFn]);
  layers["reduce.fn"] = ns(p.ns[kReduceFn]);
  layers["commit"] = us(s.Self("output.write")) + us(s.Self("task_commit")) +
                     us(s.Self("job_commit"));
  layers["slot_wait"] = us(s.Self("slot_wait"));
  layers["unattributed"] = us(s.Self("job"));
  for (auto& [name, v] : layers) v = std::max(0.0, v);
  return layers;
}

void EndToEnd(const LoopResult& loop, const WorkloadShape& shape,
              const std::vector<SetupStats>& setups, MetricSink* m) {
  std::vector<double> walls = Walls(loop);
  std::vector<double> sims, setup_s;
  for (const JobSample& j : loop.jobs) sims.push_back(j.report.total_seconds);
  for (const SetupStats& s : setups) setup_s.push_back(s.setup_seconds);
  const SetupStats& first = setups.front();
  m->Add("job_s_p50", Quantile(walls, 0.5), "s");
  m->Add("job_s_p90", Quantile(walls, 0.9), "s");
  m->Add("rows_per_s",
         static_cast<double>(shape.rows) * loop.jobs.size() / loop.wall_s,
         "rows/s");
  m->Add("cpu_s_per_job", loop.cpu_s / loop.jobs.size(), "s");
  m->Add("sim_job_s", Median(sims), "s");
  m->Add("read_mb_per_job", DeckMean(loop, shape.deck, ReadMb), "MB");
  m->Add("space_amp",
         static_cast<double>(first.stored_bytes) / first.user_bytes, "ratio");
  m->Add("setup_s", Median(setup_s), "s");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void PerLayer(const LoopResult& untraced, const LoopResult& traced,
              const LoopResult& serial, const WorkloadShape& shape,
              const SetupStats& setup, uint64_t attempted, uint64_t failed,
              MetricSink* m) {
  auto counter = [](Count c) {
    return [c](const JobSample& j) { return j.count(c); };
  };
  auto span_s = [](const char* name) {
    return [name](const JobSample& j) { return j.spans.Total(name) * 1e-6; };
  };
  auto probe_s = [](Probe p) {
    return [p](const JobSample& j) { return j.probes.ns[p] * 1e-9; };
  };
  const uint64_t deck = shape.deck;
  const bool cif = shape.format.rfind("cif", 0) == 0;
  const double cif_on = cif ? 1 : 0;

  // ---- hdfs
  m->Add("hdfs.read_mb", DeckMean(traced, deck, ReadMb), "MB");
  m->Add("hdfs.read_s", Mean(traced, span_s("hdfs.read")), "s");
  m->Add("hdfs.read_ops", DeckMean(traced, deck, counter(kReadOps)),
         "count");
  m->Add("hdfs.seeks", DeckMean(traced, deck, counter(kSeeks)),
         "count");
  double hits = 0, lookups = 0;
  for (const JobSample& j : traced.jobs) {
    hits += j.count(kCacheHits);
    lookups += j.count(kCacheHits) + j.count(kCacheMisses);
  }
  m->Add("hdfs.cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  m->Add("hdfs.cache.evictions", Mean(traced, [](const JobSample& j) {
           return j.count(kCacheEvictions);
         }),
         "count");
  m->Add("hdfs.write_mb", Mean(traced, [](const JobSample& j) {
           return (j.report.spill_bytes + j.output_bytes) / 1e6;
         }),
         "MB");
  m->Add("hdfs.failures", Mean(traced, [](const JobSample& j) {
           return static_cast<double>(j.report.checksum_failures +
                                      j.report.failover_reads +
                                      j.report.write_retries);
         }),
         "count");

  // ---- cif
  m->Add("cif.open_s", cif_on * Mean(traced, probe_s(kOpen)), "s");
  m->Add("cif.splits_pruned", DeckMean(traced, deck, counter(kSplitsPruned)),
         "count");
  m->Add("cif.rowgroups_pruned",
         DeckMean(traced, deck, counter(kRowgroupsPruned)), "count");
  const double skipped_mb =
      DeckMean(traced, deck, counter(kSkippedBytes)) / 1e6;
  const double read_mb = DeckMean(traced, deck, ReadMb);
  m->Add("cif.skipped_mb", skipped_mb, "MB");
  m->Add("cif.useful_read_frac",
         cif && read_mb > 0 ? 1.0 - skipped_mb / read_mb : 0, "ratio");
  m->Add("cif.fill_s", cif_on * Mean(traced, probe_s(kFill)), "s");
  m->Add("cif.lazy.get_s", cif_on * Mean(traced, probe_s(kGet)), "s");
  const double touched =
      DeckMean(traced, deck, counter(kFieldReads));
  m->Add("cif.lazy.decoded_per_touch",
         touched > 0
             ? DeckMean(traced, deck, counter(kValuesRead)) / touched
             : 0,
         "ratio");
  m->Add("cif.write_s", cif_on * setup.write_seconds, "s");
  m->Add("load_mb_per_s", setup.user_bytes / 1e6 / setup.write_seconds,
         "MB/s");

  // ---- serde (process-wide counters: serde ignores JobConfig::metrics)
  const double batch_rows = DeckMean(traced, deck, counter(kSerdeBatchRows));
  const double decoded =
      batch_rows + DeckMean(traced, deck, counter(kSerdeDecodeValues));
  m->Add("serde.batch_rows", batch_rows, "count");
  m->Add("serde.fallback_frac",
         decoded > 0 ? DeckMean(traced, deck,
                                counter(kSerdeFallback)) /
                           decoded
                     : 0,
         "ratio");

  // ---- compress, formats
  const double shuffle_mb = Mean(traced, [](const JobSample& j) {
    return j.report.shuffle_bytes / 1e6;
  });
  const double spill_mb = Mean(traced, [](const JobSample& j) {
    return j.report.spill_bytes / 1e6;
  });
  m->Add("compress.spill_ratio", shuffle_mb > 0 ? spill_mb / shuffle_mb : 0,
         "ratio");
  m->Add("formats.fill_s", (1 - cif_on) * Mean(traced, probe_s(kFill)), "s");

  // ---- mapreduce, map side
  m->Add("mapreduce.plan_s", Mean(traced, probe_s(kPlan)), "s");
  const double task_cpu = Mean(traced, TaskCpu);
  const double rows = static_cast<double>(shape.rows);
  const double serial_cpu_per_row = Mean(serial, TaskCpu) / rows;
  m->Add("mapreduce.map.task_cpu_s", task_cpu, "s");
  m->Add("mapreduce.map.cpu_per_row_us", task_cpu / rows * 1e6, "us");
  m->Add("mapreduce.map.cpu_inflation",
         serial_cpu_per_row > 0 ? task_cpu / rows / serial_cpu_per_row : 0,
         "ratio");
  const double map_phase_s = Mean(traced, span_s("map_phase"));
  m->Add("mapreduce.map.busy_frac",
         map_phase_s > 0 ? task_cpu / (map_phase_s * kParallelism) : 0,
         "ratio");
  m->Add("mapreduce.map.slot_wait_s", Mean(traced, span_s("slot_wait")), "s");

  std::vector<std::map<std::string, double>> per_job;
  for (const JobSample& j : traced.jobs) per_job.push_back(Layers(j, cif));
  auto layer = [&](const std::string& name) {
    double sum = 0;
    for (const auto& l : per_job) sum += l.at(name);
    return per_job.empty() ? 0 : sum / per_job.size();
  };
  m->Add("mapreduce.map.fn_s", layer("map.fn"), "s");
  m->Add("mapreduce.map.emit_s", layer("map.emit"), "s");

  // ---- mapreduce, shuffle / reduce / commit
  m->Add("mapreduce.shuffle_mb", shuffle_mb, "MB");
  m->Add("mapreduce.shuffle_s", Mean(traced, span_s("shuffle")), "s");
  m->Add("mapreduce.spill.count", DeckMean(traced, deck, [](const JobSample& j) {
           return static_cast<double>(j.report.spill_count);
         }),
         "count");
  m->Add("mapreduce.spill.mb", spill_mb, "MB");
  m->Add("mapreduce.spill_s", Mean(traced, span_s("spill")), "s");
  m->Add("mapreduce.merge.passes", DeckMean(traced, deck, [](const JobSample& j) {
           return static_cast<double>(j.report.merge_passes);
         }),
         "count");
  m->Add("mapreduce.merge_s", Mean(traced, span_s("merge")), "s");
  m->Add("mapreduce.spill.peak_buffer_mb", Mean(traced, [](const JobSample& j) {
           return j.report.peak_spill_buffer_bytes / 1e6;
         }),
         "MB");
  m->Add("mapreduce.reduce_s", Mean(traced, span_s("reduce_phase")), "s");
  m->Add("mapreduce.reduce.fn_s", layer("reduce.fn"), "s");
  m->Add("mapreduce.reduce.skew", Mean(traced, [](const JobSample& j) {
           const auto& in = j.report.reduce_input_records;
           if (in.empty()) return 0.0;
           double sum = 0, max = 0;
           for (uint64_t r : in) {
             sum += r;
             max = std::max(max, static_cast<double>(r));
           }
           return sum > 0 ? max / (sum / in.size()) : 0.0;
         }),
         "ratio");
  m->Add("mapreduce.commit_s", Mean(traced, [](const JobSample& j) {
           return (j.spans.Total("output.write") +
                   j.spans.Total("job_commit")) * 1e-6;
         }),
         "s");
  m->Add("mapreduce.task.retries", Mean(traced, [](const JobSample& j) {
           return static_cast<double>(j.report.task_retries);
         }),
         "count");

  // ---- tracing, shares, failures
  m->Add("trace.overhead_frac",
         Quantile(Walls(traced), 0.5) / Quantile(Walls(untraced), 0.5) - 1,
         "ratio");
  const std::vector<std::string> names = {
      "hdfs",    "cif",     "formats",   "plan",   "map.loop",
      "map.fn",  "map.emit", "spill",    "merge",  "shuffle",
      "reduce",  "reduce.fn", "commit",  "slot_wait", "unattributed"};
  double total = 0;
  for (const std::string& n : names) total += layer(n);
  for (const std::string& n : names) {
    m->Add("share." + n, total > 0 ? layer(n) / total : 0, "ratio");
  }
  m->Add("jobs.failed_frac",
         attempted > 0 ? static_cast<double>(failed) / attempted : 0, "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jobbench --workload <crawl-distinct|weblog-window|"
                 "wordcount-spill> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Set-up: generate + load + reference. The jobs run against the first
  // one; the end-to-end run repeats it on fresh workload instances between
  // segments of the timed loop, so the set-up samples see the same
  // machine conditions as the jobs.
  std::vector<SetupStats> setups;
  auto set_up = [&](Workload* target) {
    SetupStats stats;
    Stopwatch watch;
    const Status s = target->Setup(args.seed, &stats);
    stats.setup_seconds = watch.ElapsedSeconds();
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return false;
    }
    std::printf("setup %zu: %.3f s, writers %.3f s for %.1f MB\n",
                setups.size(), stats.setup_seconds, stats.write_seconds,
                stats.user_bytes / 1e6);
    setups.push_back(stats);
    return true;
  };
  if (!set_up(workload.get())) return 1;
  const WorkloadShape shape = workload->Shape();

  Bench bench(workload.get());
  // Warm-up: one deck pass (at least two jobs) fills the block cache and
  // the allocator; its samples are dropped.
  const uint64_t warmup = std::max<uint64_t>(2, shape.deck);
  for (uint64_t i = 0; i < warmup; ++i) bench.RunJob(i, kParallelism, false);

  MetricSink metrics;
  size_t timed_jobs = 0;
  if (!args.trace) {
    // At least kMinSetups samples, more for quick set-ups so that about
    // kSetupSampleSeconds of set-up is measured in every run.
    const int segments = std::clamp(
        static_cast<int>(kSetupSampleSeconds / setups.front().setup_seconds),
        kMinSetups - 1, kMaxSetups - 1);
    LoopResult loop;
    for (int segment = 0; segment < segments; ++segment) {
      bench.Loop(args.seconds / segments, kParallelism, false, &loop);
      if (!set_up(MakeWorkload(args.workload).get())) return 1;
    }
    EndToEnd(loop, shape, setups, &metrics);
    timed_jobs = loop.jobs.size();
  } else {
    LoopResult untraced, traced, serial;
    bench.Loop(args.seconds * 0.3, kParallelism, false, &untraced);
    bench.Loop(args.seconds * 0.45, kParallelism, true, &traced);
    bench.Loop(args.seconds * 0.25, 1, true, &serial);
    PerLayer(untraced, traced, serial, shape, setups.front(),
             bench.attempted(), bench.failed(), &metrics);
    timed_jobs = traced.jobs.size();
  }

  const bool correct = bench.failed() == 0;
  std::printf("workload %s seed %llu: %llu jobs, %llu failed, %llu warm-up "
              "dropped\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()),
              static_cast<unsigned long long>(warmup));
  metrics.Print();

  JsonWriter w;
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", bench.attempted());
  w.Field("failed", bench.failed());
  metrics.Write(&w);
  w.BeginObject("workload");
  w.Field("name", args.workload);
  w.Field("seed", args.seed);
  w.Field("format", shape.format);
  w.Field("rows", shape.rows);
  w.Field("files", shape.files);
  w.Field("stored_bytes", setups.front().stored_bytes);
  w.Field("user_bytes", setups.front().user_bytes);
  w.Field("cache_bytes", shape.cache_bytes);
  w.Field("sort_buffer_bytes", shape.sort_buffer_bytes);
  w.Field("spill_codec", shape.spill_codec);
  w.Field("deck", shape.deck);
  w.Field("parallelism", kParallelism);
  w.Field("warmup_jobs_dropped", warmup);
  w.Field("timed_jobs", static_cast<uint64_t>(timed_jobs));
  w.Field("setup_repeats", static_cast<uint64_t>(setups.size()));
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
