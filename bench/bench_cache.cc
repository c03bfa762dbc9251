// Block cache benchmark (DESIGN.md §9): the Table-1-style
// projected CIF scan — find content-types of pages whose URL matches —
// run repeatedly over the same dataset, cache off vs on. The first cached
// run pays the verifying read path and warms the cache; subsequent runs
// serve every block from memory: no replica selection, no fault draws, no
// CRC verification and no byte charge, which is the re-scan speedup a
// real Hadoop cluster gets from the OS page cache on hot data. Reads are
// views of block bytes with the cache off too, so the verifying path is
// all a hit saves.
//
// Expected shape: warm-cache wall time about 1.2x faster than the
// uncached scan (1.16-1.25x over 3 runs at scale 1 on a 4-vCPU VM), with
// hdfs.cache.hits nonzero and bytes_read 0.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cif.h"
#include "cif/cof.h"
#include "mapreduce/engine.h"
#include "workload/crawl.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseRecords = 30000;  // ~100 MB heavy-content crawl
constexpr uint64_t kSeed = bench::kDatasetSeed;
constexpr int kReps = 3;

Job ScanJob() {
  Job job;
  job.config.input_paths = {"/data"};
  job.config.projection = {"url", "metadata"};
  job.config.lazy_records = true;
  job.config.parallelism = 1;  // isolate per-byte read cost from threading
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    const std::string& url = record.GetOrDie("url").string_value();
    if (url.find(kCrawlFilterPattern) != std::string::npos) {
      const Value* ct =
          record.GetOrDie("metadata").FindMapEntry(kContentTypeKey);
      if (ct != nullptr) {
        out->Emit(Value::String(ct->string_value()), Value::Null());
      }
    }
  };
  job.reducer = [](const Value& key, const std::vector<Value>&, Emitter* out) {
    out->Emit(key, Value::Null());
  };
  return job;
}

struct RunRow {
  double wall_seconds = 0;
  uint64_t bytes_read = 0;
  uint64_t output_records = 0;
};

RunRow RunOnce(JobRunner* runner, const Job& job) {
  JobReport report;
  Die(runner->Run(job, &report), "run");
  return {report.wall_seconds, report.BytesRead(),
          report.reduce_output_records};
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t records = bench::ScaledCount(kBaseRecords);
  std::fprintf(stderr, "cache: %llu crawl records...\n",
               static_cast<unsigned long long>(records));
  bench::Report report("cache");
  report.Config("records", records);
  report.Config("seed", kSeed);
  report.Config("workload", "crawl/heavy-content");
  report.Config("reps", kReps);

  ClusterConfig cluster = bench::PaperCluster();
  cluster.num_nodes = 2;
  // Block size scaled below PaperCluster's 4 MB so the projected column
  // files (url ~1.5 MB, metadata ~3 MB at scale 1) span several HDFS
  // blocks, and the cache holds many entries, as on a large dataset.
  cluster.block_size = 512 * 1024;
  auto fs = std::make_unique<MiniHdfs>(
      cluster, std::make_unique<ColumnPlacementPolicy>(kSeed));

  CofOptions options;
  options.split_target_bytes = 32ull << 20;
  options.default_column.layout = ColumnLayout::kSkipList;
  options.column_overrides["metadata"] = {ColumnLayout::kDictSkipList};
  std::unique_ptr<CofWriter> cof;
  Die(CofWriter::Open(fs.get(), "/data", CrawlSchema(), options, &cof),
      "cof");
  CrawlGenerator gen =
      bench::MakeCrawlGenerator(bench::CrawlProfile::kHeavyContent);
  for (uint64_t i = 0; i < records; ++i) Die(cof->WriteRecord(gen.Next()), "w");
  Die(cof->Close(), "close");

  JobRunner runner(fs.get());

  // Cache off: every rep pays the full verifying read path.
  Job off_job = ScanJob();
  double off_wall = 0;
  RunRow off_row;
  for (int rep = 0; rep < kReps; ++rep) {
    off_row = RunOnce(&runner, off_job);
    off_wall += off_row.wall_seconds;
  }
  off_wall /= kReps;

  // Cache on: one cold run warms it, then the measured warm re-scans.
  Job on_job = ScanJob();
  on_job.config.cache_bytes = 512ull << 20;
  const RunRow cold_row = RunOnce(&runner, on_job);
  double warm_wall = 0;
  RunRow warm_row;
  for (int rep = 0; rep < kReps; ++rep) {
    warm_row = RunOnce(&runner, on_job);
    warm_wall += warm_row.wall_seconds;
  }
  warm_wall /= kReps;

  const double speedup = off_wall / warm_wall;
  const MetricsSnapshot metrics = MetricsRegistry::Default().Snapshot();
  const auto counter = [&metrics](const char* name) -> uint64_t {
    auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };

  std::printf("=== Block cache: repeated projected CIF scan ===\n");
  std::printf("%-10s %12s %12s\n", "Mode", "Wall(ms)", "Read(MB)");
  std::printf("%-10s %12.2f %12s\n", "off", off_wall * 1e3,
              bench::Mb(off_row.bytes_read).c_str());
  std::printf("%-10s %12.2f %12s\n", "cold", cold_row.wall_seconds * 1e3,
              bench::Mb(cold_row.bytes_read).c_str());
  std::printf("%-10s %12.2f %12s\n", "warm", warm_wall * 1e3,
              bench::Mb(warm_row.bytes_read).c_str());
  std::printf("warm speedup: %.2fx (cache hits %llu)\n", speedup,
              static_cast<unsigned long long>(counter("hdfs.cache.hits")));

  report.AddRow()
      .Set("mode", "off")
      .Set("wall_seconds", off_wall)
      .Set("bytes_read", off_row.bytes_read)
      .Set("output_records", off_row.output_records);
  report.AddRow()
      .Set("mode", "cold")
      .Set("wall_seconds", cold_row.wall_seconds)
      .Set("bytes_read", cold_row.bytes_read)
      .Set("output_records", cold_row.output_records);
  report.AddRow()
      .Set("mode", "warm")
      .Set("wall_seconds", warm_wall)
      .Set("bytes_read", warm_row.bytes_read)
      .Set("output_records", warm_row.output_records);
  report.Config("warm_speedup", speedup);
  report.Write();

  if (off_row.output_records != warm_row.output_records ||
      off_row.output_records != cold_row.output_records) {
    std::fprintf(stderr, "FAIL: output diverged across cache modes\n");
    return 1;
  }
  return 0;
}
