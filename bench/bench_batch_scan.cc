// Vectorized columnar scan: 1024-row batches (NextBatch / FillBatch)
// versus one-row batches through the same decode path, on a
// Fig.-8-style projected scan of the Section 6.2 microbenchmark dataset
// stored as CIF.
//
// Large batches amortize the per-call BufferedReader bookkeeping (window
// peeks, cursor commits, virtual dispatch) over whole column segments and
// serve strings zero-copy out of the pinned block-cache window; one-row
// batches pay all of it per value. Each projection is scanned both ways
// over identical bytes; `speedup` is one-row seconds / batched seconds
// (the JSON keeps the one-row arm's historical name, `scalar_seconds`).
// The projected-scan rows are the headline: expect >= 2x.
//
// CI gate: .github/workflows/ci.yml runs this bench and fails if any
// projection's speedup drops below 0.85 or its record counts differ
// (batching must never be a pessimization; the slack absorbs timer noise
// on shared runners).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cif.h"
#include "cif/cof.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

constexpr uint64_t kBaseRecords = 60000;
constexpr uint64_t kBatchRows = 1024;

struct ProjectionCase {
  const char* name;
  std::vector<std::string> projection;  // empty = full record
  // Touches the projected fields so decoded values cannot be elided.
  uint64_t (*consume)(Record&);
};

uint64_t ConsumeInt(Record& record) {
  return static_cast<uint64_t>(record.GetOrDie("int0").int32_value());
}

uint64_t ConsumeStrInt(Record& record) {
  return record.GetOrDie("str0").string_value().size() +
         static_cast<uint64_t>(record.GetOrDie("int0").int32_value());
}

uint64_t ConsumeWide(Record& record) {
  uint64_t sum = 0;
  for (int i = 0; i < 6; ++i) {
    sum += record.GetOrDie("str" + std::to_string(i)).string_value().size();
    sum += static_cast<uint64_t>(
        record.GetOrDie("int" + std::to_string(i)).int32_value());
  }
  sum += record.GetOrDie("map0").map_entries().size();
  return sum;
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t records = bench::ScaledCount(kBaseRecords);

  ClusterConfig cluster = bench::PaperCluster();
  cluster.num_nodes = 4;
  auto fs = std::make_unique<MiniHdfs>(
      cluster, std::make_unique<ColumnPlacementPolicy>(bench::kDatasetSeed));

  // Table-1-style layouts: skip lists everywhere, DCSL for the map.
  CofOptions options;
  options.split_target_bytes = 4ull << 20;
  options.default_column.layout = ColumnLayout::kSkipList;
  options.column_overrides["map0"] = {ColumnLayout::kDictSkipList};
  std::unique_ptr<CofWriter> writer;
  bench::Die(CofWriter::Open(fs.get(), "/micro", MicrobenchSchema(), options,
                             &writer),
             "cof");
  MicrobenchGenerator gen(bench::kDatasetSeed + 3);
  for (uint64_t i = 0; i < records; ++i) {
    bench::Die(writer->WriteRecord(gen.Next()), "write");
  }
  bench::Die(writer->Close(), "close");
  std::fprintf(stderr, "batch_scan: %llu micro records, %s MB on HDFS\n",
               static_cast<unsigned long long>(records),
               bench::Mb(fs->TotalStoredBytes()).c_str());

  const ProjectionCase cases[] = {
      {"int0", {"str0", "int0"}, ConsumeStrInt},
      {"int-only", {"int0"}, ConsumeInt},
      {"full", {}, ConsumeWide},
  };

  bench::Report report("batch_scan");
  report.Config("records", records);
  report.Config("batch_rows", kBatchRows);
  report.Config("stored_bytes", fs->TotalStoredBytes());

  std::printf("=== 1024-row vs one-row batch scan (CIF, eager) ===\n");
  std::printf("%-12s %12s %12s %9s %14s\n", "projection", "one-row(s)",
              "batched(s)", "speedup", "records=equal");

  ColumnInputFormat format;
  uint64_t sink = 0;
  for (const ProjectionCase& projection : cases) {
    JobConfig config;
    config.input_paths = {"/micro"};
    config.projection = projection.projection;

    // Best-of-3 per path: a scheduler hiccup must not read as a decode
    // regression.
    double one_row_seconds = 0;
    double batched_seconds = 0;
    uint64_t one_row_records = 0;
    uint64_t batched_records = 0;
    for (int run = 0; run < 3; ++run) {
      config.batch_rows = 1;
      bench::ScanResult one_row = bench::ScanDataset(
          fs.get(), &format, config,
          [&](Record& record) { sink += projection.consume(record); });
      if (run == 0 || one_row.cpu_seconds < one_row_seconds) {
        one_row_seconds = one_row.cpu_seconds;
      }
      one_row_records = one_row.records;

      config.batch_rows = kBatchRows;
      bench::ScanResult batched = bench::ScanDataset(
          fs.get(), &format, config,
          [&](Record& record) { sink += projection.consume(record); });
      if (run == 0 || batched.cpu_seconds < batched_seconds) {
        batched_seconds = batched.cpu_seconds;
      }
      batched_records = batched.records;
    }

    const double speedup = one_row_seconds / batched_seconds;
    const bool records_equal =
        one_row_records == records && batched_records == records;
    std::printf("%-12s %12.4f %12.4f %8.2fx %14s\n", projection.name,
                one_row_seconds, batched_seconds, speedup,
                records_equal ? "yes" : "NO");
    report.AddRow()
        .Set("projection", projection.name)
        .Set("scalar_seconds", one_row_seconds)
        .Set("batched_seconds", batched_seconds)
        .Set("speedup", speedup)
        .Set("records_equal", records_equal);
  }
  report.Write();
  std::printf(
      "\nspeedup = one-row / batched wall time over identical bytes; the\n"
      "projected rows are the Fig. 8 analogue (target >= 2x). (sink=%llu)\n",
      static_cast<unsigned long long>(sink & 0xff));
  return 0;
}
