// Reproduces Table 2 (Appendix B.3): time to convert the Fig. 7 synthetic
// dataset from SEQ into CIF, CIF with skip lists, and RCFile.
//
// Paper shape: all three loads take roughly the same time (89/93/89 min);
// adding skip lists costs only a few percent, the double-buffering needed
// because HDFS files are append-only.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cof.h"
#include "cif/loader.h"
#include "common/stopwatch.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseRecords = 150000;

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t records = bench::ScaledCount(kBaseRecords);
  auto fs = std::make_unique<MiniHdfs>(
      bench::PaperCluster(), std::make_unique<ColumnPlacementPolicy>(12));
  Schema::Ptr schema = MicrobenchSchema();

  std::fprintf(stderr, "table2: writing %llu-record SEQ source...\n",
               static_cast<unsigned long long>(records));
  {
    std::unique_ptr<SeqWriter> seq;
    Die(SeqWriter::Open(fs.get(), "/seq", schema, SeqWriterOptions{}, &seq),
        "seq");
    MicrobenchGenerator gen = bench::MakeMicrobenchGenerator();
    bench::FillWriters(gen, records, {seq.get()});
  }

  bench::Report report("table2_load");
  report.Config("records", records);
  report.Config("workload", "microbench");
  report.Config("source_bytes", bench::DatasetBytes(fs.get(), "/seq"));

  std::printf("=== Table 2: load times, SEQ -> target format ===\n");
  std::printf("%-10s %10s %12s\n", "Layout", "Time(s)", "Output(MB)");

  SeqInputFormat seq_format;
  struct Target {
    const char* name;
    std::function<Status(const std::string&, std::unique_ptr<DatasetWriter>*)>
        open;
  };

  CofOptions cif_options;
  cif_options.split_target_bytes = 8ull << 20;
  CofOptions sl_options = cif_options;
  sl_options.default_column.layout = ColumnLayout::kSkipList;
  RcFileWriterOptions rc_options;  // 4 MB row-groups, as recommended

  const std::vector<Target> targets = {
      {"CIF",
       [&](const std::string& path, std::unique_ptr<DatasetWriter>* out) {
         std::unique_ptr<CofWriter> w;
         COLMR_RETURN_IF_ERROR(
             CofWriter::Open(fs.get(), path, schema, cif_options, &w));
         *out = std::move(w);
         return Status::OK();
       }},
      {"CIF-SL",
       [&](const std::string& path, std::unique_ptr<DatasetWriter>* out) {
         std::unique_ptr<CofWriter> w;
         COLMR_RETURN_IF_ERROR(
             CofWriter::Open(fs.get(), path, schema, sl_options, &w));
         *out = std::move(w);
         return Status::OK();
       }},
      {"RCFile",
       [&](const std::string& path, std::unique_ptr<DatasetWriter>* out) {
         std::unique_ptr<RcFileWriter> w;
         COLMR_RETURN_IF_ERROR(
             RcFileWriter::Open(fs.get(), path, schema, rc_options, &w));
         *out = std::move(w);
         return Status::OK();
       }},
  };

  int index = 0;
  for (const Target& target : targets) {
    const std::string path = "/load" + std::to_string(index++);
    std::unique_ptr<DatasetWriter> writer;
    Die(target.open(path, &writer), "open target");
    Stopwatch watch;
    Die(CopyDataset(fs.get(), &seq_format, {"/seq"}, writer.get()), "copy");
    Die(writer->Close(), "close");
    const double seconds = watch.ElapsedSeconds();
    const uint64_t output_bytes = bench::DatasetBytes(fs.get(), path);
    std::printf("%-10s %10.2f %12s\n", target.name, seconds,
                bench::Mb(output_bytes).c_str());
    report.AddRow()
        .Set("layout", target.name)
        .Set("seconds", seconds)
        .Set("output_bytes", output_bytes);
  }
  report.Write();
  std::printf(
      "\npaper shape: CIF, CIF-SL and RCFile loads cost about the same "
      "(89/93/89 min);\nthe skip-list double-buffering overhead is minor.\n");
  return 0;
}
