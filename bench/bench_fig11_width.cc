// Reproduces Figure 11 (Appendix B.5): CIF vs RCFile vs SEQ as the number
// of columns per record grows (20/40/80 string columns, ~constant total
// dataset size), scanning {1 column, 10% of columns, all columns}.
//
// Paper shape: CIF beats RCFile whenever few columns are projected; the
// single-column read bandwidth of RCFile *falls* as records get wider
// (fixed row-group overheads amortize over fewer bytes per column) while
// CIF stays flat; scanning all columns, SEQ leads and CIF's gap grows
// with column count.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cif.h"
#include "cif/cof.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseBytes = 60ull << 20;  // ~60 MB per width (paper: 60 GB)

double Bandwidth(MiniHdfs* fs, InputFormat* format, const std::string& path,
                 const std::vector<std::string>& projection,
                 uint64_t raw_bytes) {
  JobConfig config;
  config.input_paths = {path};
  config.projection = projection;
  std::vector<std::string> touch = projection;
  uint64_t sink = 0;
  bench::ScanResult result =
      bench::ScanDataset(fs, format, config, [&](Record& record) {
        if (touch.empty()) return;
        for (const std::string& column : touch) {
          sink += record.GetOrDie(column).string_value().size();
        }
      });
  (void)sink;
  // Read bandwidth as the paper plots it: logical dataset size over scan
  // time.
  return raw_bytes / 1e6 / result.sim_seconds;
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  bench::Report report("fig11_width");
  report.Config("workload", "wide");
  std::printf("=== Figure 11: effect of record width (read MB/s) ===\n");
  std::printf("%8s %14s %10s %10s %10s\n", "Columns", "Scan", "SEQ", "CIF",
              "RCFile16M");

  for (int num_columns : {20, 40, 80}) {
    auto fs = std::make_unique<MiniHdfs>(
        bench::PaperCluster(), std::make_unique<ColumnPlacementPolicy>(11));
    Schema::Ptr schema = WideSchema(num_columns);
    // ~31 bytes of string per column per record.
    const uint64_t records = bench::ScaledCount(
        kBaseBytes / (static_cast<uint64_t>(num_columns) * 31));

    std::unique_ptr<SeqWriter> seq;
    Die(SeqWriter::Open(fs.get(), "/seq", schema, SeqWriterOptions{}, &seq),
        "seq");
    RcFileWriterOptions rc_options;
    rc_options.row_group_size = 16ull << 20;  // the paper's Fig. 11 setting
    std::unique_ptr<RcFileWriter> rc;
    Die(RcFileWriter::Open(fs.get(), "/rc", schema, rc_options, &rc), "rc");
    CofOptions cof_options;
    cof_options.split_target_bytes = 16ull << 20;
    std::unique_ptr<CofWriter> cof;
    Die(CofWriter::Open(fs.get(), "/cif", schema, cof_options, &cof), "cof");

    WideGenerator gen = bench::MakeWideGenerator(num_columns);
    bench::FillWriters(gen, records, {seq.get(), rc.get(), cof.get()});
    const uint64_t raw_bytes = bench::DatasetBytes(fs.get(), "/seq");

    SeqInputFormat seq_format;
    RcFileInputFormat rc_format;
    ColumnInputFormat cif_format;

    std::vector<std::pair<std::string, std::vector<std::string>>> scans;
    scans.emplace_back("1 column", std::vector<std::string>{"c0"});
    std::vector<std::string> tenth;
    for (int c = 0; c < num_columns / 10; ++c) {
      tenth.push_back("c" + std::to_string(c));
    }
    scans.emplace_back("10% columns", tenth);
    std::vector<std::string> all;
    for (int c = 0; c < num_columns; ++c) {
      all.push_back("c" + std::to_string(c));
    }
    scans.emplace_back("all columns", all);

    for (const auto& [label, projection] : scans) {
      const double seq_bw =
          Bandwidth(fs.get(), &seq_format, "/seq", all, raw_bytes);
      const double cif_bw =
          Bandwidth(fs.get(), &cif_format, "/cif", projection, raw_bytes);
      const double rc_bw =
          Bandwidth(fs.get(), &rc_format, "/rc", projection, raw_bytes);
      std::printf("%8d %14s %10.0f %10.0f %10.0f\n", num_columns,
                  label.c_str(), seq_bw, cif_bw, rc_bw);
      report.AddRow()
          .Set("columns", num_columns)
          .Set("scan", label)
          .Set("seq_mb_per_s", seq_bw)
          .Set("cif_mb_per_s", cif_bw)
          .Set("rcfile_mb_per_s", rc_bw);
    }
  }
  report.Write();
  std::printf(
      "\npaper shape: CIF >> RCFile on narrow projections; RCFile's "
      "1-column bandwidth\ndecays with width while CIF stays flat; SEQ "
      "fastest for all-column scans, with\nCIF's overhead growing with "
      "column count.\n");
  return 0;
}
