// Reproduces Figure 7: microbenchmark comparing scan times of TXT, SEQ,
// CIF, and RCFile (compressed / uncompressed) on the synthetic dataset of
// Section 6.2 (6 strings, 6 integers, 1 map per record), for projections
// {all columns, 1 integer, 1 string, 1 map, 1 string + 1 map}.
//
// Paper shape: TXT ~3x slower than SEQ; CIF 2.5x-95x faster than SEQ on
// narrow projections; CIF ~38x faster than uncompressed RCFile on the
// single-integer scan; all formats converge when scanning every column
// (SEQ slightly fastest).

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cif.h"
#include "cif/cof.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseRecords = 120000;  // ~40 MB binary (paper: 57 GB)

void WriteAll(MiniHdfs* fs, uint64_t records) {
  Schema::Ptr schema = MicrobenchSchema();

  std::unique_ptr<TextWriter> txt;
  Die(TextWriter::Open(fs, "/txt", schema, &txt), "txt open");
  std::unique_ptr<SeqWriter> seq;
  Die(SeqWriter::Open(fs, "/seq", schema, SeqWriterOptions{}, &seq),
      "seq open");
  RcFileWriterOptions rc_uncomp;
  rc_uncomp.row_group_size = 4ull << 20;  // the paper's recommended 4 MB
  std::unique_ptr<RcFileWriter> rc;
  Die(RcFileWriter::Open(fs, "/rc", schema, rc_uncomp, &rc), "rc open");
  RcFileWriterOptions rc_compressed = rc_uncomp;
  rc_compressed.codec = CodecType::kZlite;  // the ZLIB-compressed RCFile
  std::unique_ptr<RcFileWriter> rcc;
  Die(RcFileWriter::Open(fs, "/rcc", schema, rc_compressed, &rcc),
      "rcc open");
  CofOptions cof_options;
  cof_options.split_target_bytes = 8ull << 20;
  std::unique_ptr<CofWriter> cof;
  Die(CofWriter::Open(fs, "/cif", schema, cof_options, &cof), "cof open");

  MicrobenchGenerator gen = bench::MakeMicrobenchGenerator();
  bench::FillWriters(gen, records,
                     {txt.get(), seq.get(), rc.get(), rcc.get(), cof.get()});
}

struct Cell {
  double seconds = 0;
  uint64_t bytes = 0;
};

Cell RunScan(MiniHdfs* fs, InputFormat* format, const std::string& path,
             const std::vector<std::string>& projection) {
  JobConfig config;
  config.input_paths = {path};
  config.projection = projection;
  // Touch every projected column (or all columns when unprojected), as the
  // paper's hand-coded map functions would.
  std::vector<std::string> touch = projection;
  if (touch.empty()) {
    Schema::Ptr schema = MicrobenchSchema();
    for (const auto& field : schema->fields()) touch.push_back(field.name);
  }
  uint64_t sink = 0;
  bench::ScanResult result =
      bench::ScanDataset(fs, format, config, [&](Record& record) {
        for (const std::string& column : touch) {
          const Value& v = record.GetOrDie(column);
          if (v.kind() == TypeKind::kString) {
            sink += v.string_value().size();
          } else if (v.kind() == TypeKind::kMap) {
            sink += v.map_entries().size();
          } else if (v.kind() == TypeKind::kInt32) {
            sink += static_cast<uint64_t>(v.int32_value());
          }
        }
      });
  if (sink == 0 && result.records > 0) std::fprintf(stderr, "(sink empty)\n");
  return {result.sim_seconds, result.io.TotalBytes()};
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t records = bench::ScaledCount(kBaseRecords);
  auto fs = std::make_unique<MiniHdfs>(
      bench::PaperCluster(), std::make_unique<ColumnPlacementPolicy>(42));
  std::fprintf(stderr, "fig7: generating %llu records in 5 formats...\n",
               static_cast<unsigned long long>(records));
  WriteAll(fs.get(), records);

  const std::vector<std::pair<std::string, std::vector<std::string>>>
      projections = {
          {"AllColumns", {}},
          {"1 Integer", {"int0"}},
          {"1 String", {"str0"}},
          {"1 Map", {"map0"}},
          {"1 String+1 Map", {"str0", "map0"}},
      };

  TextInputFormat txt;
  SeqInputFormat seq;
  RcFileInputFormat rc;
  ColumnInputFormat cif;
  struct Row {
    const char* name;
    InputFormat* format;
    std::string path;
    bool projectable;
  };
  const std::vector<Row> rows = {
      {"TextFile", &txt, "/txt", false},
      {"SEQ", &seq, "/seq", false},
      {"CIF", &cif, "/cif", true},
      {"Compressed RCFile", &rc, "/rcc", true},
      {"Uncompressed RCFile", &rc, "/rc", true},
  };

  bench::Report report("fig7_microbench");
  report.Config("records", records);
  report.Config("workload", "microbench");
  for (const char* path : {"/txt", "/seq", "/cif", "/rc", "/rcc"}) {
    report.Config(std::string("bytes") + path,
                  bench::DatasetBytes(fs.get(), path));
  }

  std::printf("=== Figure 7: microbenchmark scan times (seconds) ===\n");
  std::printf("dataset sizes: txt=%sMB seq=%sMB cif=%sMB rc=%sMB rcc=%sMB\n",
              bench::Mb(bench::DatasetBytes(fs.get(), "/txt")).c_str(),
              bench::Mb(bench::DatasetBytes(fs.get(), "/seq")).c_str(),
              bench::Mb(bench::DatasetBytes(fs.get(), "/cif")).c_str(),
              bench::Mb(bench::DatasetBytes(fs.get(), "/rc")).c_str(),
              bench::Mb(bench::DatasetBytes(fs.get(), "/rcc")).c_str());
  std::printf("%-20s %14s %14s %14s %14s %16s\n", "Format", "AllColumns",
              "1 Integer", "1 String", "1 Map", "1 Str+1 Map");

  for (const auto& row : rows) {
    std::printf("%-20s", row.name);
    for (const auto& [label, projection] : projections) {
      if (!row.projectable && !projection.empty()) {
        // TXT and SEQ read and parse everything regardless of projection;
        // the paper reports one bar for them.
        std::printf(" %13s ", "=all");
        continue;
      }
      colmr::Cell cell =
          colmr::RunScan(fs.get(), row.format, row.path, projection);
      std::printf(" %9.2fs(%4sMB)", cell.seconds,
                  bench::Mb(cell.bytes).c_str());
      report.AddRow()
          .Set("format", row.name)
          .Set("projection", label)
          .Set("seconds", cell.seconds)
          .Set("bytes_read", cell.bytes);
    }
    std::printf("\n");
  }
  report.Write();
  std::printf(
      "\npaper shape: SEQ ~3x faster than TXT; CIF 2.5x-95x faster than SEQ "
      "on projections;\nCIF ~38x faster than uncompressed RCFile on 1 "
      "integer; all converge on AllColumns.\n");
  return 0;
}
