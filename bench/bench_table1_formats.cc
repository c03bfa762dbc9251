// Reproduces Table 1: the full crawl job — find distinct content-types of
// pages whose URL contains "ibm.com/jp" (Fig. 1) — across eleven storage
// layouts: SEQ {uncompressed, record, block, custom}, RCFile {plain,
// compressed}, and CIF {plain, ZLIB, LZO, skip lists, DCSL}. For each
// layout we report bytes read from HDFS, simulated map time, simulated
// total job time, and speedups relative to SEQ-custom, exactly as the
// paper's table does.
//
// Paper shape: SEQ variants are slowest (they read the multi-KB content
// column); RCFile-comp ~3.7x over SEQ-custom; CIF ~60x (map time) from
// whole-column I/O elimination; CIF-SL adds lazy-record savings; CIF-DCSL
// is best (~108x map time, ~12.8x total).

#include <cstdio>
#include <functional>
#include <memory>
#include <set>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cif.h"
#include "cif/cof.h"
#include "compress/codec.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "mapreduce/engine.h"
#include "workload/crawl.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseRecords = 30000;  // ~100 MB (paper: 6.4 TB)
constexpr uint64_t kSeed = bench::kDatasetSeed;

enum class LayoutKind { kSeq, kRcFile, kCif };

struct LayoutSpec {
  const char* name;
  LayoutKind kind;
  // SEQ:
  SeqCompression seq_compression = SeqCompression::kNone;
  CodecType seq_codec = CodecType::kLzf;
  bool custom_content = false;  // SEQ-custom: app-compressed content column
  // RCFile:
  CodecType rc_codec = CodecType::kNone;
  // CIF: metadata column layout (other columns stay plain, as the paper
  // varies only the metadata layout in this experiment).
  ColumnOptions metadata_column;
  bool lazy = false;
};

/// Writes the crawl dataset in the given layout and runs the job.
struct RowResult {
  uint64_t bytes_read = 0;
  double map_seconds = 0;
  double total_seconds = 0;
};

RowResult RunLayout(const LayoutSpec& spec, uint64_t records) {
  // Fresh filesystem per layout keeps memory bounded; CPP placement is
  // used throughout (Section 6.4 evaluates placement separately).
  ClusterConfig cluster = bench::PaperCluster();
  // Scaled with the dataset so tasks fill several waves; "map time" is the
  // paper's per-slot average, so the slot count only scales all rows.
  cluster.num_nodes = 2;
  auto fs = std::make_unique<MiniHdfs>(
      cluster, std::make_unique<ColumnPlacementPolicy>(kSeed));

  Schema::Ptr schema = CrawlSchema();
  std::unique_ptr<DatasetWriter> writer;
  if (spec.kind == LayoutKind::kSeq) {
    SeqWriterOptions options;
    options.compression = spec.seq_compression;
    options.codec = spec.seq_codec;
    std::unique_ptr<SeqWriter> seq;
    Die(SeqWriter::Open(fs.get(), "/data", schema, options, &seq), "seq");
    writer = std::move(seq);
  } else if (spec.kind == LayoutKind::kRcFile) {
    RcFileWriterOptions options;
    options.codec = spec.rc_codec;
    std::unique_ptr<RcFileWriter> rc;
    Die(RcFileWriter::Open(fs.get(), "/data", schema, options, &rc), "rc");
    writer = std::move(rc);
  } else {
    CofOptions options;
    options.split_target_bytes = 32ull << 20;
    options.column_overrides["metadata"] = spec.metadata_column;
    std::unique_ptr<CofWriter> cof;
    Die(CofWriter::Open(fs.get(), "/data", schema, options, &cof), "cof");
    writer = std::move(cof);
  }

  // Heavy-content profile: the paper's content column holds "several KB
  // of data for each record" and dominates the row — what makes every SEQ
  // variant slow, while the HTTP-header-style metadata maps cost real CPU
  // to deserialize eagerly (the CIF-SL/DCSL savings).
  CrawlGenerator gen =
      bench::MakeCrawlGenerator(bench::CrawlProfile::kHeavyContent);
  const Codec* lzf = GetCodec(CodecType::kLzf);
  for (uint64_t i = 0; i < records; ++i) {
    Value record = gen.Next();
    if (spec.custom_content) {
      // SEQ-custom: the application compresses the content column itself
      // before handing records to the writer (paper Section 6.3).
      Buffer compressed;
      Die(lzf->Compress(record.elements()[6].bytes_value(), &compressed),
          "content compress");
      record.mutable_elements()->at(6) = Value::Bytes(compressed.TakeString());
    }
    Die(writer->WriteRecord(record), "write");
  }
  Die(writer->Close(), "close");

  Job job;
  job.config.input_paths = {"/data"};
  if (spec.kind != LayoutKind::kSeq) {
    job.config.projection = {"url", "metadata"};
  }
  job.config.lazy_records = spec.lazy;
  switch (spec.kind) {
    case LayoutKind::kSeq:
      job.input_format = std::make_shared<SeqInputFormat>();
      break;
    case LayoutKind::kRcFile:
      job.input_format = std::make_shared<RcFileInputFormat>();
      break;
    case LayoutKind::kCif:
      job.input_format = std::make_shared<ColumnInputFormat>();
      break;
  }
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

  JobRunner runner(fs.get());
  JobReport report;
  Die(runner.Run(job, &report), "run");
  // Total time under the paper's map-time metric: per-slot map load plus
  // the (format-independent) shuffle and reduce phases.
  const double total = report.map_slot_seconds + report.shuffle_seconds +
                       report.reduce_phase_seconds;
  return {report.BytesRead(), report.map_slot_seconds, total};
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t records = bench::ScaledCount(kBaseRecords);
  std::fprintf(stderr, "table1: %llu crawl records per layout...\n",
               static_cast<unsigned long long>(records));
  bench::Report report("table1_formats");
  report.Config("records", records);
  report.Config("seed", kSeed);
  report.Config("workload", "crawl/heavy-content");

  ColumnOptions plain;
  ColumnOptions zlib_blocks{ColumnLayout::kCompressedBlocks,
                            CodecType::kZlite, 64 * 1024};
  ColumnOptions lzo_blocks{ColumnLayout::kCompressedBlocks, CodecType::kLzf,
                           64 * 1024};
  ColumnOptions skip_list{ColumnLayout::kSkipList, CodecType::kNone, 0};
  ColumnOptions dcsl{ColumnLayout::kDictSkipList, CodecType::kNone, 0};

  std::vector<LayoutSpec> specs;
  specs.push_back({"SEQ-uncomp", LayoutKind::kSeq, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, plain, false});
  specs.push_back({"SEQ-record", LayoutKind::kSeq, SeqCompression::kRecord,
                   CodecType::kLzf, false, CodecType::kNone, plain, false});
  specs.push_back({"SEQ-block", LayoutKind::kSeq, SeqCompression::kBlock,
                   CodecType::kLzf, false, CodecType::kNone, plain, false});
  specs.push_back({"SEQ-custom", LayoutKind::kSeq, SeqCompression::kNone,
                   CodecType::kNone, true, CodecType::kNone, plain, false});
  specs.push_back({"RCFile", LayoutKind::kRcFile, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, plain, false});
  specs.push_back({"RCFile-comp", LayoutKind::kRcFile, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kZlite, plain, false});
  // The compressed-block variants use lazy records too: unaccessed blocks
  // are then skipped without decompression (Section 5.3, "lazy
  // decompression").
  specs.push_back({"CIF-ZLIB", LayoutKind::kCif, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, zlib_blocks,
                   true});
  specs.push_back({"CIF", LayoutKind::kCif, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, plain, false});
  specs.push_back({"CIF-LZO", LayoutKind::kCif, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, lzo_blocks,
                   true});
  specs.push_back({"CIF-SL", LayoutKind::kCif, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, skip_list,
                   true});
  specs.push_back({"CIF-DCSL", LayoutKind::kCif, SeqCompression::kNone,
                   CodecType::kNone, false, CodecType::kNone, dcsl, true});

  std::printf("=== Table 1: storage format comparison on the crawl job ===\n");
  std::printf("%-12s %10s %10s %9s %10s %9s\n", "Layout", "Read(MB)",
              "Map(s)", "MapRatio", "Total(s)", "TotRatio");

  double base_map = 0, base_total = 0;
  std::vector<std::pair<std::string, RowResult>> results;
  for (const LayoutSpec& spec : specs) {
    RowResult row = RunLayout(spec, records);
    if (std::string(spec.name) == "SEQ-custom") {
      base_map = row.map_seconds;
      base_total = row.total_seconds;
    }
    results.emplace_back(spec.name, row);
    std::fprintf(stderr, "  %s done\n", spec.name);
  }
  for (const auto& [name, row] : results) {
    std::printf("%-12s %10s %10.2f %8.1fx %10.2f %8.1fx\n", name.c_str(),
                bench::Mb(row.bytes_read).c_str(), row.map_seconds,
                base_map / row.map_seconds, row.total_seconds,
                base_total / row.total_seconds);
    report.AddRow()
        .Set("layout", name)
        .Set("bytes_read", row.bytes_read)
        .Set("map_seconds", row.map_seconds)
        .Set("map_ratio", base_map / row.map_seconds)
        .Set("total_seconds", row.total_seconds)
        .Set("total_ratio", base_total / row.total_seconds);
  }
  report.Write();
  std::printf(
      "\npaper shape: SEQ variants slowest; RCFile-comp ~3.7x map-time over "
      "SEQ-custom;\nCIF ~61x; CIF-SL ~82x; CIF-DCSL best ~108x map / ~12.8x "
      "total.\n");
  return 0;
}
