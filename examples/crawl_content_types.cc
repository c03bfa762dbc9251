// The paper's flagship workload (Fig. 1 / Section 6.3): over a crawl of
// URLInfo records, find every distinct content-type reported by pages
// whose URL contains "ibm.com/jp". Runs the identical job against a
// row-oriented SequenceFile and against CIF with DCSL metadata + lazy
// records, and prints the side-by-side cost.
//
//   build/examples/crawl_content_types

#include <cstdio>
#include <memory>

#include "cif/cif.h"
#include "cif/cof.h"
#include "formats/seq/seq_file.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/engine.h"
#include "workload/crawl.h"

using namespace colmr;

namespace {

Status RunJob(MiniHdfs* fs, std::shared_ptr<InputFormat> format,
              const std::string& path, bool project_and_lazy,
              JobReport* report) {
  Job job;
  job.config.input_paths = {path};
  if (project_and_lazy) {
    job.config.projection = {"url", "metadata"};
    job.config.lazy_records = true;
  }
  job.input_format = std::move(format);
  // The map function from the paper's Fig. 1, against the generic Record
  // interface: identical whether records are eager or lazy.
  job.mapper = [](Record& record, Emitter* out) {
    const std::string& url = record.GetOrDie("url").string_value();
    if (url.find(kCrawlFilterPattern) != std::string::npos) {
      const Value* content_type =
          record.GetOrDie("metadata").FindMapEntry(kContentTypeKey);
      if (content_type != nullptr) {
        out->Emit(Value::String(content_type->string_value()), Value::Null());
      }
    }
  };
  // The reduce function: distinct keys.
  job.reducer = [](const Value& key, const std::vector<Value>&, Emitter* out) {
    out->Emit(key, Value::Null());
  };
  JobRunner runner(fs);
  return runner.Run(job, report);
}

}  // namespace

int main() {
  auto fs = std::make_unique<MiniHdfs>(
      ClusterConfig{}, std::make_unique<ColumnPlacementPolicy>());

  // Generate one day of crawl data and load it in both formats.
  Schema::Ptr schema = CrawlSchema();
  std::unique_ptr<SeqWriter> seq;
  Status s =
      SeqWriter::Open(fs.get(), "/data/2011-01-01.seq", schema,
                      SeqWriterOptions{}, &seq);
  if (!s.ok()) return 1;
  CofOptions cof_options;
  cof_options.column_overrides["metadata"] = {ColumnLayout::kDictSkipList,
                                              CodecType::kNone, 0};
  cof_options.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> cof;
  s = CofWriter::Open(fs.get(), "/data/2011-01-01", schema, cof_options,
                      &cof);
  if (!s.ok()) return 1;

  CrawlGenerator gen(20110101, CrawlGeneratorOptions{});
  const int kRecords = 20000;
  for (int i = 0; i < kRecords; ++i) {
    const Value record = gen.Next();
    seq->WriteRecord(record);
    cof->WriteRecord(record);
  }
  seq->Close();
  cof->Close();
  auto dataset_mb = [&](const std::string& path) {
    std::vector<std::string> files;
    if (!ExpandInputPaths(fs.get(), {path}, &files).ok()) return 0.0;
    uint64_t total = 0;
    for (const std::string& file : files) {
      uint64_t size = 0;
      fs->GetFileSize(file, &size);
      total += size;
    }
    return total / 1e6;
  };
  std::printf("crawled %d pages (%.1f MB as SEQ, %.1f MB as CIF)\n\n",
              kRecords, dataset_mb("/data/2011-01-01.seq"),
              dataset_mb("/data/2011-01-01"));

  JobReport seq_report, cif_report;
  s = RunJob(fs.get(), std::make_shared<SeqInputFormat>(),
             "/data/2011-01-01.seq", false, &seq_report);
  if (!s.ok()) {
    std::fprintf(stderr, "seq job: %s\n", s.ToString().c_str());
    return 1;
  }
  s = RunJob(fs.get(), std::make_shared<ColumnInputFormat>(),
             "/data/2011-01-01", true, &cif_report);
  if (!s.ok()) {
    std::fprintf(stderr, "cif job: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("distinct content-types on ibm.com/jp pages:\n");
  for (const auto& [key, value] : cif_report.output) {
    std::printf("  %s\n", key.string_value().c_str());
  }

  std::printf("\n%-28s %12s %12s\n", "", "SEQ", "CIF(lazy)");
  std::printf("%-28s %10.1fMB %10.1fMB\n", "bytes read from HDFS",
              seq_report.BytesRead() / 1e6, cif_report.BytesRead() / 1e6);
  std::printf("%-28s %11.3fs %11.3fs\n", "simulated map time",
              seq_report.map_phase_seconds, cif_report.map_phase_seconds);
  std::printf("%-28s %11.3fs %11.3fs\n", "simulated total time",
              seq_report.total_seconds, cif_report.total_seconds);
  std::printf("\ncolumn-oriented speedup on bytes: %.1fx\n",
              static_cast<double>(seq_report.BytesRead()) /
                  static_cast<double>(cif_report.BytesRead()));
  return 0;
}
