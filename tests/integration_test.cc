#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cif/cif.h"
#include "cif/cof.h"
#include "cif/loader.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"
#include "mapreduce/engine.h"
#include "workload/crawl.h"

namespace colmr {
namespace {

// End-to-end cross-format test: the paper's Section 6.3 job — distinct
// content-types of pages whose URL contains "ibm.com/jp" — must produce
// identical output whatever the storage format or record-construction
// strategy. This pins the semantics that all the performance comparisons
// rely on.

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 256 * 1024;
  config.io_buffer_size = 16 * 1024;
  return config;
}

class CrawlJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<MiniHdfs>(
        TestCluster(), std::make_unique<ColumnPlacementPolicy>(23));
    schema_ = CrawlSchema();

    CrawlGeneratorOptions gen_options;
    gen_options.jp_selectivity = 0.10;
    gen_options.min_content_bytes = 300;  // keep the test dataset small
    gen_options.max_content_bytes = 800;
    CrawlGenerator gen(77, gen_options);
    const int kRecords = 800;
    records_.reserve(kRecords);
    for (int i = 0; i < kRecords; ++i) records_.push_back(gen.Next());

    // Write the same records in every format.
    std::unique_ptr<TextWriter> txt;
    ASSERT_TRUE(TextWriter::Open(fs_.get(), "/txt", schema_, &txt).ok());
    std::unique_ptr<SeqWriter> seq;
    ASSERT_TRUE(
        SeqWriter::Open(fs_.get(), "/seq", schema_, SeqWriterOptions{}, &seq)
            .ok());
    SeqWriterOptions seq_block;
    seq_block.compression = SeqCompression::kBlock;
    std::unique_ptr<SeqWriter> seqc;
    ASSERT_TRUE(
        SeqWriter::Open(fs_.get(), "/seqc", schema_, seq_block, &seqc).ok());
    RcFileWriterOptions rc_options;
    rc_options.row_group_size = 64 * 1024;
    std::unique_ptr<RcFileWriter> rc;
    ASSERT_TRUE(
        RcFileWriter::Open(fs_.get(), "/rc", schema_, rc_options, &rc).ok());
    CofOptions cof_options;
    cof_options.split_target_bytes = 256 * 1024;
    cof_options.default_column.layout = ColumnLayout::kSkipList;
    cof_options.column_overrides["metadata"] = {ColumnLayout::kDictSkipList};
    std::unique_ptr<CofWriter> cof;
    ASSERT_TRUE(
        CofWriter::Open(fs_.get(), "/cif", schema_, cof_options, &cof).ok());

    for (const Value& record : records_) {
      ASSERT_TRUE(txt->WriteRecord(record).ok());
      ASSERT_TRUE(seq->WriteRecord(record).ok());
      ASSERT_TRUE(seqc->WriteRecord(record).ok());
      ASSERT_TRUE(rc->WriteRecord(record).ok());
      ASSERT_TRUE(cof->WriteRecord(record).ok());
    }
    ASSERT_TRUE(txt->Close().ok());
    ASSERT_TRUE(seq->Close().ok());
    ASSERT_TRUE(seqc->Close().ok());
    ASSERT_TRUE(rc->Close().ok());
    ASSERT_TRUE(cof->Close().ok());
  }

  std::set<std::string> ExpectedContentTypes() const {
    std::set<std::string> expected;
    for (const Value& record : records_) {
      if (record.elements()[0].string_value().find(kCrawlFilterPattern) !=
          std::string::npos) {
        const Value* ct = record.elements()[4].FindMapEntry(kContentTypeKey);
        if (ct != nullptr) expected.insert(ct->string_value());
      }
    }
    return expected;
  }

  // Runs the paper's job (Fig. 1) and returns the distinct content-types.
  std::set<std::string> RunJob(std::shared_ptr<InputFormat> format,
                               const std::string& path, bool project,
                               bool lazy, JobReport* report) {
    Job job;
    job.config.input_paths = {path};
    if (project) job.config.projection = {"url", "metadata"};
    job.config.lazy_records = lazy;
    job.input_format = std::move(format);
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
    job.reducer = [](const Value& key, const std::vector<Value>&,
                     Emitter* out) { out->Emit(key, Value::Null()); };
    JobRunner runner(fs_.get());
    Status s = runner.Run(job, report);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::set<std::string> result;
    for (const auto& [key, value] : report->output) {
      result.insert(key.string_value());
    }
    return result;
  }

  std::unique_ptr<MiniHdfs> fs_;
  Schema::Ptr schema_;
  std::vector<Value> records_;
};

TEST_F(CrawlJobTest, AllFormatsProduceIdenticalResults) {
  const std::set<std::string> expected = ExpectedContentTypes();
  ASSERT_FALSE(expected.empty());

  JobReport report;
  EXPECT_EQ(RunJob(std::make_shared<TextInputFormat>(), "/txt", false, false,
                   &report),
            expected);
  EXPECT_EQ(RunJob(std::make_shared<SeqInputFormat>(), "/seq", false, false,
                   &report),
            expected);
  EXPECT_EQ(RunJob(std::make_shared<SeqInputFormat>(), "/seqc", false, false,
                   &report),
            expected);
  EXPECT_EQ(RunJob(std::make_shared<RcFileInputFormat>(), "/rc", true, false,
                   &report),
            expected);
  EXPECT_EQ(RunJob(std::make_shared<ColumnInputFormat>(), "/cif", true, false,
                   &report),
            expected);
  EXPECT_EQ(RunJob(std::make_shared<ColumnInputFormat>(), "/cif", true, true,
                   &report),
            expected);
}

TEST_F(CrawlJobTest, CifReadsFarFewerBytesThanSeq) {
  // The core Table 1 effect: the projected CIF job must not read the
  // content column at all, while SEQ reads everything.
  JobReport seq_report, cif_report;
  RunJob(std::make_shared<SeqInputFormat>(), "/seq", false, false,
         &seq_report);
  RunJob(std::make_shared<ColumnInputFormat>(), "/cif", true, true,
         &cif_report);
  EXPECT_LT(cif_report.BytesRead() * 3, seq_report.BytesRead());
}

TEST_F(CrawlJobTest, FormatConversionPreservesRecords) {
  // TXT -> SEQ -> CIF -> RCFile loader chain reproduces the original
  // records bit-for-bit (modulo nothing: Value comparison is exact).
  SeqWriterOptions seq_options;
  std::unique_ptr<SeqWriter> seq;
  ASSERT_TRUE(
      SeqWriter::Open(fs_.get(), "/conv_seq", schema_, seq_options, &seq)
          .ok());
  TextInputFormat txt;
  ASSERT_TRUE(CopyDataset(fs_.get(), &txt, {"/txt"}, seq.get()).ok());
  ASSERT_TRUE(seq->Close().ok());

  CofOptions cof_options;
  std::unique_ptr<CofWriter> cof;
  ASSERT_TRUE(
      CofWriter::Open(fs_.get(), "/conv_cif", schema_, cof_options, &cof)
          .ok());
  SeqInputFormat seq_format;
  ASSERT_TRUE(CopyDataset(fs_.get(), &seq_format, {"/conv_seq"}, cof.get())
                  .ok());
  ASSERT_TRUE(cof->Close().ok());

  ColumnInputFormat cif;
  JobConfig config;
  config.input_paths = {"/conv_cif"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(cif.GetSplits(fs_.get(), config, &splits).ok());
  std::vector<Value> read_back;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(
        cif.CreateRecordReader(fs_.get(), config, split, ReadContext{}, &reader)
            .ok());
    while (reader->Next()) {
      Value record;
      ASSERT_TRUE(MaterializeRecord(&reader->record(), &record).ok());
      read_back.push_back(std::move(record));
    }
    ASSERT_TRUE(reader->status().ok());
  }
  ASSERT_EQ(read_back.size(), records_.size());
  // SEQ splits may reorder across files, but here there is a single part
  // file, so order is preserved end to end.
  for (size_t i = 0; i < records_.size(); ++i) {
    EXPECT_EQ(read_back[i].Compare(records_[i]), 0) << "record " << i;
  }
}

}  // namespace
}  // namespace colmr
