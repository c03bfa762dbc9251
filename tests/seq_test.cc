#include <gtest/gtest.h>

#include <tuple>

#include "common/coding.h"
#include "formats/seq/seq_file.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

ClusterConfig TestCluster(uint64_t block_size) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = block_size;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs(uint64_t block_size = 32 * 1024) {
  return std::make_unique<MiniHdfs>(
      TestCluster(block_size), std::make_unique<DefaultPlacementPolicy>(5));
}

/// A reader over the whole part file of the SEQ dataset at `path`.
std::unique_ptr<RecordReader> OpenWholeFile(MiniHdfs* fs,
                                            const std::string& path) {
  const std::string file = path + "/part-00000";
  uint64_t size = 0;
  EXPECT_TRUE(fs->GetFileSize(file, &size).ok());
  SeqInputFormat format;
  std::unique_ptr<RecordReader> reader;
  EXPECT_TRUE(format
                  .CreateRecordReader(fs, JobConfig{},
                                      InputSplit{{file}, 0, size, {}},
                                      ReadContext{}, &reader)
                  .ok());
  return reader;
}

Schema::Ptr IdSchema() {
  Schema::Ptr schema;
  Status s = Schema::Parse("record R { id: int, s: string, m: map<int> }",
                           &schema);
  EXPECT_TRUE(s.ok());
  return schema;
}

Value IdRecord(int id, Random* rng) {
  Value::MapEntries m;
  for (int i = 0; i < 3; ++i) {
    m.emplace_back(rng->NextWord(4), Value::Int32(id * 10 + i));
  }
  return Value::Record({Value::Int32(id),
                        Value::String(rng->NextString(10, 80)),
                        Value::Map(std::move(m))});
}

// (compression mode, codec, HDFS block size = split size)
using SeqCase = std::tuple<SeqCompression, CodecType, uint64_t>;

class SeqRoundTripTest : public ::testing::TestWithParam<SeqCase> {};

TEST_P(SeqRoundTripTest, AllRecordsExactlyOnce) {
  const auto& [compression, codec, block_size] = GetParam();
  auto fs = MakeFs(block_size);
  Schema::Ptr schema = IdSchema();

  SeqWriterOptions options;
  options.compression = compression;
  options.codec = codec;
  options.block_size = 2048;
  options.sync_interval = 1024;
  std::unique_ptr<SeqWriter> writer;
  ASSERT_TRUE(SeqWriter::Open(fs.get(), "/seq", schema, options, &writer).ok());

  Random rng(42);
  const int kRecords = 2000;
  std::vector<Value> originals;
  for (int i = 0; i < kRecords; ++i) {
    originals.push_back(IdRecord(i, &rng));
    ASSERT_TRUE(writer->WriteRecord(originals.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  SeqInputFormat format;
  JobConfig config;
  config.input_paths = {"/seq"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());

  std::vector<bool> seen(kRecords, false);
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    .CreateRecordReader(fs.get(), config, split, ReadContext{},
                                        &reader)
                    .ok());
    while (reader->Next()) {
      Record& record = reader->record();
      const int id = record.GetOrDie("id").int32_value();
      ASSERT_GE(id, 0);
      ASSERT_LT(id, kRecords);
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
      // Spot-check full record equality.
      EXPECT_EQ(record.GetOrDie("s").string_value(),
                originals[id].elements()[1].string_value());
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
  }
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_TRUE(seen[i]) << "record " << i << " lost";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSplits, SeqRoundTripTest,
    ::testing::Values(
        SeqCase{SeqCompression::kNone, CodecType::kNone, 32 * 1024},
        SeqCase{SeqCompression::kNone, CodecType::kNone, 3000},
        SeqCase{SeqCompression::kNone, CodecType::kNone, 10000},
        SeqCase{SeqCompression::kRecord, CodecType::kLzf, 32 * 1024},
        SeqCase{SeqCompression::kRecord, CodecType::kLzf, 5000},
        SeqCase{SeqCompression::kRecord, CodecType::kZlite, 8000},
        SeqCase{SeqCompression::kBlock, CodecType::kLzf, 32 * 1024},
        SeqCase{SeqCompression::kBlock, CodecType::kLzf, 4000},
        SeqCase{SeqCompression::kBlock, CodecType::kZlite, 12345}));

TEST(SeqTest, BlockCompressionShrinksDataset) {
  auto fs = MakeFs();
  Schema::Ptr schema = IdSchema();
  Random rng(1);
  // Compressible strings: a small vocabulary repeated (like page text).
  std::vector<std::string> vocab;
  for (int i = 0; i < 32; ++i) vocab.push_back(rng.NextWord(6));
  std::vector<Value> records;
  for (int i = 0; i < 1000; ++i) {
    std::string s;
    for (int w = 0; w < 12; ++w) {
      s += vocab[rng.Uniform(vocab.size())];
      s += ' ';
    }
    Value::MapEntries m;
    m.emplace_back("k", Value::Int32(i));
    records.push_back(Value::Record(
        {Value::Int32(i), Value::String(std::move(s)), Value::Map(m)}));
  }

  uint64_t sizes[2] = {0, 0};
  int idx = 0;
  for (SeqCompression mode :
       {SeqCompression::kNone, SeqCompression::kBlock}) {
    const std::string path = "/seq" + std::to_string(idx);
    SeqWriterOptions options;
    options.compression = mode;
    std::unique_ptr<SeqWriter> writer;
    ASSERT_TRUE(SeqWriter::Open(fs.get(), path, schema, options, &writer).ok());
    for (const Value& r : records) ASSERT_TRUE(writer->WriteRecord(r).ok());
    ASSERT_TRUE(writer->Close().ok());
    ASSERT_TRUE(fs->GetFileSize(path + "/part-00000", &sizes[idx]).ok());
    ++idx;
  }
  EXPECT_LT(sizes[1], sizes[0]);
}

TEST(SeqTest, CorruptSyncMarkerDetected) {
  auto fs = MakeFs();
  Schema::Ptr schema = IdSchema();
  SeqWriterOptions options;
  options.sync_interval = 256;
  std::unique_ptr<SeqWriter> writer;
  ASSERT_TRUE(SeqWriter::Open(fs.get(), "/seq", schema, options, &writer).ok());
  Random rng(9);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(writer->WriteRecord(IdRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  // Rewrite the file with a flipped byte inside the first sync escape.
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/seq/part-00000", ReadContext{}, &reader).ok());
  std::string contents;
  ASSERT_TRUE(reader->Read(0, reader->size(), &contents).ok());
  const size_t escape = contents.find("\xff\xff\xff\xff");
  ASSERT_NE(escape, std::string::npos);
  contents[escape + 6] ^= 0x5a;  // corrupt the marker body
  ASSERT_TRUE(fs->Delete("/seq/part-00000").ok());
  std::unique_ptr<FileWriter> rewriter;
  ASSERT_TRUE(fs->Create("/seq/part-00000", &rewriter).ok());
  rewriter->Append(contents);
  ASSERT_TRUE(rewriter->Close().ok());

  std::unique_ptr<RecordReader> scan = OpenWholeFile(fs.get(), "/seq");
  while (scan->Next()) {
  }
  EXPECT_TRUE(scan->status().IsCorruption());
}

TEST(SeqTest, EmptyDataset) {
  auto fs = MakeFs();
  Schema::Ptr schema = IdSchema();
  std::unique_ptr<SeqWriter> writer;
  ASSERT_TRUE(
      SeqWriter::Open(fs.get(), "/seq", schema, SeqWriterOptions{}, &writer)
          .ok());
  ASSERT_TRUE(writer->Close().ok());
  std::unique_ptr<RecordReader> reader = OpenWholeFile(fs.get(), "/seq");
  EXPECT_FALSE(reader->Next());
  EXPECT_TRUE(reader->status().ok());
}

// Golden-byte regression: the sync marker is a specified function of the
// dataset path (FNV-1a/splitmix64 seeded with kSeqSyncSeed), so the exact
// bytes must never drift across platforms, stdlibs, or refactors. If this
// fails, the on-disk format changed: old files' markers will no longer
// match a fresh writer's and split realignment breaks.
TEST(SeqTest, SyncMarkerBytesArePinned) {
  auto fs = MakeFs();
  Schema::Ptr schema = IdSchema();
  std::unique_ptr<SeqWriter> writer;
  ASSERT_TRUE(SeqWriter::Open(fs.get(), "/golden-seq", schema,
                              SeqWriterOptions{}, &writer)
                  .ok());
  ASSERT_TRUE(writer->Close().ok());

  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/golden-seq/part-00000", ReadContext{}, &reader).ok());
  std::string header;
  ASSERT_TRUE(reader->Read(0, reader->size(), &header).ok());

  // Header layout: magic(4) | length-prefixed schema | compression byte |
  // codec byte | sync(16).
  Slice cursor(header);
  ASSERT_GE(cursor.size(), 4u);
  cursor.RemovePrefix(4);
  Slice schema_text;
  ASSERT_TRUE(GetLengthPrefixed(&cursor, &schema_text).ok());
  ASSERT_GE(cursor.size(), 2u + 16u);
  cursor.RemovePrefix(2);

  const unsigned char kGolden[16] = {0x7c, 0x08, 0x95, 0x84, 0xb5, 0x44,
                                     0x78, 0x99, 0x78, 0xbc, 0x63, 0x28,
                                     0xb3, 0xa4, 0x1f, 0xdd};
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(cursor[i]), kGolden[i])
        << "sync marker byte " << i << " drifted";
  }
}

TEST(SeqTest, SchemaTravelsInHeader) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<SeqWriter> writer;
  ASSERT_TRUE(
      SeqWriter::Open(fs.get(), "/seq", schema, SeqWriterOptions{}, &writer)
          .ok());
  MicrobenchGenerator gen(3);
  ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  ASSERT_TRUE(writer->Close().ok());

  std::unique_ptr<RecordReader> reader = OpenWholeFile(fs.get(), "/seq");
  ASSERT_TRUE(reader->Next());
  EXPECT_TRUE(reader->record().schema().Equals(*schema));
}

}  // namespace
}  // namespace colmr
