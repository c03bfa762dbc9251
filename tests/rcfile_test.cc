#include <gtest/gtest.h>

#include <tuple>

#include "common/coding.h"
#include "formats/rcfile/rcfile_format.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 64 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<DefaultPlacementPolicy>(5));
}

// (row group size, codec, split size)
using RcCase = std::tuple<uint64_t, CodecType, uint64_t>;

class RcFileRoundTripTest : public ::testing::TestWithParam<RcCase> {};

TEST_P(RcFileRoundTripTest, AllRecordsExactlyOnce) {
  const auto& [row_group_size, codec, split_size] = GetParam();
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();

  RcFileWriterOptions options;
  options.row_group_size = row_group_size;
  options.codec = codec;
  std::unique_ptr<RcFileWriter> writer;
  ASSERT_TRUE(
      RcFileWriter::Open(fs.get(), "/rc", schema, options, &writer).ok());

  MicrobenchGenerator gen(11);
  const int kRecords = 1500;
  std::vector<Value> originals;
  for (int i = 0; i < kRecords; ++i) {
    Value record = gen.Next();
    // Tag each record with a unique int in int0 for identity checking.
    record.mutable_elements()->at(6) = Value::Int32(i);
    originals.push_back(record);
    ASSERT_TRUE(writer->WriteRecord(record).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  RcFileInputFormat format;
  JobConfig config;
  config.input_paths = {"/rc"};
  config.split_size = split_size;
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
      const int id = reader->record().GetOrDie("int0").int32_value();
      ASSERT_GE(id, 0);
      ASSERT_LT(id, kRecords);
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
      EXPECT_EQ(reader->record().GetOrDie("str3").string_value(),
                originals[id].elements()[3].string_value());
      EXPECT_EQ(reader->record()
                    .GetOrDie("map0")
                    .Compare(originals[id].elements()[12]),
                0);
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
  }
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_TRUE(seen[i]) << "record " << i << " lost";
  }
}

INSTANTIATE_TEST_SUITE_P(
    GroupSizesCodecsSplits, RcFileRoundTripTest,
    ::testing::Values(RcCase{16 * 1024, CodecType::kNone, 0},
                      RcCase{16 * 1024, CodecType::kNone, 20000},
                      RcCase{64 * 1024, CodecType::kNone, 50000},
                      RcCase{16 * 1024, CodecType::kLzf, 0},
                      RcCase{64 * 1024, CodecType::kLzf, 30000},
                      RcCase{16 * 1024, CodecType::kZlite, 0},
                      RcCase{4 * 1024, CodecType::kNone, 7000}));

TEST(RcFileTest, ProjectionMaterializesOnlyRequestedColumns) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<RcFileWriter> writer;
  ASSERT_TRUE(RcFileWriter::Open(fs.get(), "/rc", schema,
                                 RcFileWriterOptions{}, &writer)
                  .ok());
  MicrobenchGenerator gen(13);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  RcFileInputFormat format;
  JobConfig config;
  config.input_paths = {"/rc"};
  config.projection = {"int2", "map0"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  std::unique_ptr<RecordReader> reader;
  ASSERT_TRUE(format
                  .CreateRecordReader(fs.get(), config, splits[0],
                                      ReadContext{}, &reader)
                  .ok());
  ASSERT_TRUE(reader->Next());
  EXPECT_EQ(reader->record().GetOrDie("int2").kind(), TypeKind::kInt32);
  EXPECT_EQ(reader->record().GetOrDie("map0").kind(), TypeKind::kMap);
  // Unprojected column comes back null, not garbage.
  EXPECT_TRUE(reader->record().GetOrDie("str0").is_null());
}

TEST(RcFileTest, UnknownProjectedColumnRejected) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<RcFileWriter> writer;
  ASSERT_TRUE(RcFileWriter::Open(fs.get(), "/rc", schema,
                                 RcFileWriterOptions{}, &writer)
                  .ok());
  MicrobenchGenerator gen(14);
  ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  ASSERT_TRUE(writer->Close().ok());

  RcFileInputFormat format;
  JobConfig config;
  config.input_paths = {"/rc"};
  config.projection = {"no_such_col"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  std::unique_ptr<RecordReader> reader;
  EXPECT_TRUE(format
                  .CreateRecordReader(fs.get(), config, splits[0],
                                      ReadContext{}, &reader)
                  .IsInvalidArgument());
}

TEST(RcFileTest, ProjectionReadsFewerBytesThanFullScan) {
  // The I/O-elimination property Fig. 7 measures: projecting one narrow
  // column must fetch fewer bytes than scanning everything — but, because
  // of row-group metadata and buffer-granularity read-ahead, still far more
  // than the column's own bytes (CIF's advantage).
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  RcFileWriterOptions options;
  options.row_group_size = 64 * 1024;
  std::unique_ptr<RcFileWriter> writer;
  ASSERT_TRUE(
      RcFileWriter::Open(fs.get(), "/rc", schema, options, &writer).ok());
  MicrobenchGenerator gen(15);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  auto scan_bytes = [&](std::vector<std::string> projection) {
    RcFileInputFormat format;
    JobConfig config;
    config.input_paths = {"/rc"};
    config.projection = std::move(projection);
    std::vector<InputSplit> splits;
    EXPECT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    IoStats stats;
    for (const InputSplit& split : splits) {
      std::unique_ptr<RecordReader> reader;
      EXPECT_TRUE(format
                      .CreateRecordReader(fs.get(), config, split,
                                          ReadContext{kAnyNode, &stats},
                                          &reader)
                      .ok());
      while (reader->Next()) {
      }
      EXPECT_TRUE(reader->status().ok());
    }
    return stats.TotalBytes();
  };

  const uint64_t one_int = scan_bytes({"int0"});
  const uint64_t all = scan_bytes({});
  EXPECT_LT(one_int, all);
  // ... but the metadata + read-ahead overhead keeps it well above the
  // actual size of one int column (3000 records × ~2 bytes).
  EXPECT_GT(one_int, 30u * 3000u);
}

// Golden-byte regression: the sync marker is a specified function of the
// dataset path (FNV-1a/splitmix64 seeded with kRcSyncSeed). Pinning the
// exact bytes catches any platform- or refactor-induced drift in the
// on-disk format — old files would stop realigning at split boundaries.
TEST(RcFileTest, SyncMarkerBytesArePinned) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<RcFileWriter> writer;
  ASSERT_TRUE(RcFileWriter::Open(fs.get(), "/golden-rc", schema,
                                 RcFileWriterOptions{}, &writer)
                  .ok());
  ASSERT_TRUE(writer->Close().ok());

  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/golden-rc/part-00000", ReadContext{}, &reader).ok());
  std::string header;
  ASSERT_TRUE(reader->Read(0, reader->size(), &header).ok());

  // Header layout: magic(4) | length-prefixed schema | codec byte |
  // sync(16).
  Slice cursor(header);
  ASSERT_GE(cursor.size(), 4u);
  cursor.RemovePrefix(4);
  Slice schema_text;
  ASSERT_TRUE(GetLengthPrefixed(&cursor, &schema_text).ok());
  ASSERT_GE(cursor.size(), 1u + 16u);
  cursor.RemovePrefix(1);

  const unsigned char kGolden[16] = {0x9c, 0x06, 0xf0, 0x3c, 0x30, 0xf8,
                                     0x5e, 0x83, 0xfd, 0xd7, 0x07, 0x36,
                                     0xc9, 0x9a, 0xe0, 0x24};
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(cursor[i]), kGolden[i])
        << "sync marker byte " << i << " drifted";
  }
}

TEST(RcFileTest, CompressionShrinksFile) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  uint64_t sizes[2];
  int idx = 0;
  for (CodecType codec : {CodecType::kNone, CodecType::kZlite}) {
    RcFileWriterOptions options;
    options.codec = codec;
    const std::string path = "/rc" + std::to_string(idx);
    std::unique_ptr<RcFileWriter> writer;
    ASSERT_TRUE(
        RcFileWriter::Open(fs.get(), path, schema, options, &writer).ok());
    MicrobenchGenerator gen(16);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
    ASSERT_TRUE(fs->GetFileSize(path + "/part-00000", &sizes[idx]).ok());
    ++idx;
  }
  EXPECT_LT(sizes[1], sizes[0]);
}

}  // namespace
}  // namespace colmr
