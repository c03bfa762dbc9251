#include <gtest/gtest.h>

#include <tuple>

#include "cif/cif.h"
#include "cif/cof.h"
#include "cif/column_reader.h"
#include "cif/column_stats.h"
#include "cif/column_writer.h"
#include "cif/lazy_record.h"
#include "cif/loader.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 6;
  config.block_size = 64 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(5));
}

Value MapValue(int i, Random* rng) {
  Value::MapEntries entries;
  const char* const keys[] = {"content-type", "server", "charset", "lang"};
  for (int k = 0; k < 4; ++k) {
    entries.emplace_back(keys[(i + k) % 4],
                         Value::String(rng->NextString(3, 12)));
  }
  return Value::Map(std::move(entries));
}

// ---- Column file layer ----

class ColumnLayoutTest : public ::testing::TestWithParam<ColumnLayout> {};

TEST_P(ColumnLayoutTest, SequentialRoundTrip) {
  const ColumnLayout layout = GetParam();
  auto fs = MakeFs();
  const bool is_map = layout == ColumnLayout::kDictSkipList;
  Schema::Ptr type =
      is_map ? Schema::Map(Schema::String()) : Schema::String();
  ColumnOptions options;
  options.layout = layout;
  options.block_size = 2048;

  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(
      ColumnFileWriter::Create(fs.get(), "/c.col", type, options, &writer)
          .ok());
  Random rng(7);
  const int kRows = 3456;  // not a multiple of any skip interval
  std::vector<Value> originals;
  for (int i = 0; i < kRows; ++i) {
    originals.push_back(is_map ? MapValue(i, &rng)
                               : Value::String(rng.NextString(5, 50)));
    ASSERT_TRUE(writer->Append(originals.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->row_count(), static_cast<uint64_t>(kRows));

  std::unique_ptr<ColumnFileReader> reader;
  ASSERT_TRUE(
      ColumnFileReader::Open(fs.get(), "/c.col", ReadContext{}, &reader).ok());
  EXPECT_EQ(reader->row_count(), static_cast<uint64_t>(kRows));
  EXPECT_EQ(reader->layout(), layout);
  EXPECT_TRUE(reader->type()->Equals(*type));
  ColumnBatch batch;
  Value v;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(reader->NextBatch(1, &batch).ok()) << "row " << i;
    ASSERT_EQ(batch.size(), 1u) << "row " << i;
    batch.MaterializeInto(0, &v);
    EXPECT_EQ(v.Compare(originals[i]), 0) << "row " << i;
  }
  ASSERT_TRUE(reader->NextBatch(1, &batch).ok());
  EXPECT_EQ(batch.size(), 0u);  // end of column: an empty batch
}

// A wide value for the skip walker's edges: strings of 300-900 bytes, or
// DCSL-able maps of 10-14 entries of 30-60 bytes, so ten rows pass 4 KiB;
// every 50th value alone passes 4 KiB.
Value WideValue(int i, bool is_map, Random* rng) {
  const bool huge = i % 50 == 7;
  if (!is_map) {
    return huge ? Value::String(rng->NextString(4200, 6000))
                : Value::String(rng->NextString(300, 900));
  }
  Value::MapEntries entries;
  const int n = 10 + static_cast<int>(rng->Uniform(5));
  for (int k = 0; k < n; ++k) {
    entries.emplace_back("key" + std::to_string((i + k) % 16),
                         Value::String(huge ? rng->NextString(400, 420)
                                            : rng->NextString(30, 60)));
  }
  return Value::Map(std::move(entries));
}

// What SkipRows met on a truncated copy of the wide column.
struct TruncatedSkip {
  std::string status;
  uint64_t row = 0;
  uint64_t values_skipped = 0;
};

// Writes the first `keep` bytes of `from` to `to`, then skips `step` rows
// at a time over the copy until SkipRows fails or the rows run out.
TruncatedSkip SkipTruncatedCopy(MiniHdfs* fs, const std::string& from,
                                const std::string& to, uint64_t keep,
                                uint64_t step) {
  std::unique_ptr<FileReader> raw;
  EXPECT_TRUE(fs->Open(from, ReadContext{}, &raw).ok());
  std::string bytes;
  EXPECT_TRUE(raw->Read(0, keep, &bytes).ok());
  std::unique_ptr<FileWriter> writer;
  EXPECT_TRUE(fs->Create(to, &writer).ok());
  writer->Append(bytes);
  EXPECT_TRUE(writer->Close().ok());
  MetricsRegistry metrics;
  std::unique_ptr<ColumnFileReader> reader;
  EXPECT_TRUE(ColumnFileReader::Open(
                  fs, to, ReadContext{kAnyNode, nullptr, 0, &metrics, nullptr},
                  &reader)
                  .ok());
  Status s;
  while (s.ok() && reader->current_row() < reader->row_count()) {
    s = reader->SkipRows(step);
  }
  return {s.ToString(), reader->current_row(),
          metrics.counter("cif.scan.values_skipped")->value()};
}

TEST_P(ColumnLayoutTest, RandomSkipPatternsMatchSequential) {
  // Property: any interleaving of SkipRows and one-row NextBatch observes
  // exactly the values a sequential scan would at those rows — walking
  // the skip lists, or jumping by the footer's rowgroup offsets. Walks
  // run uncached; jumps run once the block cache is attached, so every
  // rowgroup-crossing skip can land in a cached block. Narrow values fit
  // many to a 4 KiB window. Wide ones, read through the default 128 KiB
  // buffer, make walks cross window fills, values straddle window edges
  // and the 1 KiB compressed blocks, and single values outgrow the
  // walker's 4 KiB peek.
  const ColumnLayout layout = GetParam();
  const bool is_map = layout == ColumnLayout::kDictSkipList;
  Schema::Ptr type = is_map ? Schema::Map(Schema::String()) : Schema::String();
  ColumnOptions options;
  options.layout = layout;
  options.block_size = 1024;

  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide" : "narrow");
    ClusterConfig cluster = TestCluster();
    if (wide) cluster.io_buffer_size = 128 * 1024;
    auto fs = std::make_unique<MiniHdfs>(
        cluster, std::make_unique<ColumnPlacementPolicy>(5));
    std::unique_ptr<ColumnFileWriter> writer;
    ASSERT_TRUE(
        ColumnFileWriter::Create(fs.get(), "/c.col", type, options, &writer)
            .ok());
    Random rng(8);
    const int kRows = wide ? 3000 : 5000;
    std::vector<Value> originals;
    for (int i = 0; i < kRows; ++i) {
      if (wide) {
        originals.push_back(WideValue(i, is_map, &rng));
      } else {
        originals.push_back(is_map ? MapValue(i, &rng)
                                   : Value::String(rng.NextString(5, 30)));
      }
      ASSERT_TRUE(writer->Append(originals.back()).ok());
    }
    ASSERT_TRUE(writer->Close().ok());

    ColumnFileStats footer;
    bool present = false;
    ASSERT_TRUE(
        ReadColumnStats(fs.get(), "/c.col", ReadContext{}, &footer, &present)
            .ok());
    ASSERT_TRUE(present);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      const bool use_offsets = seed > 5;
      SCOPED_TRACE(use_offsets ? "jump" : "walk");
      if (use_offsets && seed == 6) {
        fs->EnsureBlockCache(16 << 20, nullptr);
        // Narrow jumps start cold, so misses that fall back to the walk
        // mix with jumps that hit. From a cold cache no wide jump would
        // hit (jumped_bytes stays 0): warm every block there, so each
        // rowgroup-crossing skip can jump.
        if (wide) {
          std::unique_ptr<FileReader> warm;
          ASSERT_TRUE(fs->Open("/c.col", ReadContext{}, &warm).ok());
          std::string all;
          ASSERT_TRUE(warm->Read(0, warm->size(), &all).ok());
        }
      }
      MetricsRegistry metrics;
      std::unique_ptr<ColumnFileReader> reader;
      ASSERT_TRUE(ColumnFileReader::Open(
                      fs.get(), "/c.col",
                      ReadContext{kAnyNode, nullptr, 0, &metrics, nullptr},
                      &reader)
                      .ok());
      if (use_offsets) reader->UseRowgroupOffsets(footer);
      Random skip_rng(seed);
      uint64_t row = 0;
      while (row < static_cast<uint64_t>(kRows)) {
        // Mixture of tiny, medium, and skip-list-sized jumps.
        uint64_t jump;
        switch (skip_rng.Uniform(4)) {
          case 0:
            jump = skip_rng.Uniform(3);
            break;
          case 1:
            jump = 5 + skip_rng.Uniform(20);
            break;
          case 2:
            jump = 80 + skip_rng.Uniform(200);
            break;
          default:
            jump = 900 + skip_rng.Uniform(1500);
            break;
        }
        jump = std::min<uint64_t>(jump, kRows - row);
        ASSERT_TRUE(reader->SkipRows(jump).ok());
        row += jump;
        if (row >= static_cast<uint64_t>(kRows)) break;
        ColumnBatch batch;
        ASSERT_TRUE(reader->NextBatch(1, &batch).ok()) << "row " << row;
        ASSERT_EQ(batch.size(), 1u) << "row " << row;
        Value v;
        batch.MaterializeInto(0, &v);
        EXPECT_EQ(v.Compare(originals[row]), 0) << "row " << row;
        ++row;
      }
      // Compressed-block columns carry no offsets, so they always walk.
      const bool has_offsets = layout != ColumnLayout::kCompressedBlocks;
      EXPECT_EQ(metrics.counter("cif.scan.jumped_bytes")->value() > 0,
                use_offsets && has_offsets);
    }
    if (!wide) continue;

    // A truncated copy: skipping 7 rows at a time walks every value, and
    // one skip over all rows takes the skip blocks. SkipRows fails with
    // the status, at the row and after the values skipped that
    // value-by-value skipping reached (literals recorded from it).
    std::unique_ptr<FileReader> whole;
    ASSERT_TRUE(fs->Open("/c.col", ReadContext{}, &whole).ok());
    const uint64_t keep = whole->size() * 3 / 5;
    const TruncatedSkip walked =
        SkipTruncatedCopy(fs.get(), "/c.col", "/t7.col", keep, 7);
    const TruncatedSkip blocks =
        SkipTruncatedCopy(fs.get(), "/c.col", "/tall.col", keep, kRows);
    const auto expect = [](const TruncatedSkip& got, const char* status,
                           uint64_t row, uint64_t values_skipped) {
      EXPECT_EQ(got.status, status);
      EXPECT_EQ(got.row, row);
      EXPECT_EQ(got.values_skipped, values_skipped);
    };
    const char* const kLength = "Corruption: truncated length-prefixed bytes";
    switch (layout) {
      case ColumnLayout::kPlain:
        expect(walked, kLength, 1795, 1795);
        expect(blocks, kLength, 1795, 1795);
        break;
      case ColumnLayout::kSkipList:
        expect(walked, kLength, 1795, 1795);
        expect(blocks, "Corruption: truncated fixed32", 2000, 0);
        break;
      case ColumnLayout::kCompressedBlocks:
        expect(walked, "Corruption: truncated varint", 1796, 333);
        expect(blocks, "Corruption: truncated varint", 1796, 0);
        break;
      case ColumnLayout::kDictSkipList:
        expect(walked, kLength, 1796, 1796);
        expect(blocks, "Corruption: truncated fixed32", 2000, 0);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, ColumnLayoutTest,
                         ::testing::Values(ColumnLayout::kPlain,
                                           ColumnLayout::kSkipList,
                                           ColumnLayout::kCompressedBlocks,
                                           ColumnLayout::kDictSkipList));

TEST(ColumnFileTest, SkipToExactEnd) {
  auto fs = MakeFs();
  ColumnOptions options;
  options.layout = ColumnLayout::kSkipList;
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/c.col", Schema::Int32(),
                                       options, &writer)
                  .ok());
  for (int i = 0; i < 2500; ++i) {
    ASSERT_TRUE(writer->Append(Value::Int32(i)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  std::unique_ptr<ColumnFileReader> reader;
  ASSERT_TRUE(
      ColumnFileReader::Open(fs.get(), "/c.col", ReadContext{}, &reader).ok());
  ASSERT_TRUE(reader->SkipRows(2500).ok());
  EXPECT_EQ(reader->current_row(), 2500u);
  ColumnBatch batch;
  EXPECT_TRUE(reader->NextBatch(1, &batch).ok());
  EXPECT_EQ(batch.size(), 0u);  // end of column: an empty batch
  // Skipping past the end clamps.
  ASSERT_TRUE(reader->SkipRows(10).ok());
  EXPECT_EQ(reader->current_row(), 2500u);
}

// The v2 footer's rowgroup offsets are the positions a skip-list walk
// reaches: each group's first skip block (DCSL: its dictionary block), or
// its first value in a plain column. Null values take no bytes, so a plain
// null column repeats one offset. Compressed-block columns carry none.
TEST(ColumnFileTest, FooterOffsetsMatchSkipListWalk) {
  auto fs = MakeFs();
  const std::pair<ColumnLayout, Schema::Ptr> shapes[] = {
      {ColumnLayout::kPlain, Schema::String()},
      {ColumnLayout::kSkipList, Schema::String()},
      {ColumnLayout::kDictSkipList, Schema::Map(Schema::String())},
      {ColumnLayout::kPlain, Schema::Null()},
      {ColumnLayout::kSkipList, Schema::Null()},
      {ColumnLayout::kCompressedBlocks, Schema::String()},
  };
  Random rng(9);
  int file = 0;
  for (const auto& [layout, type] : shapes) {
    for (const uint64_t rows : {0, 1, 999, 1000, 1001, 2500}) {
      const std::string path = "/o" + std::to_string(file++) + ".col";
      SCOPED_TRACE(type->ToString() + " layout " +
                   std::to_string(static_cast<int>(layout)) + " rows " +
                   std::to_string(rows));
      ColumnOptions options;
      options.layout = layout;
      std::unique_ptr<ColumnFileWriter> writer;
      ASSERT_TRUE(
          ColumnFileWriter::Create(fs.get(), path, type, options, &writer)
              .ok());
      for (uint64_t i = 0; i < rows; ++i) {
        Value value = Value::Null();
        if (type->kind() == TypeKind::kMap) {
          value = MapValue(static_cast<int>(i), &rng);
        } else if (type->kind() == TypeKind::kString) {
          value = Value::String(rng.NextString(5, 50));
        }
        ASSERT_TRUE(writer->Append(value).ok());
      }
      ASSERT_TRUE(writer->Close().ok());

      ColumnFileStats stats;
      bool present = false;
      ASSERT_TRUE(
          ReadColumnStats(fs.get(), path, ReadContext{}, &stats, &present)
              .ok());
      ASSERT_TRUE(present);
      if (layout == ColumnLayout::kCompressedBlocks) {
        EXPECT_TRUE(stats.group_offsets.empty());
        continue;
      }
      ASSERT_EQ(stats.group_offsets.size(), (rows + 999) / 1000);
      for (uint64_t g = 0; g < stats.group_offsets.size(); ++g) {
        std::unique_ptr<ColumnFileReader> reader;
        ASSERT_TRUE(
            ColumnFileReader::Open(fs.get(), path, ReadContext{}, &reader)
                .ok());
        ASSERT_TRUE(reader->SkipRows(g * 1000).ok());
        EXPECT_EQ(reader->byte_offset(), stats.group_offsets[g])
            << "group " << g;
      }
    }
  }
}

TEST(ColumnFileTest, DcslRequiresMapColumn) {
  auto fs = MakeFs();
  ColumnOptions options;
  options.layout = ColumnLayout::kDictSkipList;
  std::unique_ptr<ColumnFileWriter> writer;
  EXPECT_TRUE(ColumnFileWriter::Create(fs.get(), "/c.col", Schema::Int32(),
                                       options, &writer)
                  .IsInvalidArgument());
}

TEST(ColumnFileTest, DcslCompressesRepeatedKeys) {
  // Map keys repeat across records; DCSL should store each key once per
  // group instead of once per record.
  auto fs = MakeFs();
  Schema::Ptr type = Schema::Map(Schema::Int32());
  Random rng(3);
  std::vector<Value> values;
  for (int i = 0; i < 2000; ++i) {
    Value::MapEntries entries;
    entries.emplace_back("content-type", Value::Int32(i));
    entries.emplace_back("content-length", Value::Int32(i * 2));
    entries.emplace_back("cache-control-header", Value::Int32(i * 3));
    values.push_back(Value::Map(std::move(entries)));
  }
  uint64_t sizes[2];
  int idx = 0;
  for (ColumnLayout layout :
       {ColumnLayout::kPlain, ColumnLayout::kDictSkipList}) {
    ColumnOptions options;
    options.layout = layout;
    const std::string path = "/c" + std::to_string(idx) + ".col";
    std::unique_ptr<ColumnFileWriter> writer;
    ASSERT_TRUE(
        ColumnFileWriter::Create(fs.get(), path, type, options, &writer).ok());
    for (const Value& v : values) ASSERT_TRUE(writer->Append(v).ok());
    ASSERT_TRUE(writer->Close().ok());
    ASSERT_TRUE(fs->GetFileSize(path, &sizes[idx]).ok());
    ++idx;
  }
  EXPECT_LT(sizes[1], sizes[0]);
}

TEST(ColumnFileTest, SkipListSavesWorkOnSparseAccess) {
  // The Fig. 10 mechanism: reading 1-in-1000 rows from a skip-list column
  // should fetch far fewer bytes than from a plain column.
  auto fs = MakeFs();
  Random rng(4);
  // Values sized like the paper's complex columns (KBs), so 10-row and
  // 100-row jumps land outside the 4 KB read buffer.
  std::vector<Value> values;
  for (int i = 0; i < 8000; ++i) {
    values.push_back(Value::String(rng.NextString(900, 1200)));
  }
  uint64_t bytes[2];
  int idx = 0;
  for (ColumnLayout layout : {ColumnLayout::kPlain, ColumnLayout::kSkipList}) {
    ColumnOptions options;
    options.layout = layout;
    const std::string path = "/c" + std::to_string(idx) + ".col";
    std::unique_ptr<ColumnFileWriter> writer;
    ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), path, Schema::String(),
                                         options, &writer)
                    .ok());
    for (const Value& v : values) ASSERT_TRUE(writer->Append(v).ok());
    ASSERT_TRUE(writer->Close().ok());

    IoStats stats;
    std::unique_ptr<ColumnFileReader> reader;
    ASSERT_TRUE(ColumnFileReader::Open(fs.get(), path,
                                       ReadContext{kAnyNode, &stats}, &reader)
                    .ok());
    for (uint64_t row = 0; row + 1000 <= 8000; row += 1000) {
      ASSERT_TRUE(reader->SkipRows(999).ok());
      ColumnBatch batch;
      ASSERT_TRUE(reader->NextBatch(1, &batch).ok());
      ASSERT_EQ(batch.size(), 1u);
      Value v;
      batch.MaterializeInto(0, &v);
      EXPECT_EQ(v.Compare(values[reader->current_row() - 1]), 0);
    }
    bytes[idx] = stats.TotalBytes();
    ++idx;
  }
  EXPECT_LT(bytes[1], bytes[0] / 4);
}

// ---- COF / CIF layer ----

CofOptions SmallSplits() {
  CofOptions options;
  options.split_target_bytes = 64 * 1024;
  return options;
}

TEST(CofTest, WritesSplitDirectoriesWithSchemas) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/data/ds", schema, SmallSplits(), &writer)
          .ok());
  MicrobenchGenerator gen(21);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_GT(writer->split_count(), 1);

  std::vector<std::string> children;
  ASSERT_TRUE(fs->ListDir("/data/ds", &children).ok());
  EXPECT_EQ(static_cast<int>(children.size()), writer->split_count());
  ASSERT_TRUE(fs->ListDir("/data/ds/s0", &children).ok());
  // 13 column files + _schema
  EXPECT_EQ(children.size(), 14u);
  EXPECT_TRUE(fs->Exists("/data/ds/s0/map0.col"));
  EXPECT_TRUE(fs->Exists("/data/ds/s0/_schema"));
}

TEST(CifTest, EagerAndLazyAgreeWithSource) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<CofWriter> writer;
  CofOptions cof = SmallSplits();
  cof.default_column.layout = ColumnLayout::kSkipList;
  cof.column_overrides["map0"] = {ColumnLayout::kDictSkipList};
  ASSERT_TRUE(CofWriter::Open(fs.get(), "/ds", schema, cof, &writer).ok());
  MicrobenchGenerator gen(22);
  const int kRecords = 3000;
  std::vector<Value> originals;
  for (int i = 0; i < kRecords; ++i) {
    Value record = gen.Next();
    record.mutable_elements()->at(6) = Value::Int32(i);
    originals.push_back(record);
    ASSERT_TRUE(writer->WriteRecord(record).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  for (bool lazy : {false, true}) {
    ColumnInputFormat format;
    JobConfig config;
    config.input_paths = {"/ds"};
    config.lazy_records = lazy;
    std::vector<InputSplit> splits;
    ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    std::vector<bool> seen(kRecords, false);
    for (const InputSplit& split : splits) {
      std::unique_ptr<RecordReader> reader;
      ASSERT_TRUE(format
                      .CreateRecordReader(fs.get(), config, split,
                                          ReadContext{}, &reader)
                      .ok());
      while (reader->Next()) {
        Record& record = reader->record();
        const int id = record.GetOrDie("int0").int32_value();
        ASSERT_GE(id, 0);
        ASSERT_LT(id, kRecords);
        EXPECT_FALSE(seen[id]);
        seen[id] = true;
        EXPECT_EQ(record.GetOrDie("str1").Compare(originals[id].elements()[1]),
                  0);
        EXPECT_EQ(record.GetOrDie("map0").Compare(originals[id].elements()[12]),
                  0);
      }
      ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
    }
    for (int i = 0; i < kRecords; ++i) {
      EXPECT_TRUE(seen[i]) << "lazy=" << lazy << " record " << i;
    }
  }
}

TEST(CifTest, ProjectionSkipsUnprojectedFiles) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/ds", schema, SmallSplits(), &writer).ok());
  MicrobenchGenerator gen(23);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/ds"};
  config.projection = {"int0"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    config.lazy_records = lazy;
    for (const InputSplit& split : splits) {
      // Only the projected column file appears in the split.
      ASSERT_EQ(split.paths.size(), 1u);
      EXPECT_NE(split.paths[0].find("int0.col"), std::string::npos);
      std::unique_ptr<RecordReader> reader;
      ASSERT_TRUE(format
                      .CreateRecordReader(fs.get(), config, split,
                                          ReadContext{}, &reader)
                      .ok());
      ASSERT_TRUE(reader->Next());
      EXPECT_EQ(reader->record().GetOrDie("int0").kind(), TypeKind::kInt32);
      // An unprojected field materializes as Null in both modes, so a map
      // function that works eager works lazy; an unknown name is NotFound.
      EXPECT_TRUE(reader->record().GetOrDie("str0").is_null());
      const Value* v = nullptr;
      EXPECT_TRUE(reader->record().Get("no_such_field", &v).IsNotFound());
    }
  }
}

TEST(CifTest, LazyRecordSkipsUntouchedColumns) {
  // The Fig. 5 behaviour: when the map function only reads the heavy
  // column for matching records, lazy construction reads far fewer bytes.
  auto fs = MakeFs();
  Schema::Ptr schema;
  ASSERT_TRUE(
      Schema::Parse("record R { flag: int, heavy: string }", &schema).ok());
  CofOptions cof;
  cof.split_target_bytes = 16ull << 20;  // single split
  cof.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(CofWriter::Open(fs.get(), "/ds", schema, cof, &writer).ok());
  Random rng(31);
  const int kRecords = 20000;
  for (int i = 0; i < kRecords; ++i) {
    // 0.5% of records are flagged; the heavy column is ~1 KB per value
    // (like the paper's metadata/content columns), so multi-row skips
    // jump past whole read buffers.
    ASSERT_TRUE(writer
                    ->WriteRecord(Value::Record(
                        {Value::Int32(rng.OneIn(200) ? 1 : 0),
                         Value::String(rng.NextString(900, 1100))}))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  uint64_t bytes[2];
  int idx = 0;
  for (bool lazy : {false, true}) {
    ColumnInputFormat format;
    JobConfig config;
    config.input_paths = {"/ds"};
    config.lazy_records = lazy;
    std::vector<InputSplit> splits;
    ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    IoStats stats;
    uint64_t hits = 0;
    for (const InputSplit& split : splits) {
      std::unique_ptr<RecordReader> reader;
      ASSERT_TRUE(format
                      .CreateRecordReader(fs.get(), config, split,
                                          ReadContext{kAnyNode, &stats},
                                          &reader)
                      .ok());
      while (reader->Next()) {
        if (reader->record().GetOrDie("flag").int32_value() == 1) {
          hits += reader->record().GetOrDie("heavy").string_value().size();
        }
      }
      ASSERT_TRUE(reader->status().ok());
    }
    EXPECT_GT(hits, 0u);
    bytes[idx++] = stats.TotalBytes();
  }
  EXPECT_LT(bytes[1], bytes[0] / 2)
      << "lazy=" << bytes[1] << " eager=" << bytes[0];
}

TEST(CifTest, AddColumnIsIncrementalAndReadable) {
  auto fs = MakeFs();
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { a: int, s: string }", &schema).ok());
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/ds", schema, SmallSplits(), &writer).ok());
  Random rng(6);
  const int kRecords = 4000;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(writer
                    ->WriteRecord(Value::Record(
                        {Value::Int32(i), Value::String(rng.NextString(20, 40))}))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  // Record the bytes of the existing column files: AddColumn must not
  // rewrite any of them (CIF's advantage over RCFile, Section 4.3).
  std::vector<std::pair<std::string, uint64_t>> before;
  std::vector<std::string> subdirs;
  ASSERT_TRUE(fs->ListDir("/ds", &subdirs).ok());
  for (const std::string& sub : subdirs) {
    for (const char* col : {"a.col", "s.col"}) {
      const std::string path = "/ds/" + sub + "/" + col;
      uint64_t size;
      ASSERT_TRUE(fs->GetFileSize(path, &size).ok());
      before.emplace_back(path, size);
    }
  }

  ASSERT_TRUE(AddColumn(fs.get(), "/ds", "doubled", Schema::Int64(),
                        ColumnOptions{},
                        [](const Value& record) {
                          return Value::Int64(
                              2ll * record.elements()[0].int32_value());
                        })
                  .ok());

  for (const auto& [path, size] : before) {
    uint64_t after;
    ASSERT_TRUE(fs->GetFileSize(path, &after).ok());
    EXPECT_EQ(after, size) << path << " was rewritten";
  }

  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/ds"};
  config.projection = {"a", "doubled"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  uint64_t count = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    .CreateRecordReader(fs.get(), config, split, ReadContext{},
                                        &reader)
                    .ok());
    while (reader->Next()) {
      EXPECT_EQ(reader->record().GetOrDie("doubled").int64_value(),
                2ll * reader->record().GetOrDie("a").int32_value());
      ++count;
    }
    ASSERT_TRUE(reader->status().ok());
  }
  EXPECT_EQ(count, static_cast<uint64_t>(kRecords));

  // Adding a duplicate column is rejected.
  EXPECT_TRUE(AddColumn(fs.get(), "/ds", "doubled", Schema::Int64(),
                        ColumnOptions{},
                        [](const Value&) { return Value::Int64(0); })
                  .IsAlreadyExists());
}

TEST(CifTest, CopyDatasetBetweenFormats) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/src", schema, SmallSplits(), &writer).ok());
  MicrobenchGenerator gen(29);
  std::vector<Value> originals;
  for (int i = 0; i < 500; ++i) {
    originals.push_back(gen.Next());
    ASSERT_TRUE(writer->WriteRecord(originals.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  // CIF -> CIF copy through the generic loader.
  std::unique_ptr<CofWriter> dest;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/dst", schema, SmallSplits(), &dest).ok());
  ColumnInputFormat cif;
  ASSERT_TRUE(CopyDataset(fs.get(), &cif, {"/src"}, dest.get()).ok());
  ASSERT_TRUE(dest->Close().ok());
  EXPECT_EQ(dest->record_count(), 500u);

  JobConfig config;
  config.input_paths = {"/dst"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(cif.GetSplits(fs.get(), config, &splits).ok());
  size_t i = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(
        cif.CreateRecordReader(fs.get(), config, split, ReadContext{}, &reader)
            .ok());
    while (reader->Next()) {
      Value record;
      ASSERT_TRUE(MaterializeRecord(&reader->record(), &record).ok());
      EXPECT_EQ(record.Compare(originals[i]), 0) << "record " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, originals.size());
}

TEST(CifTest, SplitsAreColocatedUnderCpp) {
  auto fs = MakeFs();  // uses ColumnPlacementPolicy
  Schema::Ptr schema = MicrobenchSchema();
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/ds", schema, SmallSplits(), &writer).ok());
  MicrobenchGenerator gen(30);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/ds"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  ASSERT_GT(splits.size(), 1u);
  for (const InputSplit& split : splits) {
    // CPP guarantees all column files share their replica set.
    EXPECT_EQ(split.locations.size(), 3u);
  }
}

}  // namespace
}  // namespace colmr

namespace colmr {
namespace {

TEST(CifTest, SchemaEvolutionToleranceAcrossPartitions) {
  // Two day-partitions: day2 was ingested after an AddColumn, day1 before.
  // With null_for_missing_columns the union query runs, and day1's rows
  // answer the new column with Null.
  auto fs = MakeFs();
  Schema::Ptr old_schema, new_schema;
  ASSERT_TRUE(Schema::Parse("record R { id: int, s: string }", &old_schema)
                  .ok());
  new_schema = Schema::WithField(old_schema, {"score", Schema::Int64()});

  CofOptions options;
  options.split_target_bytes = 64 * 1024;
  std::unique_ptr<CofWriter> day1, day2;
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/ds/day1", old_schema, options, &day1).ok());
  ASSERT_TRUE(
      CofWriter::Open(fs.get(), "/ds/day2", new_schema, options, &day2).ok());
  Random rng(12);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(day1->WriteRecord(
                        Value::Record({Value::Int32(i),
                                       Value::String(rng.NextString(5, 20))}))
                    .ok());
    ASSERT_TRUE(day2->WriteRecord(Value::Record(
                                      {Value::Int32(1000 + i),
                                       Value::String(rng.NextString(5, 20)),
                                       Value::Int64(i * 10)}))
                    .ok());
  }
  ASSERT_TRUE(day1->Close().ok());
  ASSERT_TRUE(day2->Close().ok());

  for (bool lazy : {false, true}) {
    ColumnInputFormat format;
    JobConfig config;
    config.input_paths = {"/ds/day1", "/ds/day2"};
    config.projection = {"id", "score"};
    config.lazy_records = lazy;
    config.null_for_missing_columns = true;
    std::vector<InputSplit> splits;
    ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    int with_score = 0, without_score = 0;
    for (const InputSplit& split : splits) {
      std::unique_ptr<RecordReader> reader;
      ASSERT_TRUE(format
                      .CreateRecordReader(fs.get(), config, split,
                                          ReadContext{}, &reader)
                      .ok());
      while (reader->Next()) {
        const Value& score = reader->record().GetOrDie("score");
        const int id = reader->record().GetOrDie("id").int32_value();
        if (score.is_null()) {
          EXPECT_LT(id, 1000);
          ++without_score;
        } else {
          EXPECT_GE(id, 1000);
          EXPECT_EQ(score.int64_value(), (id - 1000) * 10);
          ++with_score;
        }
      }
      ASSERT_TRUE(reader->status().ok());
    }
    EXPECT_EQ(with_score, 300);
    EXPECT_EQ(without_score, 300);
  }

  // Without the tolerance flag the same query is rejected.
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {"/ds/day1"};
  config.projection = {"id", "score"};
  std::vector<InputSplit> splits;
  EXPECT_TRUE(format.GetSplits(fs.get(), config, &splits)
                  .IsInvalidArgument());

  // All projected columns missing is an error even with the flag.
  config.projection = {"score"};
  config.null_for_missing_columns = true;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  std::unique_ptr<RecordReader> reader;
  EXPECT_TRUE(format
                  .CreateRecordReader(fs.get(), config, splits[0],
                                      ReadContext{}, &reader)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace colmr
