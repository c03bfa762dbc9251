// Column-level tests for the batch decode path, the only one CIF has:
// for seeded random values of every column type, across every on-disk
// layout, ColumnFileReader::NextBatch must return exactly the values that
// were written, at every batch size from one row up — including mid-batch
// SkipRows interleavings and truncated input, where one-row and bulk
// batches must fail identically. Job-level equivalence across formats,
// knobs and faults is oracle_test's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cif/column_reader.h"
#include "cif/column_writer.h"
#include "common/random.h"
#include "compress/codec.h"
#include "hdfs/block_cache.h"
#include "hdfs/mini_hdfs.h"
#include "serde/batch.h"
#include "serde/encoding.h"
#include "value_gen.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 64 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs(int placement_seed) {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(placement_seed));
}

// Values are compared through their encoded bytes: exact for doubles and
// binary strings, and precisely the identity the batch kernels promise.
std::string Encoded(const Schema& type, const Value& value) {
  Buffer buffer;
  Status s = EncodeValue(type, value, &buffer);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return buffer.str();
}

// One column type per TypeKind the column stores can hold; GenValue
// draws their edge cases alongside bulk random values.
std::vector<std::pair<const char*, Schema::Ptr>> TypeCases() {
  return {{"bool", Schema::Bool()},
          {"int32", Schema::Int32()},
          {"int64", Schema::Int64()},
          {"double", Schema::Double()},
          {"string", Schema::String()},
          {"bytes", Schema::Bytes()},
          {"array", Schema::Array(Schema::Int64())},
          {"record", Schema::Record("N", {{"x", Schema::Double()},
                                          {"y", Schema::String()}})}};
}

// (layout, codec) pairs every non-map column is exercised under.
struct LayoutCase {
  const char* name;
  ColumnOptions options;
};

std::vector<LayoutCase> LayoutCases() {
  std::vector<LayoutCase> cases;
  cases.push_back({"plain", {ColumnLayout::kPlain}});
  cases.push_back({"skiplist", {ColumnLayout::kSkipList}});
  ColumnOptions lzf;
  lzf.layout = ColumnLayout::kCompressedBlocks;
  lzf.codec = CodecType::kLzf;
  lzf.block_size = 4 * 1024;  // small blocks: batches span block edges
  cases.push_back({"lzf", lzf});
  ColumnOptions zlite = lzf;
  zlite.codec = CodecType::kZlite;
  cases.push_back({"zlite", zlite});
  return cases;
}

// Writes `n` generated values into a fresh column file and returns them.
std::vector<Value> WriteColumn(MiniHdfs* fs, const std::string& path,
                               const Schema::Ptr& type,
                               const ColumnOptions& options, uint64_t seed,
                               uint64_t n) {
  std::unique_ptr<ColumnFileWriter> writer;
  Status s = ColumnFileWriter::Create(fs, path, type, options, &writer);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  Random rng(seed);
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(GenValue(*type, rng));
    EXPECT_TRUE(writer->Append(values.back()).ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  return values;
}

Status OpenColumn(MiniHdfs* fs, const std::string& path, IoStats* io,
                  std::unique_ptr<ColumnFileReader>* reader) {
  ReadContext context;
  context.stats = io;
  return ColumnFileReader::Open(fs, path, context, reader);
}

// Scans `path` with NextBatch(batch_size) and asserts it produces
// `expected` element for element, then a clean end of column.
void DifferentialScan(MiniHdfs* fs, const std::string& path,
                      const Schema& type, const std::vector<Value>& expected,
                      uint64_t batch_size) {
  SCOPED_TRACE(path + " batch_size=" + std::to_string(batch_size));
  IoStats io;
  std::unique_ptr<ColumnFileReader> reader;
  ASSERT_TRUE(OpenColumn(fs, path, &io, &reader).ok());
  ASSERT_EQ(reader->row_count(), expected.size());

  ColumnBatch batch;
  Value got;
  uint64_t row = 0;
  while (row < expected.size()) {
    Status s = reader->NextBatch(batch_size, &batch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(batch.size(), 0u) << "NextBatch returned empty before EOF";
    ASSERT_LE(batch.size(), batch_size);
    for (size_t i = 0; i < batch.size(); ++i, ++row) {
      batch.MaterializeInto(i, &got);
      ASSERT_EQ(Encoded(type, got), Encoded(type, expected[row]))
          << "row " << row << ": batch=" << got.ToString()
          << " written=" << expected[row].ToString();
    }
  }
  Status s = reader->NextBatch(batch_size, &batch);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(batch.size(), 0u);
}

// All primitive + composite types, across every layout, with batch sizes
// chosen to land on, straddle, and span the 10/100/1000-row skip-list
// boundaries (and the compressed-block edges).
TEST(BatchDecodeTest, AllTypesAllLayoutsMatchWrittenValues) {
  const uint64_t kRows = 2500;
  auto fs = MakeFs(31);
  uint64_t seed = 1;
  for (const LayoutCase& layout : LayoutCases()) {
    for (const auto& [name, type] : TypeCases()) {
      const std::string path = std::string("/col_") + layout.name + "_" + name;
      std::vector<Value> expected =
          WriteColumn(fs.get(), path, type, layout.options, ++seed, kRows);
      for (uint64_t batch_size : {uint64_t{1}, uint64_t{7}, uint64_t{100},
                                  uint64_t{997}, uint64_t{1024},
                                  uint64_t{4096}}) {
        DifferentialScan(fs.get(), path, *type, expected, batch_size);
      }
    }
  }
}

// Map columns under DCSL: keys decode by dictionary id; batch sizes
// straddle the 1000-row dictionary groups.
TEST(BatchDecodeTest, DictSkipListMapsMatchWrittenValues) {
  const uint64_t kRows = 2500;
  auto fs = MakeFs(32);
  Schema::Ptr type = Schema::Map(Schema::Int32());
  ColumnOptions options;
  options.layout = ColumnLayout::kDictSkipList;
  std::vector<Value> expected =
      WriteColumn(fs.get(), "/dcsl", type, options, 99, kRows);
  for (uint64_t batch_size :
       {uint64_t{1}, uint64_t{500}, uint64_t{997}, uint64_t{1000},
        uint64_t{1500}, uint64_t{2600}}) {
    DifferentialScan(fs.get(), "/dcsl", *type, expected, batch_size);
  }
}

// The boxed lane keeps its Values across batches, and each DCSL map
// decodes into a slot an earlier map filled. Rows cycle through a wide map
// (14 entries, long values), narrower maps with shorter values under
// other keys, and an empty map, so every slot is refilled by a map of
// another shape: none may keep an entry, a key or a value byte of the
// map it held before.
TEST(BatchDecodeTest, ReusedMapSlotsHoldNoStaleEntries) {
  const uint64_t kRows = 1200;
  auto fs = MakeFs(35);
  Schema::Ptr type = Schema::Map(Schema::String());
  ColumnOptions options;
  options.layout = ColumnLayout::kDictSkipList;
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(
      ColumnFileWriter::Create(fs.get(), "/maps", type, options, &writer)
          .ok());
  Random rng(35);
  std::vector<Value> expected;
  for (uint64_t i = 0; i < kRows; ++i) {
    Value::MapEntries entries;
    const int shape = static_cast<int>(i % 4);
    const int width = shape == 0 ? 14 : shape == 1 ? 5 : shape == 2 ? 1 : 0;
    for (int k = 0; k < width; ++k) {
      std::string value = shape == 0   ? rng.NextString(150, 250)
                          : shape == 1 ? rng.NextString(3, 12)
                                       : std::string();
      entries.emplace_back("shape" + std::to_string(shape) + "-key" +
                               std::to_string(k),
                           Value::String(std::move(value)));
    }
    expected.push_back(Value::Map(std::move(entries)));
    ASSERT_TRUE(writer->Append(expected.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  for (uint64_t batch_size : {uint64_t{1}, uint64_t{3}, uint64_t{4},
                              uint64_t{7}, uint64_t{1024}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    IoStats io;
    std::unique_ptr<ColumnFileReader> reader;
    ASSERT_TRUE(OpenColumn(fs.get(), "/maps", &io, &reader).ok());
    ColumnBatch batch;
    uint64_t row = 0;
    while (row < kRows) {
      ASSERT_TRUE(reader->NextBatch(batch_size, &batch).ok());
      ASSERT_GT(batch.size(), 0u);
      for (size_t i = 0; i < batch.size(); ++i, ++row) {
        const Value& got = *batch.BoxedAt(i);
        ASSERT_EQ(got.map_entries().size(),
                  expected[row].map_entries().size())
            << "row " << row;
        ASSERT_EQ(Encoded(*type, got), Encoded(*type, expected[row]))
            << "row " << row << ": batch=" << got.ToString()
            << " written=" << expected[row].ToString();
      }
    }
  }
}

// A column whose type is null encodes zero bytes per value; NextBatch
// must still count rows and serve nulls.
TEST(BatchDecodeTest, NullColumnsServeNulls) {
  auto fs = MakeFs(33);
  for (const LayoutCase& layout : LayoutCases()) {
    const std::string path = std::string("/nulls_") + layout.name;
    std::vector<Value> expected =
        WriteColumn(fs.get(), path, Schema::Null(), layout.options, 7, 300);
    IoStats io;
    std::unique_ptr<ColumnFileReader> reader;
    ASSERT_TRUE(OpenColumn(fs.get(), path, &io, &reader).ok());
    ColumnBatch batch;
    uint64_t rows = 0;
    while (true) {
      ASSERT_TRUE(reader->NextBatch(64, &batch).ok());
      if (batch.size() == 0) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(batch.IsNull(i));
      }
      rows += batch.size();
    }
    EXPECT_EQ(rows, expected.size()) << path;
  }
}

// Interleaves NextBatch and SkipRows in a seeded random walk and checks
// every decoded value against the one written at its row.
TEST(BatchDecodeTest, MidBatchSkipRowsMatchesWrittenValues) {
  const uint64_t kRows = 2500;
  auto fs = MakeFs(34);
  Schema::Ptr type = Schema::String();
  for (const LayoutCase& layout : LayoutCases()) {
    const std::string path = std::string("/skipwalk_") + layout.name;
    const std::vector<Value> written =
        WriteColumn(fs.get(), path, type, layout.options, 11, kRows);
    for (uint64_t walk_seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      SCOPED_TRACE(path + " walk_seed=" + std::to_string(walk_seed));
      IoStats io;
      std::unique_ptr<ColumnFileReader> reader;
      ASSERT_TRUE(OpenColumn(fs.get(), path, &io, &reader).ok());
      Random rng(walk_seed * 1000 + 7);
      ColumnBatch batch;
      Value got;
      uint64_t pos = 0;
      while (pos < kRows) {
        if (rng.OneIn(3)) {
          // Skips sized to cross the 10/100/1000-row boundaries.
          const uint64_t skip =
              std::min<uint64_t>(rng.Uniform(1300) + 1, kRows - pos);
          ASSERT_TRUE(reader->SkipRows(skip).ok());
          pos += skip;
          continue;
        }
        const uint64_t want = rng.Uniform(600) + 1;
        Status s = reader->NextBatch(want, &batch);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(batch.size(), std::min(want, kRows - pos));
        for (size_t i = 0; i < batch.size(); ++i, ++pos) {
          batch.MaterializeInto(i, &got);
          ASSERT_EQ(Encoded(*type, got), Encoded(*type, written[pos]))
              << "row " << pos;
        }
        ASSERT_EQ(reader->current_row(), pos);
      }
    }
  }
}

// String batches are views of the bytes they decoded from, which the
// batch pins: a window of an uncached column, a cached block, windows
// joined across HDFS block boundaries and decompressed blocks must all
// outlive the reader, the file, the cache and the namespace itself.
TEST(BatchDecodeTest, StringViewsOutliveTheirSources) {
  ClusterConfig config = TestCluster();
  config.block_size = 1024;  // 300-byte values straddle block boundaries
  config.io_buffer_size = 256;
  auto fs = std::make_unique<MiniHdfs>(
      config, std::make_unique<ColumnPlacementPolicy>(36));
  struct Source {
    std::string path;
    ColumnOptions options;
    bool cached;
    std::vector<std::string> written;
    ColumnBatch batch;
  };
  ColumnOptions lzf;
  lzf.layout = ColumnLayout::kCompressedBlocks;
  lzf.codec = CodecType::kLzf;
  lzf.block_size = 1024;
  std::vector<Source> sources;
  sources.push_back({"/uncached", {ColumnLayout::kPlain}, false, {}, {}});
  sources.push_back({"/cached", {ColumnLayout::kSkipList}, true, {}, {}});
  sources.push_back({"/lzf", lzf, false, {}, {}});
  for (Source& source : sources) {
    std::unique_ptr<ColumnFileWriter> writer;
    ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), source.path,
                                         Schema::String(), source.options,
                                         &writer)
                    .ok());
    for (int i = 0; i < 40; ++i) {
      source.written.push_back(std::to_string(i) +
                               std::string(300, static_cast<char>('a' + i)));
      ASSERT_TRUE(writer->Append(Value::String(source.written.back())).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }
  fs->EnsureBlockCache(1 << 20, nullptr);
  size_t joined = 0;
  for (Source& source : sources) {
    SCOPED_TRACE(source.path);
    std::unique_ptr<FileReader> file;
    ASSERT_TRUE(fs->Open(source.path, ReadContext{}, &file).ok());
    // Views of the column's blocks as stored. Warming the cache through
    // them makes the decode below hit; otherwise evict them again.
    std::vector<std::pair<const char*, const char*>> blocks;
    for (uint64_t at = 0; at < file->size(); at += config.block_size) {
      Slice block;
      std::shared_ptr<const std::string> pin;
      ASSERT_TRUE(file->Read(at, config.block_size, &block, &pin).ok());
      blocks.emplace_back(block.data(), block.data() + block.size());
    }
    if (!source.cached) fs->block_cache()->Clear();
    std::unique_ptr<ColumnFileReader> reader;
    ASSERT_TRUE(
        ColumnFileReader::Open(fs.get(), source.path, ReadContext{}, &reader)
            .ok());
    ASSERT_TRUE(reader->NextBatch(1000, &source.batch).ok());
    ASSERT_EQ(source.batch.size(), source.written.size());
    if (source.options.layout == ColumnLayout::kCompressedBlocks) continue;
    for (size_t i = 0; i < source.batch.size(); ++i) {
      const char* at = source.batch.StringAt(i).data();
      // Outside every stored block: a view of a joined window.
      joined += std::none_of(blocks.begin(), blocks.end(),
                             [at](const auto& b) {
                               return at >= b.first && at < b.second;
                             });
    }
  }
  EXPECT_GT(joined, 0u);

  // Every source goes: the readers, the files, the cache, and the whole
  // namespace, replaced by another image.
  const std::string image = ::testing::TempDir() + "/colmr_views_image.bin";
  {
    auto other = MakeFs(37);
    WriteColumn(other.get(), "/other", Schema::String(), {}, 5, 100);
    ASSERT_TRUE(other->SaveImage(image).ok());
  }
  for (const Source& source : sources) {
    ASSERT_TRUE(fs->Delete(source.path).ok());
  }
  fs->block_cache()->Clear();
  ASSERT_TRUE(fs->LoadImage(image).ok());
  std::remove(image.c_str());

  for (const Source& source : sources) {
    for (size_t i = 0; i < source.written.size(); ++i) {
      ASSERT_EQ(source.batch.StringAt(i).ToString(), source.written[i])
          << source.path << " row " << i;
    }
  }
}

// Drains `reader` with NextBatch(batch_size) until it fails or ends:
// the encoded values served, and the status it stopped with.
Status DrainEncoded(ColumnFileReader* reader, const Schema& type,
                    uint64_t batch_size, std::vector<std::string>* values) {
  ColumnBatch batch;
  Value value;
  for (;;) {
    Status s = reader->NextBatch(batch_size, &batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeInto(i, &value);
      values->push_back(Encoded(type, value));
    }
    if (!s.ok() || batch.size() == 0) return s;
  }
}

// Truncated column files: one-row and 177-row batches must serve the same
// prefix of the written values and then fail with the same status.
TEST(BatchDecodeTest, TruncatedInputErrorParity) {
  auto fs = MakeFs(35);
  struct TruncCase {
    std::string path;
    Schema::Ptr type;
    std::vector<Value> written;
  };
  std::vector<TruncCase> datasets;
  for (const LayoutCase& layout : LayoutCases()) {
    const std::string path = std::string("/trunc_") + layout.name;
    datasets.push_back({path, Schema::String(),
                        WriteColumn(fs.get(), path, Schema::String(),
                                    layout.options, 21, 800)});
  }
  datasets.push_back({"/trunc_dcsl", Schema::Map(Schema::Int32()),
                      WriteColumn(fs.get(), "/trunc_dcsl",
                                  Schema::Map(Schema::Int32()),
                                  {ColumnLayout::kDictSkipList}, 22, 800)});

  for (const TruncCase& dataset : datasets) {
    std::unique_ptr<FileReader> file;
    ASSERT_TRUE(fs->Open(dataset.path, ReadContext{}, &file).ok());
    std::string full;
    ASSERT_TRUE(file->Read(0, file->size(), &full).ok());
    for (size_t cut : {full.size() / 4, full.size() / 2, full.size() - 3,
                       full.size() - 1}) {
      SCOPED_TRACE(dataset.path + " cut=" + std::to_string(cut) + "/" +
                   std::to_string(full.size()));
      const std::string tpath = dataset.path + "_t" + std::to_string(cut);
      std::unique_ptr<FileWriter> writer;
      ASSERT_TRUE(fs->Create(tpath, &writer).ok());
      writer->Append(Slice(full.data(), cut));
      ASSERT_TRUE(writer->Close().ok());

      IoStats io;
      std::unique_ptr<ColumnFileReader> one_row;
      Status open_one_row = OpenColumn(fs.get(), tpath, &io, &one_row);
      std::unique_ptr<ColumnFileReader> bulk;
      Status open_bulk = OpenColumn(fs.get(), tpath, &io, &bulk);
      ASSERT_EQ(open_one_row.ToString(), open_bulk.ToString());
      if (!open_one_row.ok()) continue;  // header truncated: parity shown

      std::vector<std::string> one_row_values;
      const Status one_row_status =
          DrainEncoded(one_row.get(), *dataset.type, 1, &one_row_values);
      std::vector<std::string> bulk_values;
      const Status bulk_status =
          DrainEncoded(bulk.get(), *dataset.type, 177, &bulk_values);

      EXPECT_EQ(bulk_status.ToString(), one_row_status.ToString());
      ASSERT_EQ(bulk_values, one_row_values);
      ASSERT_LE(one_row_values.size(), dataset.written.size());
      if (one_row_status.ok()) {  // the cut only reached the stats footer
        EXPECT_EQ(one_row_values.size(), dataset.written.size());
      }
      for (size_t i = 0; i < one_row_values.size(); ++i) {
        ASSERT_EQ(one_row_values[i],
                  Encoded(*dataset.type, dataset.written[i]))
            << "row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace colmr
