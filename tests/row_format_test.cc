#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"

namespace colmr {
namespace {

// A SEQ or RCFile split finds its first record by searching for a sync
// escape from the split start, one buffered window at a time, keeping the
// last 19 bytes of each window so an escape spanning two windows is still
// found. A 256-byte io buffer keeps the windows small, so cutting a file
// at every offset in the 600 bytes before an escape puts that escape at
// every position of the first three windows, across their boundaries too.

constexpr int kRecords = 400;

std::unique_ptr<MiniHdfs> MakeFs() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 1 << 20;
  config.io_buffer_size = 256;
  return std::make_unique<MiniHdfs>(
      config, std::make_unique<DefaultPlacementPolicy>(5));
}

template <typename Writer, typename Options>
void WriteDataset(MiniHdfs* fs, const std::string& path,
                  const Options& options) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { id: int, s: string }", &schema).ok());
  std::unique_ptr<Writer> writer;
  ASSERT_TRUE(Writer::Open(fs, path, schema, options, &writer).ok());
  Random rng(7);
  for (int id = 0; id < kRecords; ++id) {
    ASSERT_TRUE(writer
                    ->WriteRecord(Value::Record(
                        {Value::Int32(id),
                         Value::String(rng.NextString(10, 80))}))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

/// Offsets of the sync escapes in a part file whose header carries
/// `n_flags` flag bytes before its marker; *header_end receives the
/// header's size.
std::vector<uint64_t> EscapeOffsets(const std::string& contents,
                                    size_t n_flags, uint64_t* header_end) {
  Slice cursor(contents);
  cursor.RemovePrefix(4);
  Slice schema_text;
  EXPECT_TRUE(GetLengthPrefixed(&cursor, &schema_text).ok());
  cursor.RemovePrefix(n_flags);
  *header_end = contents.size() - cursor.size() + 16;
  const std::string escape =
      std::string(4, '\xff') + std::string(cursor.data(), 16);
  std::vector<uint64_t> offsets;
  for (size_t at = contents.find(escape); at != std::string::npos;
       at = contents.find(escape, at + 1)) {
    offsets.push_back(at);
  }
  return offsets;
}

/// Reads [0, cut) and [cut, size) of the dataset's part file through
/// `format` and checks that every record comes back exactly once.
void ExpectEveryRecordOnce(InputFormat* format, MiniHdfs* fs,
                           const std::string& file, uint64_t size,
                           uint64_t cut) {
  std::vector<int> seen(kRecords, 0);
  for (const InputSplit& split : {InputSplit{{file}, 0, cut, {}},
                                  InputSplit{{file}, cut, size - cut, {}}}) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    ->CreateRecordReader(fs, JobConfig{}, split,
                                         ReadContext{}, &reader)
                    .ok());
    while (reader->Next()) {
      const int id = reader->record().GetOrDie("id").int32_value();
      ASSERT_GE(id, 0);
      ASSERT_LT(id, kRecords);
      ++seen[id];
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
  }
  for (int id = 0; id < kRecords; ++id) {
    ASSERT_EQ(seen[id], 1) << "record " << id << ", cut at " << cut;
  }
}

/// Cuts the part file at every offset from 600 bytes before its second
/// escape to 20 bytes past its start (a cut inside the escape leaves it
/// to the first split), and at every offset inside the header, as a
/// block smaller than the header would.
void ExpectEveryCutReadsEveryRecordOnce(InputFormat* format, MiniHdfs* fs,
                                        const std::string& path,
                                        size_t n_flags) {
  const std::string file = path + "/part-00000";
  std::unique_ptr<FileReader> raw;
  ASSERT_TRUE(fs->Open(file, ReadContext{}, &raw).ok());
  std::string contents;
  ASSERT_TRUE(raw->Read(0, raw->size(), &contents).ok());
  uint64_t header_end = 0;
  const std::vector<uint64_t> escapes =
      EscapeOffsets(contents, n_flags, &header_end);
  ASSERT_GE(escapes.size(), 3u);
  // No other escape within the swept range.
  ASSERT_GT(escapes[1], escapes[0] + 600);
  ASSERT_GT(escapes[2], escapes[1] + 20);
  std::vector<uint64_t> cuts;
  for (uint64_t cut = 1; cut <= header_end; ++cut) cuts.push_back(cut);
  for (uint64_t cut = escapes[1] - 600; cut <= escapes[1] + 20; ++cut) {
    cuts.push_back(cut);
  }
  for (uint64_t cut : cuts) {
    ExpectEveryRecordOnce(format, fs, file, contents.size(), cut);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SyncFileSplitTest, EveryCutPointReadsEveryRecordOnce) {
  auto fs = MakeFs();
  for (SeqCompression mode : {SeqCompression::kNone, SeqCompression::kRecord,
                              SeqCompression::kBlock}) {
    SCOPED_TRACE("seq mode " + std::to_string(static_cast<int>(mode)));
    SeqWriterOptions options;
    options.compression = mode;
    options.block_size = 4096;
    options.sync_interval = 4096;
    const std::string path = "/seq" + std::to_string(static_cast<int>(mode));
    WriteDataset<SeqWriter>(fs.get(), path, options);
    SeqInputFormat format;
    ExpectEveryCutReadsEveryRecordOnce(&format, fs.get(), path, 2);
  }
  SCOPED_TRACE("rcfile");
  RcFileWriterOptions options;
  options.row_group_size = 4096;
  WriteDataset<RcFileWriter>(fs.get(), "/rc", options);
  RcFileInputFormat format;
  ExpectEveryCutReadsEveryRecordOnce(&format, fs.get(), "/rc", 1);
}

}  // namespace
}  // namespace colmr
