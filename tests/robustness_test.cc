// Failure-injection and fuzz tests: every decoder in the library must
// turn arbitrary or corrupted bytes into a Status, never into a crash,
// hang, or unbounded allocation.

#include <gtest/gtest.h>

#include "cif/cif.h"
#include "cif/cof.h"
#include "cif/column_reader.h"
#include "cif/column_writer.h"
#include "common/random.h"
#include "compress/codec.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/engine.h"
#include "mapreduce/job.h"
#include "serde/boxed.h"
#include "serde/encoding.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = 32 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(77));
}

Schema::Ptr FuzzSchema() {
  Schema::Ptr schema;
  Status s = Schema::Parse(
      "record F { a: int, b: string, c: array<long>, d: map<string>, "
      "e: record N { x: double, y: bytes } }",
      &schema);
  EXPECT_TRUE(s.ok());
  return schema;
}

// Pure random bytes must never crash any value decoder.
class DecoderFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzzTest, RandomBytesNeverCrash) {
  Random rng(GetParam() * 1337 + 1);
  Schema::Ptr schema = FuzzSchema();
  for (int round = 0; round < 500; ++round) {
    std::string bytes;
    const size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    Slice cursor(bytes);
    Value value;
    (void)DecodeValue(*schema, &cursor, &value);  // Status either way
    Slice skip_cursor(bytes);
    SerdeTally tally;
    (void)SkipValue(*schema, &skip_cursor, &tally);
    Slice tagged_cursor(bytes);
    Value tagged;
    (void)DecodeTaggedValue(&tagged_cursor, &tagged);
    Slice boxed_cursor(bytes);
    std::unique_ptr<BoxedValue> boxed;
    (void)DecodeBoxed(*schema, &boxed_cursor, &boxed);
  }
}

TEST_P(DecoderFuzzTest, RandomBytesNeverCrashCodecs) {
  Random rng(GetParam() * 7331 + 5);
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    const size_t len = rng.Uniform(500);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    for (CodecType type :
         {CodecType::kNone, CodecType::kLzf, CodecType::kZlite}) {
      Buffer out;
      (void)GetCodec(type)->Decompress(bytes, &out);
    }
    StringDictionary dict;
    Slice cursor(bytes);
    (void)dict.Deserialize(&cursor);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Range(1, 6));

// Bit flips in a valid compressed stream must yield Corruption or wrong
// bytes, never a crash; a size mismatch must always be caught.
TEST(CorruptionTest, FlippedCompressedBits) {
  Random rng(42);
  std::string payload;
  for (int i = 0; i < 200; ++i) payload += rng.NextWord(7) + ' ';
  for (CodecType type : {CodecType::kLzf, CodecType::kZlite}) {
    const Codec* codec = GetCodec(type);
    Buffer compressed;
    ASSERT_TRUE(codec->Compress(payload, &compressed).ok());
    for (int round = 0; round < 300; ++round) {
      std::string mutated = compressed.str();
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
      Buffer out;
      Status s = codec->Decompress(mutated, &out);
      if (s.ok()) {
        // Silent mis-decodes may happen (no per-block checksum inside the
        // codec), but the declared size must always be honoured.
        EXPECT_LE(out.size(), payload.size() * 4 + 64);
      }
    }
  }
}

// Truncation at EVERY byte offset must be reported, not crash and not
// silently succeed: all three stream formats declare their full extent up
// front (raw size for the codecs, entry count for the dictionary), so a
// stream missing its tail is always detectably corrupt.
TEST(CorruptionTest, TruncatedCompressedStreamsAlwaysError) {
  Random rng(91);
  std::string payload;
  for (int i = 0; i < 250; ++i) payload += rng.NextWord(8) + ' ';
  for (CodecType type : {CodecType::kLzf, CodecType::kZlite}) {
    const Codec* codec = GetCodec(type);
    Buffer compressed;
    ASSERT_TRUE(codec->Compress(payload, &compressed).ok());
    ASSERT_GT(compressed.size(), 1u);
    for (size_t cut = 0; cut < compressed.size(); ++cut) {
      Buffer out;
      Status s = codec->Decompress(Slice(compressed.data(), cut), &out);
      EXPECT_FALSE(s.ok()) << "codec " << static_cast<int>(type)
                           << " accepted a stream truncated at " << cut
                           << " of " << compressed.size();
    }
    // The untruncated stream still round-trips.
    Buffer out;
    ASSERT_TRUE(codec->Decompress(compressed.AsSlice(), &out).ok());
    EXPECT_EQ(out.str(), payload);
  }
}

TEST(CorruptionTest, TruncatedDictionaryAlwaysErrors) {
  Random rng(17);
  StringDictionary dict;
  for (int i = 0; i < 64; ++i) dict.Intern(rng.NextWord(9));
  Buffer serialized;
  dict.Serialize(&serialized);
  ASSERT_EQ(serialized.size(), dict.SerializedSize());
  for (size_t cut = 0; cut < serialized.size(); ++cut) {
    StringDictionary parsed;
    Slice cursor(serialized.data(), cut);
    Status s = parsed.Deserialize(&cursor);
    EXPECT_FALSE(s.ok()) << "dictionary truncated at " << cut << " of "
                         << serialized.size();
  }
  StringDictionary parsed;
  Slice cursor = serialized.AsSlice();
  ASSERT_TRUE(parsed.Deserialize(&cursor).ok());
  EXPECT_EQ(parsed.size(), dict.size());
}

// LZF boundary conditions: match lengths straddling the 264-byte cap and
// back-references at exactly the 8 KiB window edge. A length mis-encode
// would corrupt runs; an off-by-one on distance would either miss the
// match (harmless) or reach outside the window (corrupt).
TEST(EdgeCaseTest, LzfWindowAndMatchBoundaryRoundTrips) {
  const Codec* codec = GetCodec(CodecType::kLzf);
  const size_t kWindow = 8192;
  const size_t kMaxMatch = 264;
  std::vector<std::string> payloads;
  // Runs around the minimum and maximum match lengths.
  for (size_t n : {size_t{2}, size_t{3}, size_t{4}, kMaxMatch - 1, kMaxMatch,
                   kMaxMatch + 1, 2 * kMaxMatch, 2 * kMaxMatch + 3}) {
    payloads.push_back(std::string(n, 'x'));
  }
  // A maximal-length match at a large distance: the same 264-byte pattern
  // twice, separated by incompressible filler.
  Random rng(3);
  std::string pattern;
  for (size_t i = 0; i < kMaxMatch; ++i) {
    pattern.push_back(static_cast<char>('A' + (i * 17) % 26));
  }
  for (size_t gap : {size_t{0}, size_t{100}, kWindow - pattern.size(),
                     kWindow - pattern.size() + 1, kWindow + 1}) {
    std::string filler;
    for (size_t i = 0; i < gap; ++i) {
      filler.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    payloads.push_back(pattern + filler + pattern);
  }
  // Repeats at exactly the window edge and one past it (the latter must
  // not be emitted as a match; round-trip still must hold).
  for (size_t distance : {kWindow - 1, kWindow, kWindow + 1}) {
    std::string head = "0123456789abcdef";
    std::string body;
    while (head.size() + body.size() < distance) {
      body.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    payloads.push_back(head + body.substr(0, distance - head.size()) + head);
  }
  for (const std::string& payload : payloads) {
    Buffer compressed, out;
    ASSERT_TRUE(codec->Compress(payload, &compressed).ok());
    ASSERT_TRUE(codec->Decompress(compressed.AsSlice(), &out).ok())
        << "payload size " << payload.size();
    EXPECT_EQ(out.str(), payload) << "payload size " << payload.size();
  }
}

TEST(CorruptionTest, TruncatedColumnFilesFailCleanly) {
  auto fs = MakeFs();
  for (ColumnLayout layout :
       {ColumnLayout::kPlain, ColumnLayout::kSkipList,
        ColumnLayout::kCompressedBlocks, ColumnLayout::kDictSkipList}) {
    const bool is_map = layout == ColumnLayout::kDictSkipList;
    Schema::Ptr type =
        is_map ? Schema::Map(Schema::Int32()) : Schema::String();
    ColumnOptions options;
    options.layout = layout;
    const std::string path =
        "/col" + std::to_string(static_cast<int>(layout));
    std::unique_ptr<ColumnFileWriter> writer;
    ASSERT_TRUE(
        ColumnFileWriter::Create(fs.get(), path, type, options, &writer)
            .ok());
    Random rng(5);
    for (int i = 0; i < 500; ++i) {
      if (is_map) {
        ASSERT_TRUE(
            writer->Append(Value::Map({{rng.NextWord(5), Value::Int32(i)}}))
                .ok());
      } else {
        ASSERT_TRUE(
            writer->Append(Value::String(rng.NextString(5, 40))).ok());
      }
    }
    ASSERT_TRUE(writer->Close().ok());

    // Rewrite truncated copies and scan them to the end: must stop with a
    // Status (or read fewer rows), never crash.
    std::unique_ptr<FileReader> reader;
    ASSERT_TRUE(fs->Open(path, ReadContext{}, &reader).ok());
    std::string full;
    ASSERT_TRUE(reader->Read(0, reader->size(), &full).ok());
    for (size_t cut : {full.size() / 4, full.size() / 2, full.size() - 3}) {
      const std::string tpath = path + "_t" + std::to_string(cut);
      std::unique_ptr<FileWriter> trunc_writer;
      ASSERT_TRUE(fs->Create(tpath, &trunc_writer).ok());
      trunc_writer->Append(Slice(full.data(), cut));
      ASSERT_TRUE(trunc_writer->Close().ok());

      std::unique_ptr<ColumnFileReader> column;
      Status s = ColumnFileReader::Open(fs.get(), tpath, ReadContext{},
                                        &column);
      if (!s.ok()) continue;  // header itself truncated: fine
      ColumnBatch batch;
      for (uint64_t row = 0; row < column->row_count(); ++row) {
        s = column->NextBatch(1, &batch);
        if (!s.ok()) break;
      }
      // Either it errored or (for cuts past all values) read everything.
      SUCCEED();
    }
  }
}

// One split at /lazy: 5000 rows of `id` (the row number) and `heavy` (a
// 20-60 byte string), both skip-list columns.
void WriteTwoColumnSplit(MiniHdfs* fs) {
  Schema::Ptr schema;
  ASSERT_TRUE(
      Schema::Parse("record R { id: int, heavy: string }", &schema).ok());
  CofOptions options;
  options.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(CofWriter::Open(fs, "/lazy", schema, options, &writer).ok());
  Random rng(8);
  for (int i = 0; i < 5000; ++i) {
    const Value record = Value::Record(
        {Value::Int32(i), Value::String(rng.NextString(20, 60))});
    ASSERT_TRUE(writer->WriteRecord(record).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  ASSERT_EQ(writer->split_count(), 1);
}

// Cuts /lazy's heavy.col at 60% of its bytes; its header still promises
// 5000 rows.
void TruncateHeavyColumn(MiniHdfs* fs) {
  const std::string path = SplitDirName("/lazy", 0) + "/heavy.col";
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open(path, ReadContext{}, &reader).ok());
  std::string full;
  ASSERT_TRUE(reader->Read(0, reader->size(), &full).ok());
  reader.reset();
  ASSERT_TRUE(fs->Delete(path).ok());
  std::unique_ptr<FileWriter> truncated;
  ASSERT_TRUE(fs->Create(path, &truncated).ok());
  truncated->Append(Slice(full.data(), full.size() * 6 / 10));
  ASSERT_TRUE(truncated->Close().ok());
}

// A lazy column that fails mid-split must fail the job even when the
// mapper swallows the Get() error and skips the row; otherwise the job
// succeeds with rows silently missing. An unknown field name, by
// contrast, fails only its own Get().
TEST(CorruptionTest, TruncatedLazyColumnFailsTheJob) {
  auto fs = MakeFs();
  ASSERT_NO_FATAL_FAILURE(WriteTwoColumnSplit(fs.get()));

  const auto run = [&](uint64_t batch_rows, int parallelism,
                       JobReport* report) {
    Job job;
    job.config.input_paths = {"/lazy"};
    job.config.lazy_records = true;
    job.config.batch_rows = batch_rows;
    job.config.parallelism = parallelism;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      const int32_t id = record.GetOrDie("id").int32_value();
      if (id % 3 != 0) return;
      const Value* unknown = nullptr;
      EXPECT_TRUE(record.Get("no_such_field", &unknown).IsNotFound());
      const Value* heavy = nullptr;
      if (!record.Get("heavy", &heavy).ok()) return;
      const size_t size = heavy->string_value().size();
      out->Emit(Value::Int32(id), Value::Int64(static_cast<int64_t>(size)));
    };
    JobRunner runner(fs.get());
    return runner.Run(job, report);
  };

  for (uint64_t batch_rows : {uint64_t{1}, uint64_t{1024}}) {
    JobReport report;
    Status s = run(batch_rows, 1, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(report.output.size(), 1667u);
  }

  ASSERT_NO_FATAL_FAILURE(TruncateHeavyColumn(fs.get()));

  for (uint64_t batch_rows : {uint64_t{1}, uint64_t{1024}}) {
    for (int parallelism : {1, 4}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows) +
                   " parallelism=" + std::to_string(parallelism));
      JobReport report;
      EXPECT_FALSE(run(batch_rows, parallelism, &report).ok())
          << "rows mapped: " << report.output.size();
    }
  }
}

// The reader-level form of BatchDecodeTest.TruncatedInputErrorParity, over
// two columns: eager scans in one-row and 177-row batches and lazy scans
// touching every row serve the same rows before the truncated column
// fails, then report the same status.
TEST(CorruptionTest, TruncatedColumnErrorParityAcrossRecordModes) {
  auto fs = MakeFs();
  ASSERT_NO_FATAL_FAILURE(WriteTwoColumnSplit(fs.get()));
  ASSERT_NO_FATAL_FAILURE(TruncateHeavyColumn(fs.get()));
  struct Scan {
    std::vector<std::string> rows;  // "id:heavy" per row served
    Status status;
  };
  const auto scan = [&](bool lazy, uint64_t batch_rows) {
    ColumnInputFormat format;
    JobConfig config;
    config.input_paths = {"/lazy"};
    config.lazy_records = lazy;
    std::vector<InputSplit> splits;
    EXPECT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
    std::unique_ptr<RecordReader> reader;
    EXPECT_TRUE(format
                    .CreateRecordReader(fs.get(), config, splits.at(0),
                                        ReadContext{}, &reader)
                    .ok());
    Scan out;
    Status get;
    uint64_t filled = 0;
    while (get.ok() && (filled = reader->FillBatch(batch_rows)) > 0) {
      for (uint64_t r = 0; r < filled && get.ok(); ++r) {
        Record& record = reader->RecordAt(r);
        const Value* id = nullptr;
        const Value* heavy = nullptr;
        get = record.Get("id", &id);
        if (get.ok()) get = record.Get("heavy", &heavy);
        if (get.ok()) {
          out.rows.push_back(std::to_string(id->int32_value()) + ":" +
                             heavy->string_value());
        }
      }
    }
    // A failed Get returns the column's error, which fails the reader.
    if (!get.ok()) {
      EXPECT_EQ(get.ToString(), reader->status().ToString());
    }
    out.status = reader->status();
    return out;
  };

  const Scan one_row = scan(false, 1);
  EXPECT_FALSE(one_row.status.ok());
  ASSERT_GT(one_row.rows.size(), 0u);
  ASSERT_LT(one_row.rows.size(), 5000u);
  for (size_t i = 0; i < one_row.rows.size(); ++i) {
    ASSERT_EQ(one_row.rows[i].substr(0, one_row.rows[i].find(':')),
              std::to_string(i));
  }
  const std::pair<bool, uint64_t> arms[] = {{false, 177}, {true, 177},
                                            {true, 1024}};
  for (const auto& [lazy, batch_rows] : arms) {
    SCOPED_TRACE(std::string(lazy ? "lazy" : "eager") + " batch_rows=" +
                 std::to_string(batch_rows));
    const Scan other = scan(lazy, batch_rows);
    EXPECT_EQ(other.rows.size(), one_row.rows.size());
    EXPECT_TRUE(other.rows == one_row.rows);
    EXPECT_EQ(other.status.ToString(), one_row.status.ToString());
  }
}

TEST(CorruptionTest, FlippedColumnFileBytesNeverCrash) {
  auto fs = MakeFs();
  Schema::Ptr type = Schema::Map(Schema::Int32());
  ColumnOptions options;
  options.layout = ColumnLayout::kDictSkipList;
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(
      ColumnFileWriter::Create(fs.get(), "/c", type, options, &writer).ok());
  Random rng(6);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(writer
                    ->Append(Value::Map({{rng.NextWord(6), Value::Int32(i)},
                                         {rng.NextWord(4), Value::Int32(i)}}))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  std::unique_ptr<FileReader> reader;
  ASSERT_TRUE(fs->Open("/c", ReadContext{}, &reader).ok());
  std::string full;
  ASSERT_TRUE(reader->Read(0, reader->size(), &full).ok());

  for (int round = 0; round < 30; ++round) {
    std::string mutated = full;
    for (int flips = 0; flips < 3; ++flips) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
    }
    const std::string path = "/mut" + std::to_string(round);
    std::unique_ptr<FileWriter> mut_writer;
    ASSERT_TRUE(fs->Create(path, &mut_writer).ok());
    mut_writer->Append(mutated);
    ASSERT_TRUE(mut_writer->Close().ok());

    std::unique_ptr<ColumnFileReader> column;
    Status s = ColumnFileReader::Open(fs.get(), path, ReadContext{}, &column);
    if (!s.ok()) continue;
    ColumnBatch batch;
    for (uint64_t row = 0; row < column->row_count(); ++row) {
      if (!column->NextBatch(1, &batch).ok()) break;
    }
  }
}

TEST(EdgeCaseTest, EmptyDatasets) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();

  // Zero-record RCFile.
  std::unique_ptr<RcFileWriter> rc;
  ASSERT_TRUE(RcFileWriter::Open(fs.get(), "/rc", schema,
                                 RcFileWriterOptions{}, &rc)
                  .ok());
  ASSERT_TRUE(rc->Close().ok());
  uint64_t size;
  ASSERT_TRUE(fs->GetFileSize("/rc/part-00000", &size).ok());
  RcFileInputFormat format;
  const InputSplit split{{"/rc/part-00000"}, 0, size, {}};
  std::unique_ptr<RecordReader> reader;
  ASSERT_TRUE(format
                  .CreateRecordReader(fs.get(), JobConfig{}, split,
                                      ReadContext{}, &reader)
                  .ok());
  EXPECT_FALSE(reader->Next());
  EXPECT_TRUE(reader->status().ok());

  // Zero-record column file.
  std::unique_ptr<ColumnFileWriter> col;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/c", Schema::Int32(),
                                       ColumnOptions{}, &col)
                  .ok());
  ASSERT_TRUE(col->Close().ok());
  std::unique_ptr<ColumnFileReader> col_reader;
  ASSERT_TRUE(
      ColumnFileReader::Open(fs.get(), "/c", ReadContext{}, &col_reader).ok());
  EXPECT_EQ(col_reader->row_count(), 0u);
  ColumnBatch batch;
  EXPECT_TRUE(col_reader->NextBatch(1, &batch).ok());
  EXPECT_EQ(batch.size(), 0u);  // end of column: an empty batch
  EXPECT_TRUE(col_reader->SkipRows(5).ok());  // clamps to zero
}

TEST(EdgeCaseTest, SkipListBoundaryRowCounts) {
  // Row counts sitting exactly on the 10/100/1000 skip boundaries.
  auto fs = MakeFs();
  for (uint64_t rows : {1ull, 9ull, 10ull, 11ull, 100ull, 999ull, 1000ull,
                        1001ull, 2000ull}) {
    ColumnOptions options;
    options.layout = ColumnLayout::kSkipList;
    const std::string path = "/b" + std::to_string(rows);
    std::unique_ptr<ColumnFileWriter> writer;
    ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), path, Schema::Int64(),
                                         options, &writer)
                    .ok());
    for (uint64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(writer->Append(Value::Int64(static_cast<int64_t>(i))).ok());
    }
    ASSERT_TRUE(writer->Close().ok());

    // Read everything via maximal skips: Skip(all) then confirm position,
    // then reopen and read the last row via skip(rows - 1).
    std::unique_ptr<ColumnFileReader> reader;
    ASSERT_TRUE(
        ColumnFileReader::Open(fs.get(), path, ReadContext{}, &reader).ok());
    ASSERT_TRUE(reader->SkipRows(rows).ok());
    EXPECT_EQ(reader->current_row(), rows);

    ASSERT_TRUE(
        ColumnFileReader::Open(fs.get(), path, ReadContext{}, &reader).ok());
    ASSERT_TRUE(reader->SkipRows(rows - 1).ok());
    ColumnBatch batch;
    ASSERT_TRUE(reader->NextBatch(1, &batch).ok()) << rows;
    ASSERT_EQ(batch.size(), 1u) << rows;
    EXPECT_EQ(batch.IntAt(0), static_cast<int64_t>(rows - 1)) << rows;
  }
}

TEST(EdgeCaseTest, ZliteDegenerateInputs) {
  const Codec* codec = GetCodec(CodecType::kZlite);
  // Single distinct byte (one-symbol Huffman code), and a run exercising
  // long match lengths.
  for (const std::string& payload :
       {std::string(100000, 'x'), std::string("a"),
        std::string(1, '\0') + std::string(70000, 'q')}) {
    Buffer compressed, out;
    ASSERT_TRUE(codec->Compress(payload, &compressed).ok());
    ASSERT_TRUE(codec->Decompress(compressed.AsSlice(), &out).ok());
    EXPECT_EQ(out.str(), payload);
  }
  // All 256 byte values uniformly (a full Huffman alphabet).
  std::string all_bytes;
  for (int round = 0; round < 64; ++round) {
    for (int b = 0; b < 256; ++b) {
      all_bytes.push_back(static_cast<char>(b));
    }
  }
  Buffer compressed, out;
  ASSERT_TRUE(codec->Compress(all_bytes, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed.AsSlice(), &out).ok());
  EXPECT_EQ(out.str(), all_bytes);
}

TEST(EdgeCaseTest, EmptyRecordSchema) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record E { }", &schema).ok());
  EXPECT_TRUE(schema->fields().empty());
  Buffer encoded;
  ASSERT_TRUE(EncodeValue(*schema, Value::Record({}), &encoded).ok());
  EXPECT_TRUE(encoded.empty());
}

TEST(EdgeCaseTest, DeeplyNestedValuesRoundTrip) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("array<array<array<map<array<int>>>>>",
                            &schema)
                  .ok());
  Value leaf = Value::Array({Value::Int32(1), Value::Int32(2)});
  Value value = Value::Array({Value::Array(
      {Value::Array({Value::Map({{"k", leaf}})})})});
  Buffer encoded;
  ASSERT_TRUE(EncodeValue(*schema, value, &encoded).ok());
  Slice cursor = encoded.AsSlice();
  Value decoded;
  ASSERT_TRUE(DecodeValue(*schema, &cursor, &decoded).ok());
  EXPECT_EQ(value.Compare(decoded), 0);
}

}  // namespace
}  // namespace colmr
