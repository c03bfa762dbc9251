// Differential tests for the vectorized batch decode path: for seeded
// random values of every column type, across every on-disk layout, the
// batched reader (ColumnFileReader::NextBatch / RecordReader::FillBatch)
// must be element-for-element identical to the scalar path — including
// mid-batch SkipRows interleavings, truncated-input error parity, and
// byte-identical job output across formats, parallelism, and faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cif/cif.h"
#include "cif/cof.h"
#include "cif/column_reader.h"
#include "cif/column_writer.h"
#include "common/random.h"
#include "compress/codec.h"
#include "formats/rcfile/rcfile.h"
#include "formats/rcfile/rcfile_format.h"
#include "formats/seq/seq_file.h"
#include "formats/seq/seq_format.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/engine.h"
#include "serde/batch.h"
#include "serde/encoding.h"
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

struct ColumnCase {
  const char* name;
  Schema::Ptr type;
  std::function<Value(Random&)> gen;
};

// One case per TypeKind the column stores can hold, with generators that
// hit encoding edge cases (zero, sign extremes, empty strings, empty
// containers) alongside the bulk random values.
std::vector<ColumnCase> TypeCases() {
  std::vector<ColumnCase> cases;
  cases.push_back({"bool", Schema::Bool(), [](Random& rng) {
                     return Value::Bool(rng.Uniform(2) == 0);
                   }});
  cases.push_back({"int32", Schema::Int32(), [](Random& rng) {
                     switch (rng.Uniform(8)) {
                       case 0:
                         return Value::Int32(0);
                       case 1:
                         return Value::Int32(INT32_MIN);
                       case 2:
                         return Value::Int32(INT32_MAX);
                       default:
                         return Value::Int32(static_cast<int32_t>(
                             rng.UniformRange(INT32_MIN, INT32_MAX)));
                     }
                   }});
  cases.push_back({"int64", Schema::Int64(), [](Random& rng) {
                     switch (rng.Uniform(8)) {
                       case 0:
                         return Value::Int64(0);
                       case 1:
                         return Value::Int64(INT64_MIN);
                       case 2:
                         return Value::Int64(INT64_MAX);
                       default:
                         return Value::Int64(
                             static_cast<int64_t>(rng.Next()));
                     }
                   }});
  cases.push_back({"double", Schema::Double(), [](Random& rng) {
                     switch (rng.Uniform(8)) {
                       case 0:
                         return Value::Double(0.0);
                       case 1:
                         return Value::Double(-1.5e300);
                       default:
                         return Value::Double(rng.NextDouble() * 2e9 - 1e9);
                     }
                   }});
  cases.push_back({"string", Schema::String(), [](Random& rng) {
                     if (rng.OneIn(16)) return Value::String("");
                     return Value::String(rng.NextString(1, 60));
                   }});
  cases.push_back({"bytes", Schema::Bytes(), [](Random& rng) {
                     std::string raw;
                     const size_t len = rng.Uniform(40);
                     for (size_t i = 0; i < len; ++i) {
                       raw.push_back(static_cast<char>(rng.Next() & 0xff));
                     }
                     return Value::Bytes(std::move(raw));
                   }});
  cases.push_back({"array", Schema::Array(Schema::Int64()), [](Random& rng) {
                     std::vector<Value> elems;
                     const size_t len = rng.Uniform(6);
                     for (size_t i = 0; i < len; ++i) {
                       elems.push_back(Value::Int64(
                           static_cast<int64_t>(rng.Next())));
                     }
                     return Value::Array(std::move(elems));
                   }});
  cases.push_back(
      {"record",
       Schema::Record("N", {{"x", Schema::Double()}, {"y", Schema::String()}}),
       [](Random& rng) {
         std::vector<Value> fields;
         fields.push_back(Value::Double(rng.NextDouble()));
         fields.push_back(Value::String(rng.NextWord(7)));
         return Value::Record(std::move(fields));
       }});
  return cases;
}

Value RandomMap(Random& rng) {
  Value::MapEntries entries;
  const size_t len = rng.Uniform(6);
  entries.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Small key vocabulary so the DCSL dictionary actually dedups.
    entries.emplace_back("k" + std::to_string(rng.Uniform(20)),
                         Value::Int32(static_cast<int32_t>(rng.Uniform(100))));
  }
  return Value::Map(std::move(entries));
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
                               const ColumnOptions& options,
                               const std::function<Value(Random&)>& gen,
                               uint64_t seed, uint64_t n) {
  std::unique_ptr<ColumnFileWriter> writer;
  Status s = ColumnFileWriter::Create(fs, path, type, options, &writer);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  Random rng(seed);
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(gen(rng));
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

// Scans `path` twice — once scalar, once with NextBatch(batch_size) — and
// asserts both produce `expected` element for element.
void DifferentialScan(MiniHdfs* fs, const std::string& path,
                      const Schema& type, const std::vector<Value>& expected,
                      uint64_t batch_size) {
  SCOPED_TRACE(path + " batch_size=" + std::to_string(batch_size));
  IoStats io;
  std::unique_ptr<ColumnFileReader> scalar;
  std::unique_ptr<ColumnFileReader> batched;
  ASSERT_TRUE(OpenColumn(fs, path, &io, &scalar).ok());
  ASSERT_TRUE(OpenColumn(fs, path, &io, &batched).ok());
  ASSERT_EQ(scalar->row_count(), expected.size());

  ColumnBatch batch;
  Value scalar_value;
  Value materialized;
  uint64_t row = 0;
  while (row < expected.size()) {
    Status s = batched->NextBatch(batch_size, &batch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(batch.size(), 0u) << "NextBatch returned empty before EOF";
    ASSERT_LE(batch.size(), batch_size);
    for (size_t i = 0; i < batch.size(); ++i, ++row) {
      ASSERT_TRUE(scalar->ReadValue(&scalar_value).ok());
      const Value* got;
      if (batch.is_boxed()) {
        got = batch.BoxedAt(i);
      } else {
        batch.MaterializeInto(i, &materialized);
        got = &materialized;
      }
      ASSERT_EQ(Encoded(type, *got), Encoded(type, scalar_value))
          << "row " << row << ": batch=" << got->ToString()
          << " scalar=" << scalar_value.ToString();
      ASSERT_EQ(Encoded(type, *got), Encoded(type, expected[row]))
          << "row " << row << " diverges from written value";
    }
  }
  // At EOF both paths report clean end-of-column.
  Status s = batched->NextBatch(batch_size, &batch);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(batch.size(), 0u);
}

// All primitive + composite types, across every layout, with batch sizes
// chosen to land on, straddle, and span the 10/100/1000-row skip-list
// boundaries (and the compressed-block edges).
TEST(BatchDecodeTest, AllTypesAllLayoutsMatchScalar) {
  const uint64_t kRows = 2500;
  auto fs = MakeFs(31);
  uint64_t seed = 1;
  for (const LayoutCase& layout : LayoutCases()) {
    for (const ColumnCase& type : TypeCases()) {
      const std::string path =
          std::string("/col_") + layout.name + "_" + type.name;
      std::vector<Value> expected = WriteColumn(
          fs.get(), path, type.type, layout.options, type.gen, ++seed, kRows);
      for (uint64_t batch_size : {uint64_t{1}, uint64_t{7}, uint64_t{100},
                                  uint64_t{997}, uint64_t{1024},
                                  uint64_t{4096}}) {
        DifferentialScan(fs.get(), path, *type.type, expected, batch_size);
      }
    }
  }
}

// Map columns under DCSL: dictionary-coded keys decode through the bulk
// LookupBulk path; batch sizes straddle the 1000-row dictionary groups.
TEST(BatchDecodeTest, DictSkipListMapsMatchScalar) {
  const uint64_t kRows = 2500;
  auto fs = MakeFs(32);
  Schema::Ptr type = Schema::Map(Schema::Int32());
  ColumnOptions options;
  options.layout = ColumnLayout::kDictSkipList;
  std::vector<Value> expected =
      WriteColumn(fs.get(), "/dcsl", type, options, RandomMap, 99, kRows);
  for (uint64_t batch_size :
       {uint64_t{1}, uint64_t{500}, uint64_t{997}, uint64_t{1000},
        uint64_t{1500}, uint64_t{2600}}) {
    DifferentialScan(fs.get(), "/dcsl", *type, expected, batch_size);
  }
}

// A column whose type is null encodes zero bytes per value; the batch
// path must still count rows and serve nulls.
TEST(BatchDecodeTest, NullColumnsMatchScalar) {
  auto fs = MakeFs(33);
  for (const LayoutCase& layout : LayoutCases()) {
    const std::string path = std::string("/nulls_") + layout.name;
    std::vector<Value> expected =
        WriteColumn(fs.get(), path, Schema::Null(), layout.options,
                    [](Random&) { return Value::Null(); }, 7, 300);
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
// the surviving values against a scalar reader driven identically.
TEST(BatchDecodeTest, MidBatchSkipRowsMatchesScalar) {
  const uint64_t kRows = 2500;
  auto fs = MakeFs(34);
  Schema::Ptr type = Schema::String();
  auto gen = [](Random& rng) { return Value::String(rng.NextString(1, 50)); };
  for (const LayoutCase& layout : LayoutCases()) {
    const std::string path = std::string("/skipwalk_") + layout.name;
    WriteColumn(fs.get(), path, type, layout.options, gen, 11, kRows);
    for (uint64_t walk_seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      SCOPED_TRACE(path + " walk_seed=" + std::to_string(walk_seed));
      IoStats io;
      std::unique_ptr<ColumnFileReader> scalar;
      std::unique_ptr<ColumnFileReader> batched;
      ASSERT_TRUE(OpenColumn(fs.get(), path, &io, &scalar).ok());
      ASSERT_TRUE(OpenColumn(fs.get(), path, &io, &batched).ok());
      Random rng(walk_seed * 1000 + 7);
      ColumnBatch batch;
      Value scalar_value;
      Value materialized;
      uint64_t pos = 0;
      while (pos < kRows) {
        if (rng.OneIn(3)) {
          // Skips sized to cross the 10/100/1000-row boundaries.
          const uint64_t skip =
              std::min<uint64_t>(rng.Uniform(1300) + 1, kRows - pos);
          ASSERT_TRUE(batched->SkipRows(skip).ok());
          ASSERT_TRUE(scalar->SkipRows(skip).ok());
          pos += skip;
          continue;
        }
        const uint64_t want = rng.Uniform(600) + 1;
        Status s = batched->NextBatch(want, &batch);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(batch.size(), std::min(want, kRows - pos));
        for (size_t i = 0; i < batch.size(); ++i, ++pos) {
          ASSERT_TRUE(scalar->ReadValue(&scalar_value).ok());
          batch.MaterializeInto(i, &materialized);
          ASSERT_EQ(Encoded(*type, materialized),
                    Encoded(*type, scalar_value))
              << "row " << pos;
        }
        ASSERT_EQ(batched->current_row(), scalar->current_row());
      }
    }
  }
}

// Truncated column files: the batch path must deliver exactly the same
// prefix of values as the scalar path and then fail with the same status.
TEST(BatchDecodeTest, TruncatedInputErrorParity) {
  auto fs = MakeFs(35);
  struct TruncCase {
    std::string path;
    Schema::Ptr type;
  };
  std::vector<TruncCase> datasets;
  for (const LayoutCase& layout : LayoutCases()) {
    const std::string path = std::string("/trunc_") + layout.name;
    WriteColumn(fs.get(), path, Schema::String(), layout.options,
                [](Random& rng) { return Value::String(rng.NextString(5, 40)); },
                21, 800);
    datasets.push_back({path, Schema::String()});
  }
  {
    ColumnOptions options;
    options.layout = ColumnLayout::kDictSkipList;
    WriteColumn(fs.get(), "/trunc_dcsl", Schema::Map(Schema::Int32()), options,
                RandomMap, 22, 800);
    datasets.push_back({"/trunc_dcsl", Schema::Map(Schema::Int32())});
  }

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
      std::unique_ptr<ColumnFileReader> scalar;
      Status open_scalar = OpenColumn(fs.get(), tpath, &io, &scalar);
      std::unique_ptr<ColumnFileReader> batched;
      Status open_batched = OpenColumn(fs.get(), tpath, &io, &batched);
      ASSERT_EQ(open_scalar.ok(), open_batched.ok());
      ASSERT_EQ(open_scalar.ToString(), open_batched.ToString());
      if (!open_scalar.ok()) continue;  // header truncated: parity shown

      std::vector<std::string> scalar_values;
      Status scalar_status;
      Value value;
      for (uint64_t i = 0; i < scalar->row_count(); ++i) {
        scalar_status = scalar->ReadValue(&value);
        if (!scalar_status.ok()) break;
        scalar_values.push_back(Encoded(*dataset.type, value));
      }

      std::vector<std::string> batch_values;
      Status batch_status;
      ColumnBatch batch;
      Value materialized;
      while (batch_values.size() < scalar->row_count()) {
        batch_status = batched->NextBatch(177, &batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (batch.is_boxed()) {
            batch_values.push_back(Encoded(*dataset.type, *batch.BoxedAt(i)));
          } else {
            batch.MaterializeInto(i, &materialized);
            batch_values.push_back(Encoded(*dataset.type, materialized));
          }
        }
        if (!batch_status.ok() || batch.size() == 0) break;
      }

      EXPECT_EQ(batch_values.size(), scalar_values.size());
      const size_t common = std::min(batch_values.size(), scalar_values.size());
      for (size_t i = 0; i < common; ++i) {
        ASSERT_EQ(batch_values[i], scalar_values[i]) << "row " << i;
      }
      EXPECT_EQ(batch_status.ok(), scalar_status.ok());
      EXPECT_EQ(batch_status.ToString(), scalar_status.ToString());
    }
  }
}

// ---------------------------------------------------------------------
// Job-level equivalence: batched and scalar map loops must produce
// byte-identical reduce output across formats, parallelism, lazy
// materialization, and fault injection.
// ---------------------------------------------------------------------

std::string SerializeOutput(const JobReport& report) {
  std::string out;
  for (const auto& [key, value] : report.output) {
    out += key.ToString() + "\t" + value.ToString() + "\n";
  }
  return out;
}

// Touches a string, an int, and the map column on every row, so every
// lane of the batch (slices, ints, boxed values) feeds the output.
void TouchEveryColumn(Record& record, Emitter* out) {
  const int32_t i = record.GetOrDie("int0").int32_value();
  const std::string& s = record.GetOrDie("str0").string_value();
  const Value& m = record.GetOrDie("map0");
  out->Emit(Value::Int64(i % 10),
            Value::Int64(static_cast<int64_t>(s.size()) +
                         static_cast<int64_t>(m.ToString().size())));
}

// Touches str0 on about half the rows and map0 on about a seventh, so a
// lazy column meets both runs of touched rows and gaps between them.
void TouchSomeColumns(Record& record, Emitter* out) {
  const int32_t i = record.GetOrDie("int0").int32_value();
  int64_t size = 0;
  if (i % 2 == 0) {
    size += static_cast<int64_t>(record.GetOrDie("str0").string_value().size());
  }
  if (i % 7 == 0) {
    size += static_cast<int64_t>(record.GetOrDie("map0").ToString().size());
  }
  out->Emit(Value::Int64(i % 10), Value::Int64(size));
}

std::string RunMicroJob(MiniHdfs* fs, std::shared_ptr<InputFormat> format,
                        const std::string& path, bool project, bool lazy,
                        const MapFn& mapper, int parallelism,
                        uint64_t batch_rows) {
  Job job;
  job.config.input_paths = {path};
  if (project) job.config.projection = {"str0", "int0", "map0"};
  job.config.lazy_records = lazy;
  job.config.parallelism = parallelism;
  job.config.batch_rows = batch_rows;
  job.input_format = std::move(format);
  job.mapper = mapper;
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* out) {
    int64_t total = 0;
    for (const Value& v : values) total += v.int64_value();
    out->Emit(key, Value::Int64(total));
  };
  JobRunner runner(fs);
  JobReport report;
  Status s = runner.Run(job, &report);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  EXPECT_EQ(report.map_input_records, 3000u) << path;
  return SerializeOutput(report);
}

void WriteMicroDatasets(MiniHdfs* fs) {
  Schema::Ptr schema = MicrobenchSchema();
  CofOptions cof_options;
  cof_options.split_target_bytes = 256 * 1024;
  cof_options.default_column.layout = ColumnLayout::kSkipList;
  ColumnOptions compressed;
  compressed.layout = ColumnLayout::kCompressedBlocks;
  compressed.block_size = 8 * 1024;
  cof_options.column_overrides["str0"] = compressed;
  cof_options.column_overrides["int0"] = {ColumnLayout::kPlain};
  cof_options.column_overrides["map0"] = {ColumnLayout::kDictSkipList};
  std::unique_ptr<CofWriter> cof;
  ASSERT_TRUE(CofWriter::Open(fs, "/cif", schema, cof_options, &cof).ok());
  std::unique_ptr<RcFileWriter> rc;
  RcFileWriterOptions rc_options;
  rc_options.row_group_size = 64 * 1024;
  ASSERT_TRUE(RcFileWriter::Open(fs, "/rc", schema, rc_options, &rc).ok());
  std::unique_ptr<SeqWriter> seq;
  ASSERT_TRUE(SeqWriter::Open(fs, "/seq", schema, SeqWriterOptions{}, &seq)
                  .ok());
  MicrobenchGenerator gen(41);
  for (int i = 0; i < 3000; ++i) {
    const Value record = gen.Next();
    ASSERT_TRUE(cof->WriteRecord(record).ok());
    ASSERT_TRUE(rc->WriteRecord(record).ok());
    ASSERT_TRUE(seq->WriteRecord(record).ok());
  }
  ASSERT_TRUE(cof->Close().ok());
  ASSERT_TRUE(rc->Close().ok());
  ASSERT_TRUE(seq->Close().ok());
}

TEST(BatchJobTest, ByteIdenticalAcrossFormatsParallelismAndFaults) {
  auto fs = MakeFs(36);
  WriteMicroDatasets(fs.get());

  struct FormatCase {
    const char* name;
    std::function<std::shared_ptr<InputFormat>()> make;
    std::string path;
    bool project;
    bool lazy;
    MapFn mapper;
  };
  std::vector<FormatCase> formats = {
      {"cif-eager", [] { return std::make_shared<ColumnInputFormat>(); },
       "/cif", true, false, TouchEveryColumn},
      {"cif-lazy", [] { return std::make_shared<ColumnInputFormat>(); },
       "/cif", true, true, TouchEveryColumn},
      // Sparse and clustered touches: lazy decode-ahead resets after gaps.
      {"cif-lazy-sparse",
       [] { return std::make_shared<ColumnInputFormat>(); }, "/cif", true,
       true, TouchSomeColumns},
      {"rcfile", [] { return std::make_shared<RcFileInputFormat>(); }, "/rc",
       true, false, TouchEveryColumn},
      {"seq", [] { return std::make_shared<SeqInputFormat>(); }, "/seq",
       false, false, TouchEveryColumn},
  };

  for (const FormatCase& format : formats) {
    SCOPED_TRACE(format.name);
    const std::string baseline = RunMicroJob(
        fs.get(), format.make(), format.path, format.project, format.lazy,
        format.mapper, /*parallelism=*/1, /*batch_rows=*/1);
    ASSERT_FALSE(baseline.empty());
    for (int parallelism : {1, 4}) {
      for (bool faults : {false, true}) {
        FaultConfig config;
        if (faults) {
          config.seed = 5;
          config.read_error_p = 0.2;
        }
        fs->SetFaultConfig(config);
        for (uint64_t batch_rows : {uint64_t{1}, uint64_t{64},
                                    uint64_t{1024}}) {
          SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                       " faults=" + std::to_string(faults) +
                       " batch_rows=" + std::to_string(batch_rows));
          EXPECT_EQ(RunMicroJob(fs.get(), format.make(), format.path,
                                format.project, format.lazy, format.mapper,
                                parallelism, batch_rows),
                    baseline);
        }
        fs->SetFaultConfig(FaultConfig{});
      }
    }
  }
}

}  // namespace
}  // namespace colmr
