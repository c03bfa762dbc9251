#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cif/cif.h"
#include "cif/cof.h"
#include "cif/column_format.h"
#include "cif/column_reader.h"
#include "cif/column_stats.h"
#include "cif/column_writer.h"
#include "common/coding.h"
#include "mapreduce/engine.h"
#include "mapreduce/map_loop.h"
#include "obs/metrics.h"
#include "serde/predicate.h"
#include "serde/record.h"
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

// ---- Grammar: parse, validate, round trip ----

TEST(PredicateParseTest, RoundTripsThroughToString) {
  for (const char* text : {
           "a < 5",
           "a <= 5 AND b >= 'x'",
           "(a = 1 OR b != 2.5) AND c IS NOT NULL",
           "a IS NULL OR b > -3",
           "flag = true AND other = false",
       }) {
    Predicate p;
    ASSERT_TRUE(ParsePredicate(text, &p).ok()) << text;
    Predicate again;
    ASSERT_TRUE(ParsePredicate(p.ToString(), &again).ok()) << p.ToString();
    EXPECT_EQ(p.ToString(), again.ToString()) << text;
  }
}

// A double literal's text keeps every bit and stays a double, so a tiny
// cutoff survives the round trip instead of collapsing to 0.
TEST(PredicateParseTest, DoubleLiteralRoundTripsBitExact) {
  for (const auto& [text, d] :
       {std::pair{"a < 1e-9", 1e-9}, std::pair{"a < 3.0", 3.0}}) {
    Predicate p, again;
    ASSERT_TRUE(ParsePredicate(text, &p).ok());
    ASSERT_TRUE(ParsePredicate(p.ToString(), &again).ok()) << p.ToString();
    ASSERT_EQ(again.literal.kind(), TypeKind::kDouble) << p.ToString();
    EXPECT_EQ(again.literal.double_value(), d);
  }
}

TEST(PredicateParseTest, AcceptsOperatorSpellingsAndEscapes) {
  Predicate p;
  ASSERT_TRUE(ParsePredicate("a == 1 and b <> 'it\\'s' or c = \"q\"", &p).ok());
  EXPECT_EQ(p.op, Predicate::Op::kOr);
  ASSERT_TRUE(ParsePredicate("a < 1e3", &p).ok());
  EXPECT_EQ(p.literal.kind(), TypeKind::kDouble);
  ASSERT_TRUE(ParsePredicate("a < 12", &p).ok());
  EXPECT_EQ(p.literal.kind(), TypeKind::kInt64);
}

TEST(PredicateParseTest, RejectsMalformedInput) {
  Predicate p;
  EXPECT_FALSE(ParsePredicate("", &p).ok());
  EXPECT_FALSE(ParsePredicate("a <", &p).ok());
  EXPECT_FALSE(ParsePredicate("a = 'unterminated", &p).ok());
  EXPECT_FALSE(ParsePredicate("(a = 1", &p).ok());
  EXPECT_FALSE(ParsePredicate("a = 1 extra", &p).ok());
  EXPECT_FALSE(ParsePredicate("AND a = 1", &p).ok());
}

TEST(PredicateValidateTest, ChecksColumnsAndLiteralKinds) {
  Schema::Ptr schema = Schema::Record(
      "T", {{"s", Schema::String()},
            {"i", Schema::Int32()},
            {"m", Schema::Map(Schema::Int32())}});
  Predicate p;
  ASSERT_TRUE(ParsePredicate("s = 'x' AND i < 5", &p).ok());
  EXPECT_TRUE(ValidatePredicate(p, *schema, false).ok());

  ASSERT_TRUE(ParsePredicate("nosuch = 1", &p).ok());
  EXPECT_FALSE(ValidatePredicate(p, *schema, false).ok());
  EXPECT_TRUE(ValidatePredicate(p, *schema, true).ok());

  ASSERT_TRUE(ParsePredicate("m = 1", &p).ok());  // non-primitive column
  EXPECT_FALSE(ValidatePredicate(p, *schema, false).ok());

  ASSERT_TRUE(ParsePredicate("i = 'str'", &p).ok());  // kind mismatch
  EXPECT_FALSE(ValidatePredicate(p, *schema, false).ok());

  ASSERT_TRUE(ParsePredicate("m IS NOT NULL", &p).ok());  // null test is fine
  EXPECT_TRUE(ValidatePredicate(p, *schema, false).ok());
}

TEST(PredicateRowTest, KleeneNullSemantics) {
  Schema::Ptr schema =
      Schema::Record("T", {{"i", Schema::Int64()}, {"n", Schema::Null()}});
  EagerRecord record(schema,
                     Value::Record({Value::Int64(7), Value::Null()}));
  Status status;
  Predicate p;
  ASSERT_TRUE(ParsePredicate("i > 5", &p).ok());
  EXPECT_EQ(EvalPredicateRow(p, record, &status), Tri::kTrue);
  ASSERT_TRUE(ParsePredicate("n > 5", &p).ok());
  EXPECT_EQ(EvalPredicateRow(p, record, &status), Tri::kNull);
  ASSERT_TRUE(ParsePredicate("n > 5 OR i > 5", &p).ok());
  EXPECT_EQ(EvalPredicateRow(p, record, &status), Tri::kTrue);
  ASSERT_TRUE(ParsePredicate("n > 5 AND i > 5", &p).ok());
  EXPECT_EQ(EvalPredicateRow(p, record, &status), Tri::kNull);
  ASSERT_TRUE(ParsePredicate("n IS NULL", &p).ok());
  EXPECT_EQ(EvalPredicateRow(p, record, &status), Tri::kTrue);
  ASSERT_TRUE(ParsePredicate("i IS NULL", &p).ok());
  EXPECT_EQ(EvalPredicateRow(p, record, &status), Tri::kFalse);
  EXPECT_TRUE(status.ok());
}

// ---- Stats footer: write-time accumulation, read-back, edge cases ----

Status WriteInt64Column(MiniHdfs* fs, const std::string& path,
                        const std::vector<int64_t>& values,
                        ColumnLayout layout = ColumnLayout::kPlain) {
  ColumnOptions options;
  options.layout = layout;
  std::unique_ptr<ColumnFileWriter> writer;
  COLMR_RETURN_IF_ERROR(
      ColumnFileWriter::Create(fs, path, Schema::Int64(), options, &writer));
  for (int64_t v : values) {
    COLMR_RETURN_IF_ERROR(writer->Append(Value::Int64(v)));
  }
  return writer->Close();
}

/// Reads a whole file without charging anyone.
std::string ReadFile(MiniHdfs* fs, const std::string& path) {
  std::unique_ptr<FileReader> file;
  EXPECT_TRUE(fs->Open(path, ReadContext{}, &file).ok());
  std::string bytes;
  EXPECT_TRUE(file->Read(0, file->size(), &bytes).ok());
  return bytes;
}

/// Writes `bytes` as the file at `path`, replacing any file there.
void WriteFile(MiniHdfs* fs, const std::string& path,
               const std::string& bytes) {
  ASSERT_TRUE(fs->DeleteRecursive(path).ok());
  std::unique_ptr<FileWriter> out;
  ASSERT_TRUE(fs->Create(path, &out).ok());
  out->Append(bytes);
  ASSERT_TRUE(out->Close().ok());
}

/// Payload length of the stats footer ending a column file's bytes.
uint32_t FooterPayloadLength(const std::string& file) {
  Slice trailer(file.data() + file.size() - 8, 4);
  uint32_t payload_len = 0;
  EXPECT_TRUE(GetFixed32(&trailer, &payload_len).ok());
  return payload_len;
}

TEST(ColumnStatsTest, FooterRoundTripAcrossRowgroups) {
  auto fs = MakeFs();
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 2500; ++i) values.push_back(i * 3);
  for (ColumnLayout layout :
       {ColumnLayout::kPlain, ColumnLayout::kSkipList,
        ColumnLayout::kCompressedBlocks}) {
    const std::string path =
        "/c" + std::to_string(static_cast<int>(layout)) + ".col";
    ASSERT_TRUE(WriteInt64Column(fs.get(), path, values, layout).ok());

    ColumnFileStats stats;
    bool present = false;
    ASSERT_TRUE(
        ReadColumnStats(fs.get(), path, ReadContext{}, &stats, &present).ok());
    ASSERT_TRUE(present);
    EXPECT_EQ(stats.rows_per_group, kCifStatsRowGroup);
    ASSERT_EQ(stats.groups.size(), 3u);
    EXPECT_EQ(stats.groups[0].min.int64_value(), 0);
    EXPECT_EQ(stats.groups[0].max.int64_value(), 999 * 3);
    EXPECT_EQ(stats.groups[2].min.int64_value(), 2000 * 3);
    EXPECT_EQ(stats.groups[2].max.int64_value(), 2499 * 3);
    EXPECT_EQ(stats.groups[2].values, 500u);
    EXPECT_EQ(stats.file.values, 2500u);
    EXPECT_EQ(stats.file.nulls, 0u);
    ASSERT_TRUE(stats.file.has_min && stats.file.has_max);
    EXPECT_EQ(stats.file.min.int64_value(), 0);
    EXPECT_EQ(stats.file.max.int64_value(), 2499 * 3);

    // The footer must not disturb the scan: every row reads back.
    std::unique_ptr<ColumnFileReader> reader;
    ASSERT_TRUE(
        ColumnFileReader::Open(fs.get(), path, ReadContext{}, &reader).ok());
    ASSERT_EQ(reader->row_count(), 2500u);
    ColumnBatch batch;
    ASSERT_TRUE(reader->NextBatch(2500, &batch).ok());
    ASSERT_EQ(batch.size(), 2500u);
    for (int64_t i = 0; i < 2500; ++i) {
      ASSERT_EQ(batch.IntAt(i), i * 3) << "row " << i;
    }
  }
}

TEST(ColumnStatsTest, EmptyColumnHasEmptyFooter) {
  auto fs = MakeFs();
  ASSERT_TRUE(WriteInt64Column(fs.get(), "/empty.col", {}).ok());
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(ReadColumnStats(fs.get(), "/empty.col", ReadContext{}, &stats,
                              &present)
                  .ok());
  ASSERT_TRUE(present);
  EXPECT_EQ(stats.groups.size(), 0u);
  EXPECT_EQ(stats.file.values, 0u);
  EXPECT_FALSE(stats.file.has_min);
}

TEST(ColumnStatsTest, AllNullColumnCountsButNeverBounds) {
  auto fs = MakeFs();
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/null.col", Schema::Null(),
                                       ColumnOptions{}, &writer)
                  .ok());
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(writer->Append(Value::Null()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(ReadColumnStats(fs.get(), "/null.col", ReadContext{}, &stats,
                              &present)
                  .ok());
  ASSERT_TRUE(present);
  ASSERT_EQ(stats.groups.size(), 2u);
  EXPECT_EQ(stats.groups[0].values, 1000u);
  EXPECT_EQ(stats.groups[0].nulls, 1000u);
  EXPECT_FALSE(stats.groups[0].has_min);
  EXPECT_EQ(stats.file.nulls, 1500u);
  // IS NULL can still match; any comparison is refuted.
  Predicate is_null = Predicate::IsNull("c");
  Predicate cmp = Predicate::Cmp(Predicate::Op::kEq, "c", Value::Int64(1));
  const auto lookup = [&](const std::string&) { return &stats.file; };
  EXPECT_TRUE(PredicateCanMatch(is_null, lookup));
  EXPECT_FALSE(PredicateCanMatch(cmp, lookup));
}

TEST(ColumnStatsTest, NaNDropsGroupBoundsButNotOtherGroups) {
  auto fs = MakeFs();
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/d.col", Schema::Double(),
                                       ColumnOptions{}, &writer)
                  .ok());
  for (int i = 0; i < 2000; ++i) {
    const double v = (i == 500) ? std::nan("") : static_cast<double>(i);
    ASSERT_TRUE(writer->Append(Value::Double(v)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(
      ReadColumnStats(fs.get(), "/d.col", ReadContext{}, &stats, &present)
          .ok());
  ASSERT_TRUE(present);
  ASSERT_EQ(stats.groups.size(), 2u);
  EXPECT_FALSE(stats.groups[0].has_min);  // NaN poisoned group 0
  EXPECT_FALSE(stats.groups[0].has_max);
  ASSERT_TRUE(stats.groups[1].has_min);
  EXPECT_EQ(stats.groups[1].min.double_value(), 1000.0);
  // A NaN-poisoned group makes the file-level bounds unknown too.
  EXPECT_FALSE(stats.file.has_min);
  EXPECT_FALSE(stats.file.has_max);
}

TEST(ColumnStatsTest, LongStringBoundsStayConservative) {
  auto fs = MakeFs();
  const std::string lo(100, 'b');
  const std::string hi(100, 'y');
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/s.col", Schema::String(),
                                       ColumnOptions{}, &writer)
                  .ok());
  ASSERT_TRUE(writer->Append(Value::String(lo)).ok());
  ASSERT_TRUE(writer->Append(Value::String(hi)).ok());
  ASSERT_TRUE(writer->Close().ok());
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(
      ReadColumnStats(fs.get(), "/s.col", ReadContext{}, &stats, &present)
          .ok());
  ASSERT_TRUE(present);
  ASSERT_EQ(stats.groups.size(), 1u);
  const ColumnStats& g = stats.groups[0];
  ASSERT_TRUE(g.has_min && g.has_max);
  EXPECT_LE(g.min.string_value().size(), kCifStatsStringPrefix);
  EXPECT_LE(g.max.string_value().size(), kCifStatsStringPrefix);
  // min <= every value, max >= every value, per unsigned byte order.
  EXPECT_TRUE(PrimitiveLess(g.min, Value::String(lo)) ||
              g.min.string_value() == lo);
  EXPECT_TRUE(PrimitiveLess(Value::String(hi), g.max));
}

TEST(ColumnStatsTest, AllFFPrefixDropsMaxOnly) {
  auto fs = MakeFs();
  const std::string ff(80, '\xFF');
  std::unique_ptr<ColumnFileWriter> writer;
  ASSERT_TRUE(ColumnFileWriter::Create(fs.get(), "/ff.col", Schema::String(),
                                       ColumnOptions{}, &writer)
                  .ok());
  ASSERT_TRUE(writer->Append(Value::String("aaa")).ok());
  ASSERT_TRUE(writer->Append(Value::String(ff)).ok());
  ASSERT_TRUE(writer->Close().ok());
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(
      ReadColumnStats(fs.get(), "/ff.col", ReadContext{}, &stats, &present)
          .ok());
  ASSERT_TRUE(present);
  ASSERT_EQ(stats.groups.size(), 1u);
  EXPECT_TRUE(stats.groups[0].has_min);
  EXPECT_FALSE(stats.groups[0].has_max);  // no byte of the prefix can bump
}

// Stats are advisory about the bytes, not about the reads: a footer read
// that fails on every replica surfaces, so the map task retries instead
// of silently scanning unpruned. A missing file still means no stats.
TEST(ColumnStatsTest, FooterReadErrorSurfaces) {
  auto fs = MakeFs();
  ASSERT_TRUE(WriteInt64Column(fs.get(), "/c.col", {1, 2, 3}).ok());
  FaultConfig faults;
  faults.read_error_p = 1.0;
  fs->SetFaultConfig(faults);
  ColumnFileStats stats;
  bool present = true;
  Status s = ReadColumnStats(fs.get(), "/c.col", ReadContext{}, &stats,
                             &present);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_FALSE(present);
  ASSERT_TRUE(ReadColumnStats(fs.get(), "/missing.col", ReadContext{},
                              &stats, &present)
                  .ok());
  EXPECT_FALSE(present);
}

TEST(ColumnStatsTest, PreStatsFileReadsFineAndReportsNoStats) {
  auto fs = MakeFs();
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 1200; ++i) values.push_back(i);
  ASSERT_TRUE(WriteInt64Column(fs.get(), "/new.col", values,
                               ColumnLayout::kSkipList)
                  .ok());
  // Reconstruct the file as a pre-stats writer would have produced it:
  // identical bytes minus the trailing footer.
  const std::string file = ReadFile(fs.get(), "/new.col");
  WriteFile(fs.get(), "/old.col",
            file.substr(0, file.size() - 8 - FooterPayloadLength(file)));

  ColumnFileStats stats;
  bool present = true;
  ASSERT_TRUE(
      ReadColumnStats(fs.get(), "/old.col", ReadContext{}, &stats, &present)
          .ok());
  EXPECT_FALSE(present);

  // The old file scans and skips exactly like the new one.
  std::unique_ptr<ColumnFileReader> reader;
  ASSERT_TRUE(
      ColumnFileReader::Open(fs.get(), "/old.col", ReadContext{}, &reader)
          .ok());
  ASSERT_EQ(reader->row_count(), 1200u);
  ASSERT_TRUE(reader->SkipRows(1000).ok());
  ColumnBatch batch;
  ASSERT_TRUE(reader->NextBatch(1, &batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.IntAt(0), 1000);
}

// ---- End-to-end: pruning and selection vectors ----

Schema::Ptr MatrixSchema() {
  return Schema::Record("Zx", {{"seq", Schema::Int64()},
                               {"str0", Schema::String()},
                               {"int0", Schema::Int32()},
                               {"map0", Schema::Map(Schema::Int32())}});
}

class PushdownJobTest : public ::testing::Test {
 protected:
  static constexpr int kRecords = 2500;

  void SetUp() override {
    fs_ = MakeFs();
    Random rng(4242);
    Schema::Ptr schema = MatrixSchema();

    CofOptions plain, sl, comp, dcsl;
    plain.split_target_bytes = 1ull << 30;  // one split-directory
    sl = comp = dcsl = plain;
    sl.default_column.layout = ColumnLayout::kSkipList;
    comp.default_column.layout = ColumnLayout::kCompressedBlocks;
    comp.default_column.block_size = 4096;
    dcsl.default_column.layout = ColumnLayout::kSkipList;
    dcsl.column_overrides["map0"] = ColumnOptions{ColumnLayout::kDictSkipList};

    std::unique_ptr<CofWriter> w_plain, w_sl, w_comp, w_dcsl;
    ASSERT_TRUE(
        CofWriter::Open(fs_.get(), "/plain", schema, plain, &w_plain).ok());
    ASSERT_TRUE(CofWriter::Open(fs_.get(), "/sl", schema, sl, &w_sl).ok());
    ASSERT_TRUE(
        CofWriter::Open(fs_.get(), "/comp", schema, comp, &w_comp).ok());
    ASSERT_TRUE(
        CofWriter::Open(fs_.get(), "/dcsl", schema, dcsl, &w_dcsl).ok());
    for (int i = 0; i < kRecords; ++i) {
      Value::MapEntries entries;
      entries.emplace_back("k" + std::to_string(i % 3),
                           Value::Int32(i % 100));
      const Value record = Value::Record(
          {Value::Int64(i), Value::String(rng.NextString(8, 20)),
           Value::Int32(static_cast<int32_t>(rng.UniformRange(1, 10000))),
           Value::Map(std::move(entries))});
      ASSERT_TRUE(w_plain->WriteRecord(record).ok());
      ASSERT_TRUE(w_sl->WriteRecord(record).ok());
      ASSERT_TRUE(w_comp->WriteRecord(record).ok());
      ASSERT_TRUE(w_dcsl->WriteRecord(record).ok());
    }
    ASSERT_TRUE(w_plain->Close().ok());
    ASSERT_TRUE(w_sl->Close().ok());
    ASSERT_TRUE(w_comp->Close().ok());
    ASSERT_TRUE(w_dcsl->Close().ok());
  }

  // Clustered + disjunctive: rowgroup 1 (rows 1000-1999) is fully refuted,
  // groups 0 and 2 partially match.
  static constexpr char kWhere[] = "seq < 600 OR seq >= 2200";
  static bool Matches(int64_t seq) { return seq < 600 || seq >= 2200; }

  /// Runs the filtering job over `path` into *report.
  void Run(const std::string& path, bool pushdown, bool lazy,
           MetricsRegistry* metrics, JobReport* report) {
    Job job;
    job.config.input_paths = {path};
    job.config.projection = {"seq", "int0"};
    job.config.lazy_records = lazy;
    job.config.metrics = metrics;
    Predicate p;
    EXPECT_TRUE(ParsePredicate(kWhere, &p).ok());
    job.config.predicate = std::make_shared<const Predicate>(std::move(p));
    job.config.predicate_pushdown = pushdown;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      out->Emit(Value::Int64(record.GetOrDie("seq").int64_value() % 7),
                Value::Int64(record.GetOrDie("int0").int32_value()));
    };
    job.reducer = [](const Value& key, const std::vector<Value>& values,
                     Emitter* out) {
      int64_t sum = 0;
      for (const Value& v : values) sum += v.int64_value();
      out->Emit(key, Value::Int64(sum));
    };
    JobRunner runner(fs_.get());
    Status s = runner.Run(job, report);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  std::unique_ptr<MiniHdfs> fs_;
};

// Zone maps refute rowgroup 1 of every layout, eager or lazy; only
// pushdown prunes it, and either way exactly the matching rows are
// mapped. (oracle_test checks the output itself across every knob.)
TEST_F(PushdownJobTest, PrunesRowgroupsOnlyWithPushdown) {
  uint64_t match_count = 0;
  for (int i = 0; i < kRecords; ++i) match_count += Matches(i);
  for (const std::string layout : {"/plain", "/sl", "/comp", "/dcsl"}) {
    for (const bool pushdown : {false, true}) {
      for (const bool lazy : {false, true}) {
        MetricsRegistry metrics;
        JobReport report;
        const std::string what = layout + (pushdown ? " push" : " nopush") +
                                 (lazy ? " lazy" : " eager");
        Run(layout, pushdown, lazy, &metrics, &report);
        EXPECT_EQ(report.map_input_records, match_count) << what;
        const uint64_t pruned =
            metrics.counter("cif.prune.rowgroups")->value();
        if (pushdown) {
          EXPECT_GT(pruned, 0u) << what;
        } else {
          EXPECT_EQ(pruned, 0u) << what;
        }
      }
    }
  }
}

TEST_F(PushdownJobTest, SplitPruningDropsRefutedDirectories) {
  // Re-load the same rows into many small split-directories so file-level
  // stats can drop whole splits at plan time.
  Schema::Ptr schema = MatrixSchema();
  CofOptions options;
  options.split_target_bytes = 16 * 1024;
  options.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(
      CofWriter::Open(fs_.get(), "/many", schema, options, &writer).ok());
  Random rng(4242);
  for (int i = 0; i < kRecords; ++i) {
    Value::MapEntries entries;
    entries.emplace_back("k", Value::Int32(i % 100));
    ASSERT_TRUE(writer
                    ->WriteRecord(Value::Record(
                        {Value::Int64(i), Value::String(rng.NextString(8, 20)),
                         Value::Int32(static_cast<int32_t>(
                             rng.UniformRange(1, 10000))),
                         Value::Map(std::move(entries))}))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  ASSERT_GT(writer->split_count(), 2);

  MetricsRegistry metrics;
  JobReport report;
  Job job;
  job.config.input_paths = {"/many"};
  job.config.projection = {"seq"};
  job.config.metrics = &metrics;
  Predicate p;
  ASSERT_TRUE(ParsePredicate("seq < 100", &p).ok());
  job.config.predicate = std::make_shared<const Predicate>(std::move(p));
  job.input_format = std::make_shared<ColumnInputFormat>();
  uint64_t seen = 0;
  // Serial map-only run; count via combiner-less mapper side effects is
  // unsafe under retries, so count matched rows through the report.
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(Value::Int64(record.GetOrDie("seq").int64_value()),
              Value::Null());
  };
  JobRunner runner(fs_.get());
  ASSERT_TRUE(runner.Run(job, &report).ok());
  (void)seen;
  EXPECT_EQ(report.map_input_records, 100u);
  EXPECT_GT(metrics.counter("cif.prune.splits")->value(), 0u);

  // A predicate no row satisfies still runs (one split is kept so the
  // engine has input) and yields zero rows.
  MetricsRegistry metrics2;
  JobReport report2;
  Predicate none;
  ASSERT_TRUE(ParsePredicate("seq < 0", &none).ok());
  job.config.predicate = std::make_shared<const Predicate>(std::move(none));
  job.config.metrics = &metrics2;
  ASSERT_TRUE(runner.Run(job, &report2).ok());
  EXPECT_EQ(report2.map_input_records, 0u);
}

TEST_F(PushdownJobTest, MissingPredicateColumnEvaluatesAsNull) {
  Job job;
  job.config.input_paths = {"/sl"};
  job.config.projection = {"seq"};
  Predicate p;
  ASSERT_TRUE(ParsePredicate("nosuch IS NULL", &p).ok());
  job.config.predicate = std::make_shared<const Predicate>(std::move(p));
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record&, Emitter* out) {
    out->Emit(Value::Int64(0), Value::Null());
  };
  JobRunner runner(fs_.get());
  JobReport report;
  // Without tolerance the job fails validation.
  EXPECT_FALSE(runner.Run(job, &report).ok());
  // With tolerance the missing column is NULL, so IS NULL selects all.
  job.config.null_for_missing_columns = true;
  JobReport report2;
  ASSERT_TRUE(runner.Run(job, &report2).ok());
  EXPECT_EQ(report2.map_input_records, static_cast<uint64_t>(kRecords));
}

// ---- Byte contract: pruned rowgroups cost no bytes (DESIGN.md §13) ----

constexpr uint64_t kZonedRows = 20000;
// Rowgroup 10 of a zoned dataset: a middle window.
constexpr char kMiddleWindow[] = "seq >= 10050 AND seq < 10150";
constexpr char kFirstWindow[] = "seq >= 50 AND seq < 150";

/// Writes the first `rows` zoned records (seq = 0, 1, ...) as one
/// skip-list split-directory.
void WriteZoned(MiniHdfs* fs, const std::string& path, uint64_t rows) {
  CofOptions options;
  options.split_target_bytes = 1ull << 30;
  options.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(CofWriter::Open(fs, path, ZonedSchema(), options, &writer).ok());
  ZonedGenerator gen(77);
  for (uint64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

/// Rewrites the column file at `path` with the v1 footer a writer before
/// rowgroup offsets produced: the v2 payload without its offset table and
/// CRC, under version 1.
void DowngradeFooter(MiniHdfs* fs, const std::string& path) {
  ColumnFileStats stats;
  bool present = false;
  ASSERT_TRUE(
      ReadColumnStats(fs, path, ReadContext{}, &stats, &present).ok());
  ASSERT_TRUE(present);
  Buffer table;
  uint64_t previous = 0;
  for (uint64_t offset : stats.group_offsets) {
    PutVarint64(&table, offset - previous);
    previous = offset;
  }
  const std::string file = ReadFile(fs, path);
  const uint32_t payload_len = FooterPayloadLength(file);
  const size_t payload_start = file.size() - 8 - payload_len;
  ASSERT_EQ(file[payload_start], static_cast<char>(kCifStatsV2));
  Buffer v1;
  v1.PushBack(static_cast<char>(kCifStatsV1));
  v1.Append(Slice(file.data() + payload_start + 1,
                  payload_len - 1 - table.size() - 4));
  Buffer rewritten;
  rewritten.Append(Slice(file.data(), payload_start));
  rewritten.Append(v1.AsSlice());
  PutFixed32(&rewritten, static_cast<uint32_t>(v1.size()));
  rewritten.Append(Slice(kCifStatsMagic, 4));
  WriteFile(fs, path, rewritten.TakeString());
}

/// What one pushdown scan of seq and int0 requested and produced.
struct ZonedScan {
  uint64_t rows = 0;
  uint64_t int0_sum = 0;
  IoStats io;
  /// Bytes the scan requested (hdfs.read.bytes, cache views included)
  /// minus its schema read and the footers it read: what the column fills
  /// requested.
  uint64_t fill_bytes = 0;
  /// Column footers the reader read: seq's (the predicate column) always,
  /// int0's only when some pruned run ends before the split does.
  uint64_t footers = 0;
  uint64_t skipped_bytes = 0;
  uint64_t jumps = 0;
  uint64_t jumped_bytes = 0;
  uint64_t pruned_rowgroups = 0;
};

/// Scans seq and int0 of the zoned dataset at `path` under `where`,
/// pushed down, through the CIF reader alone, so its counters hold only
/// what the reader requested: the schema, the footers it needed and the
/// column fills. Every non-empty batch must carry a selection vector.
ZonedScan ScanZoned(MiniHdfs* fs, const std::string& path,
                    const std::string& where, bool lazy = false) {
  MetricsRegistry metrics;
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {path};
  config.projection = {"seq", "int0"};
  config.lazy_records = lazy;
  Predicate predicate;
  EXPECT_TRUE(ParsePredicate(where, &predicate).ok());
  config.predicate = std::make_shared<const Predicate>(std::move(predicate));
  std::vector<InputSplit> splits;
  EXPECT_TRUE(format.GetSplits(fs, config, &splits).ok());
  ZonedScan scan;
  uint64_t metadata_bytes = 0;
  Counter* opens = metrics.counter("hdfs.open.count");
  for (const InputSplit& split : splits) {
    const uint64_t opens_before = opens->value();
    std::unique_ptr<RecordReader> reader;
    EXPECT_TRUE(format
                    .CreateRecordReader(
                        fs, config, split,
                        ReadContext{kAnyNode, &scan.io, 0, &metrics, nullptr},
                        &reader)
                    .ok());
    EXPECT_TRUE(ForEachMappedRecord(
                    reader.get(), config.batch_rows, config.predicate.get(),
                    [&] {
                      // Eager or lazy, a pushed-down predicate is
                      // evaluated over the batch: never row-wise.
                      EXPECT_NE(reader->selection(), nullptr);
                      return Status::OK();
                    },
                    [&](Record& record) {
                      // A misread column fails the check, not the binary.
                      const Value* int0 = nullptr;
                      const Status got = record.Get("int0", &int0);
                      EXPECT_TRUE(got.ok()) << got.ToString();
                      if (got.ok()) {
                        scan.int0_sum +=
                            static_cast<uint64_t>(int0->int32_value());
                      }
                    },
                    &scan.rows)
                    .ok());
    EXPECT_TRUE(reader->status().ok());
    const std::string& first = split.paths.front();
    uint64_t schema_bytes = 0;
    EXPECT_TRUE(fs->GetFileSize(first.substr(0, first.rfind('/')) + "/_schema",
                                &schema_bytes)
                    .ok());
    metadata_bytes += schema_bytes;
    // Every file the reader opened beyond the schema and the column files
    // was a footer read, in read-set order: seq's, then int0's.
    const uint64_t footers =
        opens->value() - opens_before - 1 - split.paths.size();
    for (uint64_t c = 0; c < footers && c < split.paths.size(); ++c) {
      metadata_bytes += 8 + FooterPayloadLength(ReadFile(fs, split.paths[c]));
    }
    scan.footers += footers;
  }
  MetricsSnapshot snapshot = metrics.Snapshot();
  scan.fill_bytes = snapshot.histograms["hdfs.read.bytes"].sum -
                    metadata_bytes;
  scan.skipped_bytes = snapshot.counters["cif.scan.skipped_bytes"];
  scan.jumps = snapshot.counters["cif.scan.jumps"];
  scan.jumped_bytes = snapshot.counters["cif.scan.jumped_bytes"];
  scan.pruned_rowgroups = snapshot.counters["cif.prune.rowgroups"];
  return scan;
}

/// Sum of int0 over the zoned rows whose seq is in [from, to).
uint64_t ZonedInt0Sum(int64_t from, int64_t to) {
  ZonedGenerator gen(77);
  uint64_t sum = 0;
  for (int64_t seq = 0; seq < to; ++seq) {
    const Value record = gen.Next();
    if (seq >= from) {
      sum += static_cast<uint64_t>(record.elements()[4].int32_value());
    }
  }
  return sum;
}

/// Writes /v2 and /v1: the same zoned rows, /v1 with the v1 footers a
/// writer before rowgroup offsets produced.
void WriteV2AndV1(MiniHdfs* fs) {
  WriteZoned(fs, "/v2", kZonedRows);
  WriteZoned(fs, "/v1", kZonedRows);
  for (const char* column : {"seq", "int0"}) {
    DowngradeFooter(fs, std::string("/v1/s0/") + column + ".col");
  }
}

// A pruned run that reaches the end of the split moves no column: past the
// last match the scan requests nothing, so 20,000 more trailing rows cost
// only seq's longer footer. No run ends early, so int0's footer stays
// unread.
TEST(PushdownBytesTest, TrailingPrunedRunRequestsNoBytes) {
  auto fs = MakeFs();
  WriteZoned(fs.get(), "/short", kZonedRows);
  WriteZoned(fs.get(), "/long", 2 * kZonedRows);
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    const ZonedScan short_scan =
        ScanZoned(fs.get(), "/short", "seq < 150", lazy);
    const ZonedScan long_scan =
        ScanZoned(fs.get(), "/long", "seq < 150", lazy);
    EXPECT_EQ(short_scan.rows, 150u);
    EXPECT_EQ(long_scan.rows, 150u);
    EXPECT_EQ(long_scan.int0_sum, short_scan.int0_sum);
    EXPECT_EQ(long_scan.pruned_rowgroups, 2 * kZonedRows / 1000 - 1);
    EXPECT_EQ(long_scan.fill_bytes, short_scan.fill_bytes);
    EXPECT_EQ(long_scan.io.seeks, short_scan.io.seeks);
    EXPECT_EQ(long_scan.footers, 1u);
    EXPECT_EQ(short_scan.footers, 1u);
  }
}

// Uncached, a jump is free only inside the buffered window, so a middle
// window requests the bytes and seeks of the walk a v1 footer forces. A
// fill reaching the end of a file also carries its footer, which v2 makes
// longer by the offsets and CRC. With 4 KB fills the leading run walks.
// With 64 KB fills it jumps inside the window: the bytes it passes were
// requested with the window, so they count as skipped, not jumped.
TEST(PushdownBytesTest, UncachedMiddleWindowRequestsWhatTheWalkDoes) {
  const uint64_t want = ZonedInt0Sum(10050, 10150);
  for (const uint64_t fill : {4 * 1024, 64 * 1024}) {
    ClusterConfig cluster = TestCluster();
    cluster.io_buffer_size = fill;
    MiniHdfs fs(cluster, std::make_unique<ColumnPlacementPolicy>(5));
    WriteV2AndV1(&fs);
    uint64_t footer_growth = 0;
    for (const char* column : {"seq", "int0"}) {
      const std::string name = std::string("/s0/") + column + ".col";
      footer_growth += FooterPayloadLength(ReadFile(&fs, "/v2" + name)) -
                       FooterPayloadLength(ReadFile(&fs, "/v1" + name));
    }
    for (const bool lazy : {false, true}) {
      SCOPED_TRACE(std::to_string(fill) + " B fills, " +
                   (lazy ? "lazy" : "eager"));
      const ZonedScan v2 = ScanZoned(&fs, "/v2", kMiddleWindow, lazy);
      const ZonedScan v1 = ScanZoned(&fs, "/v1", kMiddleWindow, lazy);
      EXPECT_EQ(v2.rows, 100u);
      EXPECT_EQ(v2.int0_sum, want);
      EXPECT_EQ(v1.int0_sum, want);
      EXPECT_EQ(v2.footers, 2u);
      EXPECT_GE(v2.fill_bytes, v1.fill_bytes);
      EXPECT_LE(v2.fill_bytes, v1.fill_bytes + footer_growth);
      EXPECT_EQ(v2.io.seeks, v1.io.seeks);
      EXPECT_EQ(v2.jumped_bytes, 0u);
      EXPECT_LE(v2.skipped_bytes, v2.fill_bytes);
      EXPECT_EQ(v1.jumps, 0u);
      if (fill == 64 * 1024) {
        EXPECT_GT(v2.jumps, 0u);
      }
    }
  }
}

// Warm, every jump lands in a cached block: it fetches nothing and
// charges no seek, so a middle window seeks no more than one at row 0.
TEST(PushdownBytesTest, WarmMiddleWindowSeeksNoMoreThanFirstWindow) {
  auto fs = MakeFs();
  WriteZoned(fs.get(), "/z", kZonedRows);
  fs->EnsureBlockCache(64 << 20, nullptr);
  ScanZoned(fs.get(), "/z", "seq >= 0");  // warms every block
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    const ZonedScan first = ScanZoned(fs.get(), "/z", kFirstWindow, lazy);
    const ZonedScan middle = ScanZoned(fs.get(), "/z", kMiddleWindow, lazy);
    EXPECT_EQ(middle.int0_sum, ZonedInt0Sum(10050, 10150));
    EXPECT_EQ(first.int0_sum, ZonedInt0Sum(50, 150));
    EXPECT_LE(middle.io.seeks, first.io.seeks);
    EXPECT_GT(middle.jumped_bytes, 0u);
    EXPECT_LE(middle.skipped_bytes, middle.fill_bytes);
  }
}

// A v1 footer has no offsets: the scan prunes the same rowgroups and
// returns the same rows, but walks every skip, even where every block is
// cached and a v2 scan jumps.
TEST(PushdownBytesTest, V1FooterPrunesAndWalks) {
  auto fs = MakeFs();
  WriteV2AndV1(fs.get());
  fs->EnsureBlockCache(64 << 20, nullptr);
  ScanZoned(fs.get(), "/v2", "seq >= 0");  // warms every block
  ScanZoned(fs.get(), "/v1", "seq >= 0");
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    const ZonedScan v2 = ScanZoned(fs.get(), "/v2", kMiddleWindow, lazy);
    const ZonedScan v1 = ScanZoned(fs.get(), "/v1", kMiddleWindow, lazy);
    EXPECT_EQ(v1.rows, 100u);
    EXPECT_EQ(v1.int0_sum, v2.int0_sum);
    EXPECT_EQ(v1.pruned_rowgroups, v2.pruned_rowgroups);
    EXPECT_EQ(v1.pruned_rowgroups, kZonedRows / 1000 - 1);
    EXPECT_EQ(v1.jumps, 0u);
    EXPECT_GT(v2.jumped_bytes, 0u);
    EXPECT_LT(v2.fill_bytes, v1.fill_bytes);
  }
}

// The v2 footer's CRC covers its bounds and offsets: with any one byte of
// a column's footer flipped, the footer reads as absent or intact, and
// the scan returns the reference rows either way. The block cache makes
// every trusted offset a jump target, in the window or past it.
TEST(PushdownBytesTest, DamagedFooterByteKeepsReferenceOutput) {
  auto fs = MakeFs();
  fs->EnsureBlockCache(64 << 20, nullptr);
  constexpr uint64_t kRows = 3000;
  WriteZoned(fs.get(), "/z", kRows);
  constexpr char kWhere[] = "seq >= 1500 AND seq < 1600";
  const uint64_t want = ZonedInt0Sum(1500, 1600);
  for (const char* column : {"seq", "int0"}) {
    const std::string path = std::string("/z/s0/") + column + ".col";
    const std::string original = ReadFile(fs.get(), path);
    const size_t footer = original.size() - 8 - FooterPayloadLength(original);
    for (size_t i = footer; i < original.size(); ++i) {
      for (const char mask : {'\x01', '\xFF'}) {
        SCOPED_TRACE(std::string(column) + " footer byte " +
                     std::to_string(i - footer) + " mask " +
                     std::to_string(static_cast<uint8_t>(mask)));
        std::string damaged = original;
        damaged[i] = static_cast<char>(damaged[i] ^ mask);
        WriteFile(fs.get(), path, damaged);
        for (const bool lazy : {false, true}) {
          const ZonedScan scan = ScanZoned(fs.get(), "/z", kWhere, lazy);
          EXPECT_EQ(scan.rows, 100u);
          EXPECT_EQ(scan.int0_sum, want);
        }
      }
    }
    WriteFile(fs.get(), path, original);
  }
}

}  // namespace
}  // namespace colmr
