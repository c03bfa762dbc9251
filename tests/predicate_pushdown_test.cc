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
#include "mapreduce/engine.h"
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

TEST(ColumnStatsTest, PreStatsFileReadsFineAndReportsNoStats) {
  auto fs = MakeFs();
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 1200; ++i) values.push_back(i);
  ASSERT_TRUE(WriteInt64Column(fs.get(), "/new.col", values,
                               ColumnLayout::kSkipList)
                  .ok());
  // Reconstruct the file as a pre-stats writer would have produced it:
  // identical bytes minus the trailing footer.
  std::unique_ptr<FileReader> in;
  ASSERT_TRUE(fs->Open("/new.col", ReadContext{}, &in).ok());
  std::string trailer;
  ASSERT_TRUE(in->Read(in->size() - 8, 8, &trailer).ok());
  Slice len_slice(trailer.data(), 4);
  uint32_t payload_len = 0;
  ASSERT_TRUE(GetFixed32(&len_slice, &payload_len).ok());
  const uint64_t old_size = in->size() - 8 - payload_len;
  std::string body;
  ASSERT_TRUE(in->Read(0, old_size, &body).ok());
  std::unique_ptr<FileWriter> out;
  ASSERT_TRUE(fs->Create("/old.col", &out).ok());
  out->Append(body);
  ASSERT_TRUE(out->Close().ok());

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

}  // namespace
}  // namespace colmr
