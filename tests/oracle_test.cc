// One seeded differential oracle for whole jobs. Each case samples a
// cluster, a dataset, a storage format and layout, a predicate, a map key
// and a fault schedule from COLMR_FAULT_SEED and its own index, then runs
// the job twice — eager records, then lazy ones — each under its own
// sampled engine knobs. Every run's output, committed part files and
// report invariants are checked against one row-at-a-time reference: the
// same mapper over the generator's in-memory rows, grouped with
// Value::Compare and rendered partition by partition, with no storage
// involved. A failure prints the sampled case; replay it exactly with
//   COLMR_FAULT_SEED=<seed> oracle_test --gtest_filter='*/<case>'
// (fault draws are counter-mode hashes of the seed, DESIGN.md §7).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cif/cof.h"
#include "common/hash.h"
#include "formats/detect.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"
#include "mapreduce/committer.h"
#include "mapreduce/engine.h"
#include "mapreduce/spill.h"
#include "obs/metrics.h"
#include "serde/encoding.h"
#include "serde/predicate.h"
#include "value_gen.h"
#include "word_count_job.h"

namespace colmr {
namespace {

constexpr int kCases = 192;

/// Appends " name=value" to *what and returns value, so a knob is sampled
/// and described in one line.
template <typename T>
T Note(std::string* what, const char* name, T value) {
  *what += std::string(" ") + name + "=" + std::to_string(value);
  return value;
}

/// A random predicate tree over the primitive columns, with int literals
/// against double columns and the reverse, and IS [NOT] NULL tests — also
/// on the column "gone", which no split-directory has (CIF only).
Predicate GenPredicate(const Schema& schema, const std::vector<Value>& rows,
                       bool cif, int depth, Random& rng) {
  if (depth > 0 && rng.OneIn(2)) {
    std::vector<Predicate> children;
    for (uint64_t n = 2 + rng.Uniform(2); n > 0; --n) {
      children.push_back(GenPredicate(schema, rows, cif, depth - 1, rng));
    }
    return rng.OneIn(2) ? Predicate::And(std::move(children))
                        : Predicate::Or(std::move(children));
  }
  std::vector<size_t> primitive;
  for (size_t i = 0; i < schema.fields().size(); ++i) {
    if (schema.fields()[i].type->is_primitive()) primitive.push_back(i);
  }
  const size_t index = primitive[rng.Uniform(primitive.size())];
  const std::string& name = schema.fields()[index].name;
  if (rng.OneIn(8)) {
    const std::string column = cif && rng.OneIn(2) ? "gone" : name;
    return rng.OneIn(2) ? Predicate::IsNull(column)
                        : Predicate::IsNotNull(column);
  }
  // Literals come from the data (equality hits) or the edge values.
  Value literal = rng.OneIn(3)
                      ? GenValue(*schema.fields()[index].type, rng)
                      : rows[rng.Uniform(rows.size())].elements()[index];
  if (literal.kind() == TypeKind::kInt32 ||
      literal.kind() == TypeKind::kInt64) {
    literal = rng.OneIn(3) ? Value::Double(literal.int64_value() + 0.5)
                           : Value::Int64(literal.int64_value());
  } else if (literal.kind() == TypeKind::kDouble && rng.OneIn(3) &&
             std::abs(literal.double_value()) < 1e18) {
    literal = Value::Int64(static_cast<int64_t>(literal.double_value()));
  }
  using Op = Predicate::Op;
  const Op ops[] = {Op::kEq, Op::kNe, Op::kLt, Op::kLe, Op::kGt, Op::kGe};
  return Predicate::Cmp(Pick(rng, ops), name, std::move(literal));
}

/// A window on the clustered seq column, so zone maps prune rowgroups:
/// mostly the leading ones — a pruned run the scan must skip before it
/// reads — else the middle, both ends or the tail. Its ends fall on or
/// next to a 1000-row zone-map boundary a third of the time.
Predicate SeqWindow(uint64_t n_rows, Random& rng) {
  const auto end = [&]() -> int64_t {
    if (!rng.OneIn(3)) return static_cast<int64_t>(rng.Uniform(n_rows + 1));
    const uint64_t boundary = 1000 * rng.Uniform(n_rows / 1000 + 1);
    return std::clamp<int64_t>(
        static_cast<int64_t>(boundary + rng.Uniform(3)) - 1, 0,
        static_cast<int64_t>(n_rows));
  };
  const int64_t a = end();
  const int64_t b = end();
  const Value lo = Value::Int64(std::min(a, b));
  const Value hi = Value::Int64(std::max(a, b));
  using Op = Predicate::Op;
  const Predicate below_lo = Predicate::Cmp(Op::kLt, "seq", lo);
  const Predicate below_hi = Predicate::Cmp(Op::kLt, "seq", hi);
  const Predicate from_lo = Predicate::Cmp(Op::kGe, "seq", lo);
  const Predicate from_hi = Predicate::Cmp(Op::kGe, "seq", hi);
  const Predicate shapes[] = {
      from_hi, from_hi, from_hi, from_hi, below_lo,
      Predicate::Or({below_lo, from_hi}), Predicate::Or({below_lo, from_hi}),
      Predicate::And({from_lo, below_hi})};
  return Pick(rng, shapes);
}

void SumReduce(const Value& key, const std::vector<Value>& values,
               Emitter* out) {
  uint64_t sum = 0;  // wraps: the order values arrive in cannot matter
  for (const Value& v : values) sum += static_cast<uint64_t>(v.int64_value());
  out->Emit(key, Value::Int64(static_cast<int64_t>(sum)));
}

/// The key is any column, NaN and ±0.0 included; the value counts the row
/// plus a hash of the other projected columns it reads — only on sparse
/// rows (odd i) or in clustered runs (even i), so lazy columns both decode
/// ahead and skip gaps. A lazy column's read error ends the row: the
/// reader reports it, and the attempt fails into a retry.
MapFn Mapper(std::string key, std::vector<std::string> others) {
  return [key, others](Record& record, Emitter* out) {
    const Value* field = nullptr;
    if (!record.Get("seq", &field).ok()) return;
    const int64_t seq = field->int64_value();
    uint64_t value = 1;
    for (size_t i = 0; i < others.size(); ++i) {
      const bool touch = i % 2 == 1 ? seq % static_cast<int64_t>(4 + i) == 0
                                    : (seq / 40) % 2 == 0;
      if (!touch) continue;
      if (!record.Get(others[i], &field).ok()) return;
      value += HashTaggedValue(*field, i);
    }
    if (!record.Get(key, &field).ok()) return;
    out->Emit(*field, Value::Int64(static_cast<int64_t>(value)));
  };
}

/// Stores `rows` as the dataset "/in".
template <typename Writer, typename... Options>
void WriteRows(MiniHdfs* fs, const Schema::Ptr& schema,
               const std::vector<Value>& rows, const Options&... options) {
  std::unique_ptr<Writer> writer;
  ASSERT_TRUE(Writer::Open(fs, "/in", schema, options..., &writer).ok());
  for (const Value& row : rows) ASSERT_TRUE(writer->WriteRecord(row).ok());
  ASSERT_TRUE(writer->Close().ok());
}

// ---- One case: cluster, data, storage, predicate, mapper, faults and
// ---- the reference's results. Engine knobs are sampled per run.

struct Case {
  std::string what;  // printed on failure
  std::vector<Value> rows;
  Schema::Ptr schema;
  std::unique_ptr<MiniHdfs> fs;
  Job job;
  FaultConfig faults;
  bool corrupt_replica = false;
  bool cif = false;
  // Filled by Reference().
  std::vector<std::pair<Value, Value>> groups;  // reduced, keys ascending
  uint64_t mapped = 0;
  uint64_t emitted = 0;
  uint64_t max_pair_bytes = 0;
};

Case Sample(uint64_t seed, int index) {
  Random rng(SplitMix64(seed) ^ SplitMix64(static_cast<uint64_t>(index)));
  Case c;
  // Each fault kind independently, at least at the rates of the matrices
  // this oracle replaced: transient errors on 2% or 20% of replica reads,
  // on 1% of block seals and on 30% of task commits, and one corrupt
  // replica of an input file. Reads and writes fault on input, spill,
  // merge and output I/O alike.
  c.faults.seed = rng.Next();
  const double read_ps[] = {0, 0, 0.02, 0.2};
  c.faults.read_error_p = Note(&c.what, "read_error_p", Pick(rng, read_ps));
  c.faults.write_error_p =
      Note(&c.what, "write_error_p", rng.OneIn(4) ? 0.01 : 0);
  c.faults.task_commit_error_p =
      Note(&c.what, "task_commit_error_p", rng.OneIn(4) ? 0.3 : 0);
  c.corrupt_replica = Note(&c.what, "corrupt_replica", rng.OneIn(4));
  // Write faults come with small map tasks — 1 KB blocks, and a few KB
  // per split-directory, row group or compressed block — as in the
  // word-count matrix: an attempt then seals few enough blocks that its
  // retries converge, however often a 64-byte sort buffer spills.
  const bool small = c.faults.write_error_p > 0;
  ClusterConfig cluster;
  cluster.num_nodes = 5;
  cluster.map_slots_per_node = 2;
  cluster.block_size = small ? 1024 : 16 * 1024;
  cluster.io_buffer_size = cluster.block_size / 4;
  c.fs = std::make_unique<MiniHdfs>(
      cluster, std::make_unique<ColumnPlacementPolicy>(seed));
  MiniHdfs* fs = c.fs.get();

  // Row counts straddle the 10/100/1000-row skip blocks and zone maps.
  const uint64_t edges[] = {1,   9,    10,   11,   99,   100,  101,
                            999, 1000, 1001, 1999, 2000, 2001, 3000};
  const uint64_t n_rows = Note(
      &c.what, "rows", rng.OneIn(3) ? Pick(rng, edges) : 1 + rng.Uniform(3000));
  const Schema::Ptr kinds[] = {
      Schema::Bool(),   Schema::Int32(),  Schema::Int64(),
      Schema::Double(), Schema::String(), Schema::Bytes(),
      Schema::Array(Schema::Int64()), Schema::Map(Schema::Int32()),
      Schema::Record("P", {{"x", Schema::Double()}, {"y", Schema::String()}})};
  std::vector<Schema::Field> fields = {{"seq", Schema::Int64()}};
  for (uint64_t n = 2 + rng.Uniform(5); n > 0; --n) {
    fields.push_back({"c" + std::to_string(fields.size()), Pick(rng, kinds)});
  }
  c.schema = Schema::Record("Oracle", fields);
  c.what += " " + c.schema->ToString();
  for (uint64_t r = 0; r < n_rows; ++r) {
    std::vector<Value> values = {Value::Int64(static_cast<int64_t>(r))};
    for (size_t f = 1; f < fields.size(); ++f) {
      values.push_back(GenValue(*fields[f].type, rng));
    }
    c.rows.push_back(Value::Record(std::move(values)));
  }

  // Storage. Half the cases are CIF, the store with per-column layouts,
  // laziness and pruning: mostly one split-directory, whose rowgroups the
  // reader prunes, sometimes many small ones that planning prunes whole.
  const char* formats[] = {"txt", "seq", "rcfile", "cif"};
  const int format = rng.OneIn(2) ? 3 : static_cast<int>(rng.Uniform(3));
  c.what += std::string(" format=") + formats[format];
  if (format == 0) {
    WriteRows<TextWriter>(fs, c.schema, c.rows);
  } else if (format == 1) {
    SeqWriterOptions options;
    options.compression = static_cast<SeqCompression>(rng.Uniform(3));
    if (small) options.block_size = 4096;
    WriteRows<SeqWriter>(fs, c.schema, c.rows, options);
  } else if (format == 2) {
    RcFileWriterOptions options;
    options.row_group_size = uint64_t{1024} << rng.Uniform(small ? 3 : 5);
    options.codec = rng.OneIn(2) ? CodecType::kLzf : CodecType::kNone;
    WriteRows<RcFileWriter>(fs, c.schema, c.rows, options);
  } else {
    c.cif = true;
    CofOptions options;
    options.split_target_bytes = Note(
        &c.what, "split_target",
        small || rng.OneIn(4) ? uint64_t{4096} << rng.Uniform(small ? 1 : 3)
                              : uint64_t{1} << 30);
    const char* layouts[] = {"plain", "sl", "lzf", "zlite", "dcsl"};
    for (const auto& field : fields) {
      ColumnOptions& column = options.column_overrides[field.name];
      const uint64_t layout =
          rng.Uniform(field.type->kind() == TypeKind::kMap ? 5 : 4);
      column.layout = layout < 2    ? static_cast<ColumnLayout>(layout)
                      : layout == 4 ? ColumnLayout::kDictSkipList
                                    : ColumnLayout::kCompressedBlocks;
      column.codec = layout == 3 ? CodecType::kZlite : CodecType::kLzf;
      column.block_size = uint64_t{1024} << rng.Uniform(3);
      c.what += " " + field.name + "=" + layouts[layout];
    }
    WriteRows<CofWriter>(fs, c.schema, c.rows, options);
  }

  // Projection, predicate, mapper and combiner.
  JobConfig& config = c.job.config;
  config.input_paths = {"/in"};
  config.null_for_missing_columns = true;
  const std::string key = fields[rng.Uniform(fields.size())].name;
  std::vector<std::string> others;
  const bool project = !rng.OneIn(4);  // else every column
  if (project) config.projection = {"seq"};
  if (project && key != "seq") config.projection.push_back(key);
  for (const auto& field : fields) {
    if (field.name == "seq" || field.name == key) continue;
    if (project && rng.OneIn(2)) continue;
    others.push_back(field.name);
    if (project) config.projection.push_back(field.name);
  }
  if (!rng.OneIn(4)) {
    Predicate where = GenPredicate(*c.schema, c.rows, format == 3, 2, rng);
    if (!rng.OneIn(4)) {
      Predicate window = SeqWindow(n_rows, rng);
      where = rng.OneIn(3) ? Predicate::And({std::move(window), where})
                           : std::move(window);
    }
    config.predicate = std::make_shared<const Predicate>(std::move(where));
    c.what += " where=" + config.predicate->ToString();
  }
  c.job.mapper = Mapper(key, others);
  c.job.reducer = SumReduce;
  if (Note(&c.what, "combiner", rng.OneIn(2))) c.job.combiner = SumReduce;
  c.what += " key=" + key;
  // The cache persists on the filesystem: the second run starts warm.
  config.cache_bytes = Note(&c.what, "cache", rng.OneIn(2) ? 0 : 1 << 20);
  return c;
}

/// Samples one run's engine knobs into *config; returns them as text.
std::string SampleKnobs(Random& rng, bool lazy, JobConfig* config) {
  std::string knobs;
  const uint64_t batch_rows[] = {1, 7, 64, 1024};
  const uint64_t buffers[] = {0, 64, 4096};
  config->lazy_records = Note(&knobs, "lazy", lazy);
  config->output_path = rng.OneIn(4) ? "" : lazy ? "/out-lazy" : "/out-eager";
  knobs += " output=" + config->output_path;
  config->batch_rows = Note(&knobs, "batch_rows", Pick(rng, batch_rows));
  config->parallelism = Note(&knobs, "parallelism", rng.OneIn(2) ? 1 : 4);
  config->predicate_pushdown = Note(&knobs, "pushdown", !rng.OneIn(6));
  config->prefetch_depth =
      Note(&knobs, "prefetch", config->cache_bytes > 0 && rng.OneIn(2) ? 2 : 0);
  config->num_reduce_tasks =
      Note(&knobs, "reducers", 1 + static_cast<int>(rng.Uniform(5)));
  config->sort_buffer_bytes = Note(&knobs, "sort_buffer", Pick(rng, buffers));
  config->merge_factor = Note(&knobs, "merge_factor", rng.OneIn(2) ? 2 : 10);
  config->spill_codec = static_cast<CodecType>(
      Note(&knobs, "spill_codec", static_cast<int>(rng.Uniform(3))));
  config->speculative_execution = Note(&knobs, "speculation", rng.OneIn(2));
  // Enough attempts that every chain converges at these fault rates.
  config->max_task_attempts = 30;
  config->node_blacklist_failures = 1000;
  return knobs;
}

// ---- The reference: no storage, no engine ----

void Reference(Case* c) {
  // The evolved-away column reads as NULL, as CIF reads it under
  // null_for_missing_columns.
  const Schema::Ptr schema =
      Schema::WithField(c->schema, {"gone", Schema::Null()});
  VectorEmitter emitted;
  for (const Value& row : c->rows) {
    std::vector<Value> values = row.elements();
    values.push_back(Value::Null());
    EagerRecord record(schema, Value::Record(std::move(values)));
    Status status;
    if (c->job.config.predicate != nullptr &&
        EvalPredicateRow(*c->job.config.predicate, record, &status) !=
            Tri::kTrue) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      continue;
    }
    ++c->mapped;
    c->job.mapper(record, &emitted);
  }
  std::vector<std::pair<Value, Value>>& pairs = emitted.pairs();
  c->emitted = pairs.size();
  for (const auto& [key, value] : pairs) {
    c->max_pair_bytes =
        std::max<uint64_t>(c->max_pair_bytes,
                           TaggedEncodedSize(key) + TaggedEncodedSize(value));
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.Compare(b.first) < 0;
                   });
  VectorEmitter reduced;
  for (size_t i = 0, j = 0; i < pairs.size(); i = j) {
    std::vector<Value> values = {pairs[i].second};
    for (j = i + 1;
         j < pairs.size() && pairs[j].first.Compare(pairs[i].first) == 0;
         ++j) {
      values.push_back(pairs[j].second);
    }
    SumReduce(pairs[i].first, values, &reduced);
  }
  c->groups = std::move(reduced.pairs());
}

std::string Line(const Value& key, const Value& value) {
  return key.ToString() + "\t" + value.ToString() + "\n";
}

/// Runs that sampled each fault kind or pushed a predicate into CIF, and
/// those whose report shows the fault fired or whose columns jumped over
/// pruned rowgroups, over every case this process ran.
struct Tally {
  int sampled = 0;
  int fired = 0;
};
std::map<std::string, Tally> tallies;

void Count(const char* kind, bool sampled, bool fired) {
  if (!sampled) return;
  Tally& tally = tallies[kind];
  tally.sampled += 1;
  tally.fired += fired ? 1 : 0;
}

/// Runs one job and checks it against the case's reference.
void RunAndCheck(MiniHdfs* fs, MetricsRegistry* metrics, Job job,
                 const Case& want) {
  // Reducers emit partition by partition, keys ascending within each, and
  // each commits one part file.
  const auto reducers = static_cast<uint32_t>(job.config.num_reduce_tasks);
  std::vector<std::string> parts(reducers);
  for (const auto& [key, value] : want.groups) {
    parts[ShufflePartition(key, reducers)] += Line(key, value);
  }
  std::string output;
  std::map<std::string, std::string> files = {
      {OutputCommitter::kSuccessMarker, ""}};
  for (uint32_t p = 0; p < reducers; ++p) {
    char name[32];
    std::snprintf(name, sizeof(name), "part-r-%05u", p);
    files[name] = parts[p];
    output += parts[p];
  }

  fs->SetFaultConfig(want.faults);
  job.config.metrics = metrics;
  const auto pruned = [metrics] {
    return metrics->counter("cif.prune.splits")->value() +
           metrics->counter("cif.prune.rowgroups")->value() +
           metrics->counter("cif.prune.rows")->value();
  };
  const uint64_t pruned_before = pruned();
  Counter* jumps = metrics->counter("cif.scan.jumps");
  const uint64_t jumps_before = jumps->value();
  JobReport report;
  const Status status = JobRunner(fs).Run(job, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  fs->SetFaultConfig(FaultConfig{});  // the checks below read unfaulted

  std::string got;
  for (const auto& [key, value] : report.output) got += Line(key, value);
  EXPECT_EQ(got, output);
  if (!job.config.output_path.empty()) {
    // Every visible file, so a leaked _temporary fails too.
    std::map<std::string, std::string> committed;
    std::vector<std::string> children;
    ASSERT_TRUE(fs->ListDir(job.config.output_path, &children).ok());
    for (const std::string& child : children) {
      std::unique_ptr<FileReader> reader;
      const std::string path = job.config.output_path + "/" + child;
      ASSERT_TRUE(fs->Open(path, ReadContext{}, &reader).ok()) << path;
      ASSERT_TRUE(reader->Read(0, reader->size(), &committed[child]).ok());
    }
    EXPECT_EQ(committed, files);
  }
  EXPECT_EQ(report.map_input_records, want.mapped);
  EXPECT_EQ(report.reduce_output_records, want.groups.size());
  EXPECT_LE(report.map_output_records, want.emitted);
  if (job.combiner == nullptr) {
    EXPECT_EQ(report.map_output_records, want.emitted);
  }
  EXPECT_LE(report.shuffle_bytes, report.map_output_bytes);
  const uint64_t buffer = job.config.sort_buffer_bytes;
  if (buffer == 0) {
    EXPECT_EQ(report.spill_count, 0u);
    EXPECT_EQ(report.spill_bytes, 0u);
    EXPECT_EQ(report.merge_passes, 0u);
  } else {
    // Bounded memory: past the cap by at most the pair that tipped it.
    EXPECT_LE(report.peak_spill_buffer_bytes, buffer + want.max_pair_bytes);
    EXPECT_EQ(report.spill_count > 0, want.emitted > 0);
    EXPECT_EQ(report.spill_bytes > 0, want.emitted > 0);
  }
  if (job.config.predicate == nullptr || !job.config.predicate_pushdown) {
    EXPECT_EQ(pruned(), pruned_before) << "cif.prune.* without pushdown";
  }

  // A transient read fault fails over or fails the attempt; a checksum
  // failure fails over too, so only the excess is transient.
  Count("read", want.faults.read_error_p > 0,
        report.failover_reads > report.checksum_failures ||
            report.task_retries > 0);
  Count("write", want.faults.write_error_p > 0, report.write_faults > 0);
  Count("commit",
        want.faults.task_commit_error_p > 0 && !job.config.output_path.empty(),
        report.commit_aborts > 0);
  // A column jumps over pruned rowgroups when its target is inside the
  // window or in a cached block.
  Count("jump",
        want.cif && job.config.predicate != nullptr &&
            job.config.predicate_pushdown,
        jumps->value() > jumps_before);
}

class OracleTest : public ::testing::TestWithParam<int> {
 protected:
  /// Recovery is exercised, not merely allowed: over a sweep, each
  /// sampled fault kind fired in a floor share of the runs that sampled
  /// it. Over seeds 1–100, read faults fired in 56–73% of runs per seed,
  /// commit faults in 44–76% and write faults, which bite only runs that
  /// seal many blocks, in 20–48%. Likewise some pushdown run over CIF
  /// jumped: 3–16 of 92–141 per seed over seeds 1–40, 101 and 9002. One
  /// small run may draw no fault or prune nothing, so a replayed case is
  /// exempt.
  static void TearDownTestSuite() {
    const std::map<std::string, int> floor_divisor = {
        {"read", 2}, {"write", 8}, {"commit", 4}};
    for (const auto& [kind, tally] : tallies) {
      std::printf("[ oracle ] %s fired in %d of %d runs\n", kind.c_str(),
                  tally.fired, tally.sampled);
      if (tally.sampled < 20) continue;
      const auto divisor = floor_divisor.find(kind);
      if (divisor != floor_divisor.end()) {
        EXPECT_GE(divisor->second * tally.fired, tally.sampled)
            << kind << " faults";
      } else {
        EXPECT_GT(tally.fired, 0) << kind;
      }
    }
  }
};

TEST_P(OracleTest, JobMatchesReference) {
  const uint64_t seed = FaultSeed();
  // Outlives the case's filesystem: its block cache keeps the registry the
  // first job attached it with.
  MetricsRegistry metrics;
  Case c = Sample(seed, GetParam());
  MiniHdfs& fs = *c.fs;
  SCOPED_TRACE("COLMR_FAULT_SEED=" + std::to_string(seed) + " case " +
               std::to_string(GetParam()) + ":" + c.what);
  ASSERT_TRUE(DetectInputFormat(&fs, "/in", &c.job.input_format, nullptr).ok());
  if (c.corrupt_replica) {
    std::vector<std::string> files;
    ASSERT_TRUE(ExpandInputPaths(&fs, {"/in"}, &files).ok());
    ASSERT_TRUE(
        fs.CorruptReplica(files[c.faults.seed % files.size()], 0, 0).ok());
  }
  Reference(&c);
  Random rng(SplitMix64(~seed) ^ SplitMix64(static_cast<uint64_t>(GetParam())));
  for (const bool lazy : {false, true}) {
    Job job = c.job;
    const std::string knobs = SampleKnobs(rng, lazy, &job.config);
    SCOPED_TRACE(knobs);
    RunAndCheck(&fs, &metrics, std::move(job), c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, OracleTest, ::testing::Range(0, kCases));

}  // namespace
}  // namespace colmr
