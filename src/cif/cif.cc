#include "cif/cif.h"

#include <algorithm>

#include "cif/column_format.h"
#include "cif/column_reader.h"
#include "cif/column_stats.h"
#include "cif/lazy_record.h"
#include "formats/text/text_format.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/predicate.h"

namespace colmr {

namespace {

/// Resolves the projected field list: configured names, or all fields.
/// When tolerate_missing is set, projected names the schema lacks go to
/// *missing (schema evolution: split-directories written before an
/// AddColumn) instead of failing.
Status ResolveProjection(const Schema& schema,
                         const std::vector<std::string>& names,
                         bool tolerate_missing, std::vector<int>* indices,
                         std::vector<std::string>* missing) {
  indices->clear();
  if (missing != nullptr) missing->clear();
  if (names.empty()) {
    for (size_t i = 0; i < schema.fields().size(); ++i) {
      indices->push_back(static_cast<int>(i));
    }
    return Status::OK();
  }
  for (const std::string& name : names) {
    const int index = schema.FieldIndex(name);
    if (index < 0) {
      if (tolerate_missing) {
        if (missing != nullptr) missing->push_back(name);
        continue;
      }
      return Status::InvalidArgument("cif: unknown projected column " + name);
    }
    indices->push_back(index);
  }
  std::sort(indices->begin(), indices->end());
  return Status::OK();
}

/// The columns a reader must open: the projection plus, when the job has a
/// predicate, every column the predicate references. Predicate columns are
/// read whether or not pushdown is on — the reader's selection vector, or
/// without pushdown the engine's row-wise filter, needs their values, so
/// filtered output stays byte-identical across the pushdown knob.
/// Predicate columns the schema lacks go to *missing (ValidatePredicate
/// has already vetted the tolerance) and evaluate as NULL.
Status ResolveReadSet(const Schema& schema, const JobConfig& config,
                      std::vector<int>* indices,
                      std::vector<std::string>* missing) {
  COLMR_RETURN_IF_ERROR(ResolveProjection(schema, config.projection,
                                          config.null_for_missing_columns,
                                          indices, missing));
  if (config.predicate != nullptr) {
    AddPredicateColumns(*config.predicate, schema, indices, missing);
  }
  return Status::OK();
}

/// File-level refutation for split pruning: merges the zone-map footers of
/// the predicate's columns in `dir` and asks whether any row can match.
/// Also reports the split's row/rowgroup counts (from the footers) for the
/// prune counters. Columns without a footer never refute, and neither do
/// columns whose footer read fails: a plan attempt reads every split's
/// footers, so failing it on one read would rarely let a plan under read
/// faults complete. The split is kept, and its map task, which reads the
/// same footers under pushdown, surfaces the error and retries.
bool SplitRefuted(MiniHdfs* fs, const std::string& dir, const Schema& schema,
                  const Predicate& predicate, const ReadContext& context,
                  uint64_t* rows, uint64_t* groups) {
  std::vector<std::pair<std::string, ColumnFileStats>> stats;
  for (const std::string& name : PredicateColumns(predicate)) {
    if (schema.FieldIndex(name) < 0) continue;
    ColumnFileStats file_stats;
    bool present = false;
    if (!ReadColumnStats(fs, dir + "/" + name + ".col", context, &file_stats,
                         &present)
             .ok() ||
        !present) {
      continue;
    }
    *rows = file_stats.file.values;  // one value appended per row
    *groups = file_stats.groups.size();
    stats.emplace_back(name, std::move(file_stats));
  }
  const auto lookup = [&](const std::string& name) -> const ColumnStats* {
    for (const auto& [n, s] : stats) {
      if (n == name) return &s.file;
    }
    return nullptr;
  };
  return !PredicateCanMatch(predicate, lookup);
}

/// Marks the rowgroups of the split read by `columns` whose zone maps
/// refute `predicate` (1 = refuted). `stats` is aligned with `columns`; a
/// column's stats only participate when present and when their geometry
/// matches the split (same rows per group, a group for every
/// kCifStatsRowGroup rows).
std::vector<uint8_t> PruneMap(const Predicate& predicate,
                              const std::vector<LazyRecord::Column>& columns,
                              const std::vector<ColumnFileStats>& stats,
                              const std::vector<uint8_t>& present) {
  const uint64_t row_count =
      columns.empty() ? 0 : columns.front().reader->row_count();
  const uint64_t n_groups =
      (row_count + kCifStatsRowGroup - 1) / kCifStatsRowGroup;
  std::vector<uint8_t> pruned(n_groups, 0);
  std::vector<std::pair<std::string, const ColumnFileStats*>> usable;
  for (size_t p = 0; p < columns.size(); ++p) {
    if (present[p] != 0 && stats[p].rows_per_group == kCifStatsRowGroup &&
        stats[p].groups.size() == n_groups) {
      usable.emplace_back(columns[p].name, &stats[p]);
    }
  }
  if (usable.empty()) return pruned;
  for (uint64_t g = 0; g < n_groups; ++g) {
    const auto lookup = [&](const std::string& name) -> const ColumnStats* {
      for (const auto& [n, s] : usable) {
        if (n == name) return &s->groups[g];
      }
      return nullptr;
    };
    if (!PredicateCanMatch(predicate, lookup)) pruned[g] = 1;
  }
  return pruned;
}

/// True when a refuted rowgroup precedes an unrefuted one. Only then does
/// the scan skip into a rowgroup it reads, so only then can a column jump:
/// a refuted run reaching the end of the split moves no column.
bool PrunedRunEndsEarly(const std::vector<uint8_t>& pruned) {
  for (size_t g = 1; g < pruned.size(); ++g) {
    if (pruned[g - 1] != 0 && pruned[g] == 0) return true;
  }
  return false;
}

/// The CIF reader: one LazyRecord serves every row, and FillBatch decodes
/// the window columns of each batch window (DESIGN.md §10). Under pushdown
/// it also filters the window with a selection vector over them
/// (DESIGN.md §13) and counts the refuted rowgroups it passes; each column
/// crosses those on its next decode. `pushdown` is the job predicate when
/// it is pushed down, else null; `pruned` marks the refuted rowgroups.
class CifRecordReader final : public RecordReader {
 public:
  CifRecordReader(Schema::Ptr schema, std::vector<LazyRecord::Column> columns,
                  const std::vector<std::string>& missing, Counter* records,
                  MetricsRegistry* metrics, TraceCollector* trace,
                  std::shared_ptr<const Predicate> pushdown,
                  std::vector<uint8_t> pruned)
      : trace_(trace),
        m_records_(records),
        pushdown_(std::move(pushdown)),
        pruned_(std::move(pruned)) {
    row_count_ = columns.empty() ? 0 : columns.front().reader->row_count();
    for (const LazyRecord::Column& column : columns) {
      if (column.reader->row_count() != row_count_) {
        status_ = Status::Corruption(
            "cif: column files disagree on row count");
      }
    }
    if (pushdown_) {
      m_prune_rowgroups_ = metrics->counter("cif.prune.rowgroups");
      m_prune_rows_ = metrics->counter("cif.prune.rows");
    }
    record_ = std::make_unique<LazyRecord>(
        std::move(schema), std::move(columns), missing,
        metrics->counter("cif.lazy.field_reads"));
  }

  uint64_t FillBatch(uint64_t max_rows) override {
    selection_valid_ = false;
    if (!status().ok() || max_rows == 0) return 0;
    if (pushdown_) {
      const uint64_t target = NextUnprunedRow(next_row_);
      CountPruned(next_row_, target);
      next_row_ = target;
    }
    if (next_row_ >= row_count_) return 0;
    // Clamp the batch to the contiguous unpruned run so it never spans
    // into a pruned rowgroup.
    const uint64_t run_end =
        pushdown_ ? UnprunedRunEnd(next_row_) : row_count_;
    batch_start_row_ = next_row_;
    const uint64_t served = record_->SetBatchWindow(
        next_row_, std::min(max_rows, run_end - next_row_));
    if (served == 0) return 0;
    next_row_ += served;
    m_records_->Increment(served);
    if (pushdown_) {
      // Vectorized filter over the window columns, which hold every
      // predicate column: the engine maps only the selected rows.
      const auto lane = [this](const std::string& name) {
        return record_->WindowLane(name);
      };
      evaluator_.Eval(*pushdown_, lane, served, &selection_);
      selection_valid_ = true;
    }
    return served;
  }

  Record& RecordAt(uint64_t i) override {
    record_->AdvanceTo(batch_start_row_ + i);
    return *record_;
  }

  /// Row-at-a-time callers (colmr cat, loaders) get one-row batches.
  bool Next() override { return FillBatch(1) > 0; }
  Record& record() override { return RecordAt(0); }

  /// A column's read error fails the task like a reader error: the map
  /// function may have skipped the row, but the job must not succeed
  /// without it.
  Status status() const override {
    return status_.ok() ? record_->status() : status_;
  }

  const std::vector<uint32_t>* selection() const override {
    return selection_valid_ ? &selection_ : nullptr;
  }

 private:
  /// First unpruned row at or after `row` (row_count_ when none remain).
  uint64_t NextUnprunedRow(uint64_t row) const {
    uint64_t g = row / kCifStatsRowGroup;
    while (g < pruned_.size() && pruned_[g] != 0) {
      ++g;
      row = g * kCifStatsRowGroup;
    }
    return std::min(row, row_count_);
  }

  /// End (exclusive) of the contiguous unpruned run containing `row`.
  uint64_t UnprunedRunEnd(uint64_t row) const {
    uint64_t g = row / kCifStatsRowGroup;
    while (g < pruned_.size() && pruned_[g] == 0) ++g;
    return std::min(g * kCifStatsRowGroup, row_count_);
  }

  /// Counts the pruned rows [from, to). No column moves here: each one
  /// crosses them on its next decode, through SkipRows, which jumps over
  /// the run where the rowgroup offsets allow. A run that reaches the end
  /// moves no column: the scan simply ends.
  void CountPruned(uint64_t from, uint64_t to) {
    if (to <= from) return;
    m_prune_rowgroups_->Increment(
        (to - from + kCifStatsRowGroup - 1) / kCifStatsRowGroup);
    m_prune_rows_->Increment(to - from);
    TraceInstant(trace_, "cif_prune_rowgroups", "cif",
                 {{"from_row", TraceCollector::JsonValue(from)},
                  {"rows", TraceCollector::JsonValue(to - from)}});
  }

  uint64_t row_count_ = 0;
  uint64_t next_row_ = 0;
  uint64_t batch_start_row_ = 0;
  TraceCollector* trace_ = nullptr;
  Counter* m_records_ = nullptr;
  std::unique_ptr<LazyRecord> record_;
  Status status_;

  // Pushdown state (DESIGN.md §13).
  std::shared_ptr<const Predicate> pushdown_;  // the predicate, or null
  std::vector<uint8_t> pruned_;  // per-rowgroup: 1 = refuted by zone maps
  BatchPredicateEvaluator evaluator_;
  std::vector<uint32_t> selection_;
  bool selection_valid_ = false;
  Counter* m_prune_rowgroups_ = nullptr;
  Counter* m_prune_rows_ = nullptr;
};

}  // namespace

Status ColumnInputFormat::GetSplits(MiniHdfs* fs, const JobConfig& config,
                                    const ReadContext& context,
                                    std::vector<InputSplit>* splits) {
  splits->clear();
  const bool prune =
      config.predicate != nullptr && config.predicate_pushdown;
  // Splits refuted at plan time, with their rowgroup/row counts for the
  // prune counters. Counter increments are deferred: if every split is
  // refuted, one is re-added (the engine needs at least one split; its
  // reader then prunes all rowgroups and serves zero rows) and must not
  // be counted as pruned.
  struct Refuted {
    InputSplit split;
    uint64_t rowgroups = 0;
    uint64_t rows = 0;
  };
  std::vector<Refuted> refuted;
  for (const std::string& base : config.input_paths) {
    std::vector<std::string> children;
    COLMR_RETURN_IF_ERROR(fs->ListDir(base, &children));
    for (const std::string& child : children) {
      if (child.empty() || child[0] != 's') continue;
      const std::string dir = base + "/" + child;
      Schema::Ptr schema;
      COLMR_RETURN_IF_ERROR(ReadDatasetSchema(fs, dir, &schema, context));
      if (config.predicate != nullptr) {
        COLMR_RETURN_IF_ERROR(ValidatePredicate(
            *config.predicate, *schema, config.null_for_missing_columns));
      }
      std::vector<int> read_set;
      COLMR_RETURN_IF_ERROR(ResolveReadSet(*schema, config, &read_set,
                                           nullptr));

      InputSplit split;
      for (int c : read_set) {
        split.paths.push_back(dir + "/" + schema->fields()[c].name + ".col");
      }
      for (const std::string& path : split.paths) {
        uint64_t size = 0;
        COLMR_RETURN_IF_ERROR(fs->GetFileSize(path, &size));
        split.length += size;
      }
      split.locations = fs->CommonReplicaNodes(split.paths);
      if (prune) {
        uint64_t rows = 0;
        uint64_t groups = 0;
        if (SplitRefuted(fs, dir, *schema, *config.predicate, context, &rows,
                         &groups)) {
          refuted.push_back({std::move(split), groups, rows});
          continue;
        }
      }
      splits->push_back(std::move(split));
    }
  }
  if (splits->empty() && !refuted.empty()) {
    splits->push_back(std::move(refuted.front().split));
    refuted.erase(refuted.begin());
  }
  if (!refuted.empty()) {
    MetricsRegistry* metrics = context.metrics != nullptr
                                   ? context.metrics
                                   : &MetricsRegistry::Default();
    uint64_t groups = 0;
    uint64_t rows = 0;
    for (const Refuted& r : refuted) {
      groups += r.rowgroups;
      rows += r.rows;
    }
    metrics->counter("cif.prune.splits")->Increment(refuted.size());
    metrics->counter("cif.prune.rowgroups")->Increment(groups);
    metrics->counter("cif.prune.rows")->Increment(rows);
    TraceInstant(context.trace, "cif_prune_splits", "cif",
                 {{"splits", TraceCollector::JsonValue(
                                 static_cast<uint64_t>(refuted.size()))},
                  {"rowgroups", TraceCollector::JsonValue(groups)},
                  {"rows", TraceCollector::JsonValue(rows)}});
  }
  if (splits->empty()) {
    return Status::NotFound("cif: no split-directories found");
  }
  return Status::OK();
}

Status ColumnInputFormat::CreateRecordReader(
    MiniHdfs* fs, const JobConfig& config, const InputSplit& split,
    const ReadContext& context, std::unique_ptr<RecordReader>* reader) {
  if (split.paths.empty()) {
    return Status::InvalidArgument("cif: empty split");
  }
  const std::string& first = split.paths.front();
  const std::string dir = first.substr(0, first.rfind('/'));
  Schema::Ptr schema;
  COLMR_RETURN_IF_ERROR(ReadDatasetSchema(fs, dir, &schema, context));
  if (config.predicate != nullptr) {
    COLMR_RETURN_IF_ERROR(ValidatePredicate(*config.predicate, *schema,
                                            config.null_for_missing_columns));
  }
  std::vector<int> projection;
  std::vector<std::string> missing;
  COLMR_RETURN_IF_ERROR(ResolveReadSet(*schema, config, &projection,
                                       &missing));

  if (projection.empty() && !missing.empty()) {
    // Row counts come from the projected column files, so a split must
    // retain at least one projected column even under evolution tolerance.
    return Status::InvalidArgument(
        "cif: every projected column is missing from " + dir);
  }
  const bool pushdown =
      config.predicate != nullptr && config.predicate_pushdown;
  const std::vector<std::string> predicate_columns =
      pushdown ? PredicateColumns(*config.predicate)
               : std::vector<std::string>();
  const auto in_predicate = [&](const std::string& name) {
    return std::find(predicate_columns.begin(), predicate_columns.end(),
                     name) != predicate_columns.end();
  };
  std::vector<LazyRecord::Column> columns(projection.size());
  for (size_t p = 0; p < projection.size(); ++p) {
    LazyRecord::Column& column = columns[p];
    column.name = schema->fields()[projection[p]].name;
    COLMR_RETURN_IF_ERROR(ColumnFileReader::Open(
        fs, dir + "/" + column.name + ".col", context, &column.reader));
    // Eager records decode every projected column a window at a time;
    // lazy ones only the predicate's, so that pushdown filters the window
    // before the map function touches anything else.
    column.window = !config.lazy_records || in_predicate(column.name);
  }
  MetricsRegistry* metrics = context.metrics != nullptr
                                 ? context.metrics
                                 : &MetricsRegistry::Default();
  // Under pushdown the predicate columns' zone maps refute rowgroups
  // before decoding. Where a refuted run ends before the split does, the
  // other columns' footers are read too: every column's rowgroup offsets
  // let it jump over the run.
  std::vector<uint8_t> pruned;
  if (pushdown) {
    std::vector<ColumnFileStats> stats(columns.size());
    std::vector<uint8_t> present(columns.size(), 0);
    const auto read_footer = [&](size_t p) -> Status {
      const std::string path = dir + "/" + columns[p].name + ".col";
      bool found = false;
      COLMR_RETURN_IF_ERROR(
          ReadColumnStats(fs, path, context, &stats[p], &found));
      present[p] = found ? 1 : 0;
      return Status::OK();
    };
    for (size_t p = 0; p < columns.size(); ++p) {
      if (in_predicate(columns[p].name)) {
        COLMR_RETURN_IF_ERROR(read_footer(p));
      }
    }
    pruned = PruneMap(*config.predicate, columns, stats, present);
    if (PrunedRunEndsEarly(pruned)) {
      for (size_t p = 0; p < columns.size(); ++p) {
        if (!in_predicate(columns[p].name)) {
          COLMR_RETURN_IF_ERROR(read_footer(p));
        }
        if (present[p] != 0) columns[p].reader->UseRowgroupOffsets(stats[p]);
      }
    }
  }
  Counter* records = metrics->counter(
      config.lazy_records ? "cif.records.lazy" : "cif.records.eager");
  reader->reset(new CifRecordReader(
      std::move(schema), std::move(columns), missing, records, metrics,
      context.trace, pushdown ? config.predicate : nullptr,
      std::move(pruned)));
  return Status::OK();
}

}  // namespace colmr
