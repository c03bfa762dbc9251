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
/// read whether or not pushdown is on — the engine needs their values to
/// evaluate the filter row-wise, so filtered output stays byte-identical
/// across the pushdown knob. Predicate columns the schema lacks go to
/// *missing (ValidatePredicate has already vetted the tolerance) and
/// evaluate as NULL.
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
/// prune counters. Columns without a readable footer never refute.
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

/// Marks the rowgroups of a `row_count`-row split whose zone maps refute
/// `predicate` (1 = refuted). `stats` is aligned with `projection`; a
/// column's stats only participate when present and when their geometry
/// matches the split (same rows per group, a group for every
/// kCifStatsRowGroup rows).
std::vector<uint8_t> PruneMap(const Predicate& predicate,
                              const Schema& schema,
                              const std::vector<int>& projection,
                              const std::vector<ColumnFileStats>& stats,
                              const std::vector<uint8_t>& present,
                              uint64_t row_count) {
  const uint64_t n_groups =
      (row_count + kCifStatsRowGroup - 1) / kCifStatsRowGroup;
  std::vector<uint8_t> pruned(n_groups, 0);
  std::vector<std::pair<std::string, const ColumnFileStats*>> usable;
  for (size_t p = 0; p < projection.size(); ++p) {
    if (present[p] != 0 && stats[p].rows_per_group == kCifStatsRowGroup &&
        stats[p].groups.size() == n_groups) {
      usable.emplace_back(schema.fields()[projection[p]].name, &stats[p]);
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

/// Delegating record that answers Get() for evolved-away columns with
/// Null, forwarding everything else to the split's real record.
class NullPaddingRecord final : public Record {
 public:
  NullPaddingRecord(Record* inner, std::vector<std::string> missing)
      : inner_(inner), missing_(std::move(missing)) {}

  const Schema& schema() const override { return inner_->schema(); }

  Status Get(std::string_view name, const Value** value) override {
    for (const std::string& m : missing_) {
      if (m == name) {
        *value = &null_;
        return Status::OK();
      }
    }
    return inner_->Get(name, value);
  }

 private:
  Record* inner_;
  std::vector<std::string> missing_;
  Value null_;
};

/// Record view over one row of the resident RowBatch (eager records).
/// Get() materializes only the fields the map function touches, serving
/// boxed values (array/map/record) by pointer straight out of the batch
/// lane. Unprojected fields answer Null with OK.
class BatchRecord final : public Record {
 public:
  BatchRecord(Schema::Ptr schema, const std::vector<int>& projection,
              RowBatch* batch)
      : schema_(std::move(schema)), batch_(batch) {
    field_to_column_.assign(schema_->fields().size(), -1);
    for (size_t p = 0; p < projection.size(); ++p) {
      field_to_column_[projection[p]] = static_cast<int>(p);
    }
    lanes_.resize(projection.size());
  }

  void SetRow(uint64_t row) { row_ = row; }

  const Schema& schema() const override { return *schema_; }

  Status Get(std::string_view name, const Value** value) override {
    const int index = schema_->FieldIndex(std::string(name));
    if (index < 0) {
      return Status::NotFound("no such field: " + std::string(name));
    }
    const int column = field_to_column_[index];
    if (column < 0) {
      *value = &null_;
      return Status::OK();
    }
    const ColumnBatch& batch = batch_->columns[column];
    if (batch.is_boxed()) {
      *value = batch.BoxedAt(row_);
      return Status::OK();
    }
    Lane& lane = lanes_[column];
    if (lane.row != row_) {
      batch.MaterializeInto(row_, &lane.scratch);
      lane.row = row_;
    }
    *value = &lane.scratch;
    return Status::OK();
  }

  /// Invalidates the per-row scratch cache; called when the batch refills.
  void InvalidateCache() {
    for (Lane& lane : lanes_) lane.row = UINT64_MAX;
  }

 private:
  struct Lane {
    Value scratch;
    uint64_t row = UINT64_MAX;
  };

  Schema::Ptr schema_;
  RowBatch* batch_;
  std::vector<int> field_to_column_;  // field index -> projection position
  std::vector<Lane> lanes_;
  uint64_t row_ = 0;
  Value null_;
};

class CifRecordReader final : public RecordReader {
 public:
  CifRecordReader(Schema::Ptr schema, std::vector<int> projection,
                  std::vector<std::unique_ptr<ColumnFileReader>> columns,
                  bool lazy, std::vector<std::string> missing_columns,
                  MetricsRegistry* metrics, TraceCollector* trace,
                  std::shared_ptr<const Predicate> predicate, bool pushdown,
                  std::vector<uint8_t> pruned)
      : schema_(schema),
        projection_(std::move(projection)),
        columns_(std::move(columns)),
        lazy_(lazy),
        trace_(trace),
        predicate_(std::move(predicate)),
        pushdown_(pushdown && predicate_ != nullptr),
        pruned_(std::move(pruned)) {
    m_records_ = metrics->counter(lazy ? "cif.records.lazy"
                                       : "cif.records.eager");
    row_count_ = columns_.empty() ? 0 : columns_.front()->row_count();
    for (const auto& column : columns_) {
      if (column->row_count() != row_count_) {
        status_ = Status::Corruption(
            "cif: column files disagree on row count");
      }
    }
    if (pushdown_) {
      m_prune_rowgroups_ = metrics->counter("cif.prune.rowgroups");
      m_prune_rows_ = metrics->counter("cif.prune.rows");
      for (size_t p = 0; p < projection_.size(); ++p) {
        lane_of_field_.emplace_back(schema_->fields()[projection_[p]].name,
                                    static_cast<int>(p));
      }
    }
    std::vector<ColumnFileReader*> by_field(schema_->fields().size(), nullptr);
    for (size_t p = 0; p < projection_.size(); ++p) {
      by_field[projection_[p]] = columns_[p].get();
    }
    lazy_record_ = std::make_unique<LazyRecord>(
        schema_, std::move(by_field),
        metrics->counter("cif.lazy.field_reads"));
    row_batch_.columns.resize(projection_.size());
    column_status_.resize(projection_.size());
    batch_record_ =
        std::make_unique<BatchRecord>(schema_, projection_, &row_batch_);
    if (!missing_columns.empty()) {
      batch_padded_ = std::make_unique<NullPaddingRecord>(batch_record_.get(),
                                                          missing_columns);
      lazy_padded_ = std::make_unique<NullPaddingRecord>(
          lazy_record_.get(), std::move(missing_columns));
    }
  }

  uint64_t FillBatch(uint64_t max_rows) override {
    selection_valid_ = false;
    if (!status().ok() || max_rows == 0) return 0;
    if (!pending_batch_error_.ok()) {
      // A column failed mid-way through the previous batch: its good
      // prefix has been served, so the error surfaces now.
      status_ = pending_batch_error_;
      return 0;
    }
    uint64_t next_row = static_cast<uint64_t>(row_ + 1);
    if (pushdown_) {
      const uint64_t target = NextUnprunedRow(next_row);
      if (target != next_row) {
        status_ = SkipPruned(next_row, target);
        if (!status_.ok()) return 0;
        next_row = target;
        row_ = static_cast<int64_t>(next_row) - 1;
      }
    }
    if (next_row >= row_count_) return 0;
    // Clamp the batch to the contiguous unpruned run so it never spans
    // into a pruned rowgroup.
    const uint64_t run_end = pushdown_ ? UnprunedRunEnd(next_row) : row_count_;
    const uint64_t k = std::min(max_rows, run_end - next_row);
    batch_start_row_ = next_row;
    if (lazy_) {
      // Laziness survives batching: nothing is decoded here. Columns the
      // map function touches decode ahead inside the window on Get.
      lazy_record_->SetBatchWindow(next_row, k);
      row_ += k;
      m_records_->Increment(k);
      return k;
    }
    // Eager: bulk-decode every projected column. On error a column stops
    // early; serve the common prefix and surface the error a row-by-row
    // scan would have hit first (lowest row, then column order).
    uint64_t served = k;
    for (size_t p = 0; p < projection_.size(); ++p) {
      column_status_[p] = columns_[p]->NextBatch(k, &row_batch_.columns[p]);
      const uint64_t got = row_batch_.columns[p].size();
      if (got < served) served = got;
    }
    Status pending;
    for (size_t p = 0; p < projection_.size() && pending.ok(); ++p) {
      if (!column_status_[p].ok() && row_batch_.columns[p].size() == served) {
        pending = column_status_[p];
      }
    }
    row_batch_.rows = served;
    batch_record_->InvalidateCache();
    if (!pending.ok() && served == 0) {
      status_ = pending;
      return 0;
    }
    pending_batch_error_ = pending;
    row_ += served;
    m_records_->Increment(served);
    if (pushdown_ && served > 0) {
      // Vectorized filter: select the surviving rows now so the engine
      // maps only them. The lazy path skips this (no lanes are resident)
      // and lets the engine filter row-wise instead.
      const auto lane = [this](const std::string& name) -> const ColumnBatch* {
        for (const auto& [field, p] : lane_of_field_) {
          if (field == name) return &row_batch_.columns[p];
        }
        return nullptr;
      };
      evaluator_.Eval(*predicate_, lane, served, &selection_);
      selection_valid_ = true;
    }
    return served;
  }

  Record& RecordAt(uint64_t i) override {
    if (lazy_) {
      lazy_record_->AdvanceTo(batch_start_row_ + i);
      return lazy_padded_ ? static_cast<Record&>(*lazy_padded_)
                          : *lazy_record_;
    }
    batch_record_->SetRow(i);
    return batch_padded_ ? static_cast<Record&>(*batch_padded_)
                         : *batch_record_;
  }

  /// Row-at-a-time callers (colmr cat, loaders) get one-row batches.
  bool Next() override { return FillBatch(1) > 0; }
  Record& record() override { return RecordAt(0); }

  /// A lazy column's read error fails the task like a reader error: the
  /// map function may have skipped the row, but the job must not succeed
  /// without it.
  Status status() const override {
    return status_.ok() ? lazy_record_->status() : status_;
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

  /// Advances the scan from row `from` to `to` past pruned rowgroups.
  /// Eager readers skip every column file through SkipRows, jumping over
  /// the run where the rowgroup offsets allow; the lazy record skips per
  /// column on first touch, so only the row index moves here. A run that
  /// reaches the end moves no column: the scan simply ends.
  Status SkipPruned(uint64_t from, uint64_t to) {
    if (to <= from) return Status::OK();
    if (!lazy_ && to < row_count_) {
      for (const auto& column : columns_) {
        COLMR_RETURN_IF_ERROR(column->SkipRows(to - from));
      }
    }
    m_prune_rowgroups_->Increment(
        (to - from + kCifStatsRowGroup - 1) / kCifStatsRowGroup);
    m_prune_rows_->Increment(to - from);
    TraceInstant(trace_, "cif_prune_rowgroups", "cif",
                 {{"from_row", TraceCollector::JsonValue(from)},
                  {"rows", TraceCollector::JsonValue(to - from)}});
    return Status::OK();
  }

  Schema::Ptr schema_;
  std::vector<int> projection_;
  std::vector<std::unique_ptr<ColumnFileReader>> columns_;
  bool lazy_;
  uint64_t row_count_ = 0;
  int64_t row_ = -1;
  TraceCollector* trace_ = nullptr;
  Counter* m_records_ = nullptr;
  std::unique_ptr<LazyRecord> lazy_record_;
  std::unique_ptr<NullPaddingRecord> lazy_padded_;
  Status status_;

  // Eager batch state (DESIGN.md §10).
  RowBatch row_batch_;
  std::unique_ptr<BatchRecord> batch_record_;
  std::unique_ptr<NullPaddingRecord> batch_padded_;
  std::vector<Status> column_status_;
  uint64_t batch_start_row_ = 0;
  Status pending_batch_error_;

  // Pushdown state (DESIGN.md §13).
  std::shared_ptr<const Predicate> predicate_;
  bool pushdown_ = false;
  std::vector<uint8_t> pruned_;  // per-rowgroup: 1 = refuted by zone maps
  std::vector<std::pair<std::string, int>> lane_of_field_;
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
  std::vector<std::unique_ptr<ColumnFileReader>> columns;
  for (int c : projection) {
    std::unique_ptr<ColumnFileReader> column;
    COLMR_RETURN_IF_ERROR(ColumnFileReader::Open(
        fs, dir + "/" + schema->fields()[c].name + ".col", context, &column));
    columns.push_back(std::move(column));
  }
  MetricsRegistry* metrics = context.metrics != nullptr
                                 ? context.metrics
                                 : &MetricsRegistry::Default();
  // Under pushdown the predicate columns' zone maps refute rowgroups
  // before decoding. Where a refuted run ends before the split does, the
  // other columns' footers are read too: every column's rowgroup offsets
  // let it jump over the run.
  std::vector<uint8_t> pruned;
  if (config.predicate != nullptr && config.predicate_pushdown) {
    const std::vector<std::string> predicate_columns =
        PredicateColumns(*config.predicate);
    std::vector<ColumnFileStats> stats(projection.size());
    std::vector<uint8_t> present(projection.size(), 0);
    const auto name_of = [&](size_t p) -> const std::string& {
      return schema->fields()[projection[p]].name;
    };
    const auto in_predicate = [&](size_t p) {
      return std::find(predicate_columns.begin(), predicate_columns.end(),
                       name_of(p)) != predicate_columns.end();
    };
    const auto read_footer = [&](size_t p) -> Status {
      const std::string path = dir + "/" + name_of(p) + ".col";
      bool found = false;
      COLMR_RETURN_IF_ERROR(
          ReadColumnStats(fs, path, context, &stats[p], &found));
      present[p] = found ? 1 : 0;
      return Status::OK();
    };
    for (size_t p = 0; p < projection.size(); ++p) {
      if (in_predicate(p)) COLMR_RETURN_IF_ERROR(read_footer(p));
    }
    pruned = PruneMap(*config.predicate, *schema, projection, stats, present,
                      columns.empty() ? 0 : columns.front()->row_count());
    if (PrunedRunEndsEarly(pruned)) {
      for (size_t p = 0; p < projection.size(); ++p) {
        if (!in_predicate(p)) COLMR_RETURN_IF_ERROR(read_footer(p));
        if (present[p] != 0) columns[p]->UseRowgroupOffsets(stats[p]);
      }
    }
  }
  reader->reset(new CifRecordReader(
      std::move(schema), std::move(projection), std::move(columns),
      config.lazy_records, std::move(missing), metrics, context.trace,
      config.predicate, config.predicate_pushdown, std::move(pruned)));
  return Status::OK();
}

}  // namespace colmr
