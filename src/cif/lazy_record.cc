#include "cif/lazy_record.h"

#include <algorithm>

namespace colmr {

LazyRecord::LazyRecord(Schema::Ptr schema, std::vector<Column> columns,
                       const std::vector<std::string>& missing,
                       Counter* field_reads)
    : schema_(std::move(schema)), field_reads_(field_reads) {
  columns_.resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    columns_[i].reader = std::move(columns[i].reader);
    columns_[i].window = columns[i].window;
    names_.emplace_back(std::move(columns[i].name), static_cast<int>(i));
  }
  for (const Schema::Field& field : schema_->fields()) {
    if (Slot(field.name) == kUnknown) names_.emplace_back(field.name, kNull);
  }
  for (const std::string& name : missing) names_.emplace_back(name, kNull);
}

int LazyRecord::Slot(std::string_view name) const {
  for (const auto& [field, slot] : names_) {
    if (field == name) return slot;
  }
  return kUnknown;
}

Status LazyRecord::Get(std::string_view name, const Value** value) {
  const int slot = Slot(name);
  if (slot == kUnknown) {
    return Status::NotFound("no such field: " + std::string(name));
  }
  if (slot == kNull) {
    *value = &null_;
    return Status::OK();
  }
  ColumnState& column = columns_[slot];
  if (column.cached_row != cur_pos_) {
    COLMR_RETURN_IF_ERROR(Load(&column));
    column.cached_row = cur_pos_;
    field_reads_.Add();
  }
  *value = column.cached_ptr;
  return Status::OK();
}

uint64_t LazyRecord::SetBatchWindow(uint64_t start, uint64_t rows) {
  field_reads_.Publish();
  win_start_ = start;
  uint64_t served = rows;
  uint64_t error_row = UINT64_MAX;
  Status error;
  for (ColumnState& column : columns_) {
    if (!column.window) continue;
    const Status s = Decode(&column, start, rows);
    served = std::min<uint64_t>(served, column.batch.size());
    if (!s.ok() && column.batch.size() < error_row) {
      error_row = column.batch.size();
      error = s;
    }
  }
  if (status_.ok()) status_ = error;
  win_rows_ = served;
  return served;
}

const ColumnBatch* LazyRecord::WindowLane(const std::string& name) const {
  const int slot = Slot(name);
  return slot >= 0 && columns_[slot].window ? &columns_[slot].batch
                                            : nullptr;
}

Status LazyRecord::Decode(ColumnState* column, uint64_t row, uint64_t rows) {
  ColumnFileReader* reader = column->reader.get();
  column->batch_start = row;
  // lastPos (reader->current_row()) lags the row by however many records
  // the column never decoded (untouched or pruned); skip them in one jump.
  // No SkipRows(0): one-row windows would pay it per column per row.
  Status s;
  if (reader->current_row() > row) {
    s = Status::InvalidArgument("lazy record: column read past row " +
                                std::to_string(row));
  } else if (reader->current_row() < row) {
    s = reader->SkipRows(row - reader->current_row());
  }
  if (s.ok()) {
    s = reader->NextBatch(rows, &column->batch);
  } else {
    column->batch.Reset(column->batch.kind());
  }
  if (!s.ok()) column->error = s;
  return s;
}

Status LazyRecord::Load(ColumnState* column) {
  const auto resident = [&] {
    return cur_pos_ >= column->batch_start &&
           cur_pos_ < column->batch_start + column->batch.size();
  };
  if (!resident()) {
    // A failed read leaves the column reader mid-value: never read it again.
    if (!column->error.ok()) return column->error;
    const uint64_t win_end = win_start_ + win_rows_;
    if (cur_pos_ >= win_end) {
      return Status::InvalidArgument("lazy record: cur_pos outside the window");
    }
    // Decode ahead: a touch on the row right after the previous one
    // doubles the last length, a gap restarts at one row.
    const bool follows = column->cached_row != UINT64_MAX &&
                         column->cached_row + 1 == cur_pos_;
    const uint64_t ahead = follows ? 2 * column->batch.size() : 1;
    const Status s = Decode(
        column, cur_pos_, std::clamp<uint64_t>(ahead, 1, win_end - cur_pos_));
    if (!s.ok()) {
      if (status_.ok()) status_ = s;
      if (!resident()) return s;
    }
  }
  const size_t offset = static_cast<size_t>(cur_pos_ - column->batch_start);
  if (column->batch.is_boxed()) {
    column->cached_ptr = column->batch.BoxedAt(offset);
  } else {
    column->batch.MaterializeInto(offset, &column->cached);
    column->cached_ptr = &column->cached;
  }
  return Status::OK();
}

}  // namespace colmr
