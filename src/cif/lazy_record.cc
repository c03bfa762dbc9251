#include "cif/lazy_record.h"

#include <algorithm>

namespace colmr {

LazyRecord::LazyRecord(Schema::Ptr schema,
                       std::vector<ColumnFileReader*> columns,
                       Counter* field_reads)
    : schema_(std::move(schema)), field_reads_(field_reads) {
  columns_.resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    columns_[i].reader = columns[i];
  }
}

Status LazyRecord::Get(std::string_view name, const Value** value) {
  const int index = schema_->FieldIndex(std::string(name));
  if (index < 0) {
    return Status::NotFound("no such field: " + std::string(name));
  }
  ColumnState& column = columns_[index];
  if (column.reader == nullptr) {
    return Status::NotFound("field not in projection: " + std::string(name));
  }
  if (column.cached_row != cur_pos_) {
    // A failed read leaves the column reader mid-value: never read it again.
    if (!column.error.ok()) return column.error;
    Status s = Load(&column);
    if (!s.ok()) {
      column.error = s;
      if (status_.ok()) status_ = s;
      return s;
    }
    column.cached_row = cur_pos_;
    field_reads_.Add();
  }
  *value = column.cached_ptr;
  return Status::OK();
}

Status LazyRecord::Load(ColumnState* column) {
  const uint64_t win_end = win_start_ + win_rows_;
  const bool resident = cur_pos_ >= column->batch_start &&
                        cur_pos_ < column->batch_start + column->batch.size();
  if (!resident) {
    // lastPos (reader->current_row()) lags curPos by however many
    // records the map function never touched; skip them in one jump.
    const uint64_t last_pos = column->reader->current_row();
    if (last_pos > cur_pos_ || cur_pos_ >= win_end) {
      return Status::InvalidArgument(
          "lazy record: cur_pos behind the column or outside the window");
    }
    COLMR_RETURN_IF_ERROR(column->reader->SkipRows(cur_pos_ - last_pos));
    // Decode ahead: a touch on the row right after the previous one
    // doubles the last length, a gap restarts at one row.
    const bool follows = column->cached_row != UINT64_MAX &&
                         column->cached_row + 1 == cur_pos_;
    const uint64_t ahead = follows ? 2 * column->batch.size() : 1;
    column->batch_start = cur_pos_;
    COLMR_RETURN_IF_ERROR(column->reader->NextBatch(
        std::clamp<uint64_t>(ahead, 1, win_end - cur_pos_), &column->batch));
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
