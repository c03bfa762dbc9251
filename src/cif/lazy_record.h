#ifndef COLMR_CIF_LAZY_RECORD_H_
#define COLMR_CIF_LAZY_RECORD_H_

#include <memory>
#include <vector>

#include "cif/column_reader.h"
#include "obs/metrics.h"
#include "serde/record.h"

namespace colmr {

/// Lazy record construction (paper Section 5.1, Fig. 5). The reader holds
/// one split-level position, curPos, advanced by the RecordReader on every
/// record; each column file keeps its own lastPos (the ColumnFileReader's
/// current row). Nothing is read or deserialized until the map function
/// calls Get(): the column then skips curPos - lastPos rows — through its
/// skip list if it has one — and deserializes the value at curPos. It may
/// decode a few rows ahead inside the batch window (SetBatchWindow), but
/// never more than twice the rows the map function touches, plus one.
///
/// Get() returns a column's read or decode error to the map function, and
/// the first such error is kept: status() reports it so the RecordReader
/// fails the task instead of dropping the rows whose Get() the map
/// function gave up on. A column that failed keeps failing; the others
/// stay readable.
class LazyRecord final : public Record {
 public:
  /// Column readers are owned by the caller (the CIF RecordReader) and
  /// must outlive the LazyRecord; index i corresponds to schema field i,
  /// nullptr for fields outside the projection. field_reads counts Get()
  /// calls that materialize a column value (cif.lazy.field_reads): each
  /// Get() adds to a plain tally, published once per batch window and on
  /// destruction, so the counter must outlive the LazyRecord.
  LazyRecord(Schema::Ptr schema, std::vector<ColumnFileReader*> columns,
             Counter* field_reads);
  ~LazyRecord() override { field_reads_.Publish(); }

  const Schema& schema() const override { return *schema_; }
  Status Get(std::string_view name, const Value** value) override;

  /// Advances the split-level position within the window. Does no I/O.
  void AdvanceTo(uint64_t row) { cur_pos_ = row; }
  uint64_t cur_pos() const { return cur_pos_; }

  /// Declares the resident row window [start, start + rows) of the
  /// enclosing batch (DESIGN.md §10); the reader sets one before every
  /// AdvanceTo, one-row batches included. A Get() that falls outside its
  /// column's decoded rows decodes ahead with one NextBatch, never past
  /// the window's end. The decode-ahead length is
  /// per column and follows the map function's touches: it doubles when
  /// the touch is on the row right after the previous one, and resets to
  /// one row after any gap, whose untouched rows are crossed with
  /// SkipRows. A column touched on every row thus decodes a window in at
  /// most log2(rows) + 1 NextBatch calls, a sparsely touched one decodes
  /// only the rows touched, and each column decodes at most
  /// 2 × touched + 1 values.
  void SetBatchWindow(uint64_t start, uint64_t rows) {
    field_reads_.Publish();
    win_start_ = start;
    win_rows_ = rows;
  }

  /// The first column read or decode error any Get() hit, or OK. An
  /// unknown or unprojected field name is the caller's error, not the
  /// column's: it fails only that Get() and is not recorded here.
  const Status& status() const { return status_; }

 private:
  struct ColumnState {
    ColumnFileReader* reader = nullptr;
    Value cached;
    /// Row of the last touch; UINT64_MAX before the first.
    uint64_t cached_row = UINT64_MAX;
    /// Points at `cached` or into `batch`; what Get() hands out.
    const Value* cached_ptr = nullptr;
    /// Rows [batch_start, batch_start + batch.size()) decoded ahead; its
    /// size is the decode-ahead length the next one doubles.
    ColumnBatch batch;
    uint64_t batch_start = 0;
    /// The column's first read or decode error; every later Get() of it
    /// returns this.
    Status error;
  };

  /// Points column->cached_ptr at the column's value at cur_pos_,
  /// reading or decoding it if it is not resident.
  Status Load(ColumnState* column);

  Schema::Ptr schema_;
  std::vector<ColumnState> columns_;
  uint64_t cur_pos_ = 0;
  uint64_t win_start_ = 0;
  uint64_t win_rows_ = 0;
  CounterTally field_reads_;
  Status status_;
};

}  // namespace colmr

#endif  // COLMR_CIF_LAZY_RECORD_H_
