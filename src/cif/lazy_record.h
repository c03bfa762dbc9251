#ifndef COLMR_CIF_LAZY_RECORD_H_
#define COLMR_CIF_LAZY_RECORD_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cif/column_reader.h"
#include "obs/metrics.h"
#include "serde/record.h"

namespace colmr {

/// The CIF record (paper Section 5.1, Fig. 5), eager and lazy alike: the
/// two construction strategies differ only in which columns decode ahead
/// of the map function. The reader holds one split-level position,
/// curPos, advanced by the RecordReader on every record; each column file
/// keeps its own lastPos (the ColumnFileReader's current row).
///
/// Every record sits in a batch window (SetBatchWindow), one-row batches
/// included. *Window columns* decode the whole window up front, crossing
/// the rows since their last decode with SkipRows. Every other column
/// decodes nothing until the map function calls Get(): the column then
/// skips curPos - lastPos rows — through its skip list if it has one —
/// and deserializes the value at curPos. It may decode a few rows ahead
/// inside the window, but never more than twice the rows the map function
/// touches, plus one.
///
/// Names resolve through one table built at construction: a projected
/// field reads its column, an unprojected field of the schema or an
/// evolved-away one (a projected name the split predates) reads Null, and
/// any other name is NotFound.
///
/// A column read or decode error fails the task: status() keeps the first
/// one, even when the map function swallowed the Get() that returned it.
/// The rows a failed decode produced before the failing value are still
/// served; a column that failed never reads again, and the others stay
/// readable.
class LazyRecord final : public Record {
 public:
  /// One projected column, in the reader's column order.
  struct Column {
    std::string name;
    std::unique_ptr<ColumnFileReader> reader;
    /// Decodes every window whole in SetBatchWindow.
    bool window = false;
  };

  /// `missing` names evolved-away fields. field_reads counts Get() calls
  /// that materialize a column value (cif.lazy.field_reads): each adds to
  /// a plain tally, published once per batch window and on destruction,
  /// so the counter must outlive the LazyRecord.
  LazyRecord(Schema::Ptr schema, std::vector<Column> columns,
             const std::vector<std::string>& missing, Counter* field_reads);
  ~LazyRecord() override { field_reads_.Publish(); }

  const Schema& schema() const override { return *schema_; }
  Status Get(std::string_view name, const Value** value) override;

  /// Declares the resident row window [start, start + rows) of the
  /// enclosing batch (DESIGN.md §10); the reader sets one before every
  /// AdvanceTo. Decodes the window of every window column and returns the
  /// rows all of them decoded. When one fails, status() takes the error a
  /// row-at-a-time scan meets first — lowest row, then column order — and
  /// the rows before it are still served.
  ///
  /// A Get() of another column that falls outside its decoded rows
  /// decodes ahead with one NextBatch, never past the window's end. The
  /// decode-ahead length is per column and follows the map function's
  /// touches: it doubles when the touch is on the row right after the
  /// previous one, and resets to one row after any gap, whose untouched
  /// rows are crossed with SkipRows. A column touched on every row thus
  /// decodes a window in at most log2(rows) + 1 NextBatch calls, a
  /// sparsely touched one decodes only the rows touched, and each column
  /// decodes at most 2 × touched + 1 values.
  uint64_t SetBatchWindow(uint64_t start, uint64_t rows);

  /// Advances the split-level position within the window. Does no I/O.
  void AdvanceTo(uint64_t row) { cur_pos_ = row; }

  /// The decoded window of a window column, or nullptr for any other name
  /// (the vectorized predicate reads absent lanes as NULL).
  const ColumnBatch* WindowLane(const std::string& name) const;

  /// The first column read or decode error, or OK. An unknown field name
  /// is the caller's error, not the column's: it fails only that Get().
  const Status& status() const { return status_; }

 private:
  struct ColumnState {
    std::unique_ptr<ColumnFileReader> reader;
    bool window = false;
    Value cached;
    /// Row of the last touch; UINT64_MAX before the first.
    uint64_t cached_row = UINT64_MAX;
    /// Points at `cached` or into `batch`; what Get() hands out.
    const Value* cached_ptr = nullptr;
    /// Rows [batch_start, batch_start + batch.size()) decoded ahead; its
    /// size is the decode-ahead length the next one doubles.
    ColumnBatch batch;
    uint64_t batch_start = 0;
    /// The column's first read or decode error; every later decode of it
    /// returns this.
    Status error;
  };

  /// Slot of `name` in columns_, kNull for a field that reads Null, or
  /// kUnknown.
  static constexpr int kNull = -1;
  static constexpr int kUnknown = -2;
  int Slot(std::string_view name) const;

  /// Decodes `rows` rows from `row` on into the column's batch, first
  /// crossing the rows since its last decode. On error the batch holds
  /// the rows before the failing value, and the column keeps the error.
  Status Decode(ColumnState* column, uint64_t row, uint64_t rows);

  /// Points column->cached_ptr at the column's value at cur_pos_,
  /// decoding ahead if it is not resident.
  Status Load(ColumnState* column);

  Schema::Ptr schema_;
  std::vector<ColumnState> columns_;
  /// Projected names first (slot = column), then the Null ones.
  std::vector<std::pair<std::string, int>> names_;
  Value null_;
  uint64_t cur_pos_ = 0;
  uint64_t win_start_ = 0;
  uint64_t win_rows_ = 0;
  CounterTally field_reads_;
  Status status_;
};

}  // namespace colmr

#endif  // COLMR_CIF_LAZY_RECORD_H_
