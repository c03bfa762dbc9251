#ifndef COLMR_SERDE_BATCH_H_
#define COLMR_SERDE_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/slice.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

/// A batch of decoded values of one column, stored columnar: one typed
/// contiguous lane per primitive kind, a Slice lane for strings/bytes, a
/// null bitmap, and a boxed Value lane as the fallback for
/// array/map/record values. All rows of a batch share the column's
/// TypeKind, so row index == lane index.
///
/// Lifetime: string slices are views of the bytes they decoded from (a
/// file block, a joined read window, a decompressed block), which the
/// batch pins with AddKeepalive. The contents of a batch — every Slice
/// returned by StringAt and every Value* returned by BoxedAt — stay valid
/// until the next Reset()/NextBatch() on the producing reader, mirroring
/// Hadoop's record-reuse contract.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;
  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;

  /// Clears the batch for refilling with values of `kind`. Keeps lane
  /// capacity, and the boxed lane's Values for reuse (PendingBoxed).
  void Reset(TypeKind kind);

  TypeKind kind() const { return kind_; }
  size_t size() const { return size_; }

  /// True when values of this batch's kind live in the boxed Value lane
  /// (array/map/record) rather than a typed lane.
  bool is_boxed() const {
    return kind_ == TypeKind::kArray || kind_ == TypeKind::kMap ||
           kind_ == TypeKind::kRecord;
  }

  // ---- Appenders (producer side) ----
  void AppendNull() {
    SetNullBit(size_);
    ++size_;
  }
  void AppendBool(bool v) {
    bools_.push_back(v ? 1 : 0);
    ++size_;
  }
  void AppendInt(int64_t v) {
    ints_.push_back(v);
    ++size_;
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    ++size_;
  }
  /// Stores the slice as-is: the caller pins its bytes (AddKeepalive).
  void AppendString(Slice s) {
    strings_.push_back(s);
    ++size_;
  }
  /// The boxed lane keeps its Values across Reset, as Hadoop reuses its
  /// Writables: the next row's slot is decoded in place, reusing whatever
  /// storage an earlier batch left in it (a map's entry vector, a
  /// string's buffer), and becomes row size() on CommitBoxed. A slot that
  /// is never committed is scratch for the next decode.
  Value* PendingBoxed() {
    if (size_ >= boxed_.size()) boxed_.resize(size_ + 1);
    return &boxed_[size_];
  }
  void CommitBoxed() { ++size_; }

  /// Bulk appenders used by the decode kernels.
  void AppendInts(const int64_t* v, size_t n) {
    ints_.insert(ints_.end(), v, v + n);
    size_ += n;
  }
  void AppendDoubles(const double* v, size_t n) {
    doubles_.insert(doubles_.end(), v, v + n);
    size_ += n;
  }

  /// Pins the bytes string slices point into, for the batch's lifetime.
  /// Deduplicates against the most recent pin, the common refill pattern.
  void AddKeepalive(std::shared_ptr<const std::string> pin) {
    if (pin == nullptr) return;
    if (!keepalive_.empty() && keepalive_.back() == pin) return;
    keepalive_.push_back(std::move(pin));
  }

  // ---- Accessors (consumer side) ----
  bool IsNull(size_t row) const {
    return (row >> 3) < nulls_.size() &&
           (nulls_[row >> 3] & (1u << (row & 7))) != 0;
  }
  bool BoolAt(size_t row) const { return bools_[row] != 0; }
  int64_t IntAt(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  Slice StringAt(size_t row) const { return strings_[row]; }
  const Value* BoxedAt(size_t row) const { return &boxed_[row]; }

  /// Rebuilds the row'th value as a Value, reusing out's existing storage
  /// (string capacity survives across rows). Matches DecodeValue output
  /// element-for-element.
  void MaterializeInto(size_t row, Value* out) const;

 private:
  void SetNullBit(size_t row) {
    const size_t byte = row >> 3;
    if (byte >= nulls_.size()) nulls_.resize(byte + 1, 0);
    nulls_[byte] |= static_cast<uint8_t>(1u << (row & 7));
  }

  TypeKind kind_ = TypeKind::kNull;
  size_t size_ = 0;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;  // int32 and int64 lanes share int64 storage
  std::vector<double> doubles_;
  std::vector<Slice> strings_;  // into a keepalive pin
  std::vector<Value> boxed_;    // array/map/record lane; rows [0, size_)
  std::vector<uint8_t> nulls_;  // bitmap, bit set = null
  std::vector<std::shared_ptr<const std::string>> keepalive_;
};

}  // namespace colmr

#endif  // COLMR_SERDE_BATCH_H_
