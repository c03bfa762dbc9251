#ifndef COLMR_SERDE_BATCH_H_
#define COLMR_SERDE_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/slice.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

/// Bump allocator backing the string heap of a ColumnBatch. Allocations
/// live until Clear(); Clear() keeps the chunks, so a reader that refills
/// the same batch every NextBatch() reaches a steady state with zero
/// allocator traffic (the Hadoop object-reuse contract, applied to bytes).
class BatchArena {
 public:
  BatchArena() = default;
  BatchArena(const BatchArena&) = delete;
  BatchArena& operator=(const BatchArena&) = delete;
  BatchArena(BatchArena&&) = default;
  BatchArena& operator=(BatchArena&&) = default;

  /// Returns n writable bytes; never fails (aborts on OOM like new[]).
  char* Allocate(size_t n);

  /// Invalidates every outstanding allocation but keeps the chunk memory.
  void Clear() {
    current_ = 0;
    used_ = 0;
  }

  /// Bytes handed out since the last Clear (for footprint accounting).
  size_t bytes_allocated() const { return bytes_allocated_; }

 private:
  static constexpr size_t kChunkSize = 64 * 1024;

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  std::vector<Chunk> chunks_;
  size_t current_ = 0;  // chunk being bump-allocated (when chunks_ nonempty)
  size_t used_ = 0;     // bytes used in chunks_[current_]
  size_t bytes_allocated_ = 0;
};

/// A batch of decoded values of one column, stored columnar: one typed
/// contiguous lane per primitive kind, a Slice lane (arena- or
/// cache-backed) for strings/bytes, a null bitmap, and a boxed Value lane
/// as the fallback for array/map/record values. All rows of a batch share
/// the column's TypeKind, so row index == lane index.
///
/// Lifetime: the contents of a batch — including every Slice returned by
/// StringAt and every Value* returned by BoxedAt — are invalidated by the
/// next Reset()/NextBatch() on the producing reader, mirroring Hadoop's
/// record-reuse contract. Zero-copy string slices may point into cached
/// file blocks; AddKeepalive pins those blocks for the batch's lifetime.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;
  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;

  /// Clears the batch for refilling with values of `kind`. Keeps lane and
  /// arena capacity.
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
  /// copy=true duplicates the bytes into the arena; copy=false stores the
  /// slice as-is (caller guarantees the backing bytes outlive the batch,
  /// e.g. via AddKeepalive).
  void AppendString(Slice s, bool copy);
  void AppendBoxed(Value v) {
    boxed_.push_back(std::move(v));
    ++size_;
  }

  /// Bulk appenders used by the decode kernels.
  void AppendInts(const int64_t* v, size_t n) {
    ints_.insert(ints_.end(), v, v + n);
    size_ += n;
  }
  void AppendDoubles(const double* v, size_t n) {
    doubles_.insert(doubles_.end(), v, v + n);
    size_ += n;
  }

  /// Pins backing storage (a cached file block) for zero-copy strings.
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

  BatchArena* arena() { return &arena_; }

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
  std::vector<Slice> strings_;  // into arena_ or a keepalive pin
  std::vector<Value> boxed_;    // array/map/record fallback lane
  std::vector<uint8_t> nulls_;  // bitmap, bit set = null
  BatchArena arena_;
  std::vector<std::shared_ptr<const std::string>> keepalive_;
};

}  // namespace colmr

#endif  // COLMR_SERDE_BATCH_H_
