#ifndef COLMR_SERDE_VALUE_H_
#define COLMR_SERDE_VALUE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "serde/schema.h"

namespace colmr {

/// A dynamically-typed runtime value conforming to some Schema — the
/// generic record abstraction of the Avro framework the paper assumes
/// (Appendix A). Arrays and record fields are stored as value vectors;
/// maps as key/value pair vectors in insertion order.
class Value {
 public:
  using MapEntries = std::vector<std::pair<std::string, Value>>;

  /// Default-constructed Value is null.
  Value() : kind_(TypeKind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(TypeKind::kBool, v); }
  static Value Int32(int32_t v) {
    return Value(TypeKind::kInt32, static_cast<int64_t>(v));
  }
  static Value Int64(int64_t v) { return Value(TypeKind::kInt64, v); }
  static Value Double(double v) { return Value(TypeKind::kDouble, v); }
  static Value String(std::string v) {
    return Value(TypeKind::kString, std::move(v));
  }
  static Value Bytes(std::string v) {
    return Value(TypeKind::kBytes, std::move(v));
  }
  static Value Array(std::vector<Value> elems) {
    return Value(TypeKind::kArray, std::move(elems));
  }
  static Value Record(std::vector<Value> fields) {
    return Value(TypeKind::kRecord, std::move(fields));
  }
  static Value Map(MapEntries entries) {
    Value v;
    v.kind_ = TypeKind::kMap;
    v.data_ = std::move(entries);
    return v;
  }

  // In-place mutators used by the batch scan path: unlike the factory
  // functions, AssignString reuses the heap buffer a string-kind Value
  // already owns, so re-materializing a reused Value row after row is
  // allocation-free in the steady state.
  void AssignNull() {
    kind_ = TypeKind::kNull;
    data_ = std::monostate{};
  }
  void AssignBool(bool v) {
    kind_ = TypeKind::kBool;
    data_ = v;
  }
  void AssignInt32(int32_t v) {
    kind_ = TypeKind::kInt32;
    data_ = static_cast<int64_t>(v);
  }
  void AssignInt64(int64_t v) {
    kind_ = TypeKind::kInt64;
    data_ = v;
  }
  void AssignDouble(double v) {
    kind_ = TypeKind::kDouble;
    data_ = v;
  }
  /// kind must be kString or kBytes.
  void AssignString(TypeKind kind, std::string_view s) {
    assert(kind == TypeKind::kString || kind == TypeKind::kBytes);
    if (auto* held = std::get_if<std::string>(&data_)) {
      held->assign(s.data(), s.size());
    } else {
      data_ = std::string(s);
    }
    kind_ = kind;
  }

  /// Makes this a map and returns its entries for refilling in place. A
  /// Value that already holds a map keeps its entry vector, and each
  /// entry its strings' buffers, until the caller resizes them away.
  MapEntries* AssignMap() {
    if (!std::holds_alternative<MapEntries>(data_)) data_ = MapEntries();
    kind_ = TypeKind::kMap;
    return &std::get<MapEntries>(data_);
  }

  TypeKind kind() const { return kind_; }
  bool is_null() const { return kind_ == TypeKind::kNull; }

  bool bool_value() const {
    assert(kind_ == TypeKind::kBool);
    return std::get<bool>(data_);
  }
  int32_t int32_value() const {
    assert(kind_ == TypeKind::kInt32);
    return static_cast<int32_t>(std::get<int64_t>(data_));
  }
  int64_t int64_value() const {
    assert(kind_ == TypeKind::kInt32 || kind_ == TypeKind::kInt64);
    return std::get<int64_t>(data_);
  }
  double double_value() const {
    assert(kind_ == TypeKind::kDouble);
    return std::get<double>(data_);
  }
  const std::string& string_value() const {
    assert(kind_ == TypeKind::kString || kind_ == TypeKind::kBytes);
    return std::get<std::string>(data_);
  }
  const std::string& bytes_value() const { return string_value(); }

  /// Array elements or record fields.
  const std::vector<Value>& elements() const {
    assert(kind_ == TypeKind::kArray || kind_ == TypeKind::kRecord);
    return std::get<std::vector<Value>>(data_);
  }
  std::vector<Value>* mutable_elements() {
    return &std::get<std::vector<Value>>(data_);
  }

  const MapEntries& map_entries() const {
    assert(kind_ == TypeKind::kMap);
    return std::get<MapEntries>(data_);
  }

  /// Linear lookup of a map key; returns nullptr if absent. (Maps in this
  /// workload are small — 10-ish entries — so linear scan beats hashing.)
  const Value* FindMapEntry(std::string_view key) const;

  /// Total ordering across values of the same schema, used for shuffle
  /// sort keys. Orders first by kind, then by content. Doubles follow
  /// IEEE 754 totalOrder over their bits:
  ///   -NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN,
  /// so two doubles compare equal exactly when their bits are identical —
  /// the equality HashTaggedValue and the shuffle partitioner agree with.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Human-readable rendering, also used by the TXT storage format
  /// (strings escaped; containers in JSON-like syntax).
  std::string ToString() const;

  /// Rough in-memory footprint in bytes; used by Fig. 8-style accounting.
  size_t MemoryFootprint() const;

 private:
  template <typename T>
  Value(TypeKind kind, T&& v) : kind_(kind), data_(std::forward<T>(v)) {}

  TypeKind kind_;
  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::vector<Value>, MapEntries>
      data_;
};

}  // namespace colmr

#endif  // COLMR_SERDE_VALUE_H_
