#ifndef COLMR_TESTS_VALUE_GEN_H_
#define COLMR_TESTS_VALUE_GEN_H_

// Seeded test values of any schema, with every edge the decoders, zone
// maps and shuffle care about: int64 and int32 extremes, NaN, ±0.0, ±inf,
// empty strings, and strings longer than the 64-byte stats prefix, some
// all 0xFF up front. Half the draws come from a small pool, so values
// repeat: shuffle keys group and dictionaries dedup.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

template <typename T, size_t N>
const T& Pick(Random& rng, const T (&options)[N]) {
  return options[rng.Uniform(N)];
}

inline Value GenValue(const Schema& type, Random& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t ints[] = {0, -1, 7, (int64_t{1} << 53) + 1, INT64_MIN,
                          INT64_MAX, INT32_MIN, INT32_MAX};
  const double doubles[] = {nan, -nan, 0.0, -0.0, inf, -inf, 1e-9, 3.0};
  // Longer than the 64-byte stats prefix, some all-0xFF up front.
  const std::string strings[] = {"", "a", "k\"\\\t\n", std::string(80, 'b'),
                                 std::string(70, '\xFF') + "x", "\xFF"};
  const bool pooled = rng.OneIn(2);
  const TypeKind kind = type.kind();
  const int64_t i = pooled ? Pick(rng, ints) : static_cast<int64_t>(rng.Next());
  switch (kind) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool:
      return Value::Bool(rng.OneIn(2));
    case TypeKind::kInt32:
      return Value::Int32(static_cast<int32_t>(i));
    case TypeKind::kInt64:
      return Value::Int64(i);
    case TypeKind::kDouble:
      return Value::Double(pooled ? Pick(rng, doubles)
                                  : rng.NextDouble() * 2e6 - 1e6);
    case TypeKind::kString:
    case TypeKind::kBytes: {
      std::string s = pooled ? Pick(rng, strings) : rng.NextString(0, 90);
      if (!pooled && kind == TypeKind::kBytes) {
        for (char& c : s) c = static_cast<char>(rng.Next());
      }
      return kind == TypeKind::kString ? Value::String(s) : Value::Bytes(s);
    }
    case TypeKind::kMap: {
      Value::MapEntries entries;
      for (uint64_t n = rng.Uniform(4); n > 0; --n) {
        entries.emplace_back(
            std::string{'k', static_cast<char>('0' + rng.Uniform(6))},
            GenValue(*type.element(), rng));
      }
      return Value::Map(std::move(entries));
    }
    default: {  // up to three array elements, or every record field
      std::vector<Value> values;
      const size_t n = kind == TypeKind::kArray ? rng.Uniform(4)
                                                : type.fields().size();
      for (size_t f = 0; f < n; ++f) {
        const Schema& element = kind == TypeKind::kArray
                                    ? *type.element()
                                    : *type.fields()[f].type;
        values.push_back(GenValue(element, rng));
      }
      return kind == TypeKind::kArray ? Value::Array(std::move(values))
                                      : Value::Record(std::move(values));
    }
  }
}

}  // namespace colmr

#endif  // COLMR_TESTS_VALUE_GEN_H_
