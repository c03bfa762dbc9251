#include "serde/value.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

namespace colmr {

namespace {

/// IEEE 754 totalOrder as a signed integer: negative doubles have their
/// magnitude bits flipped, so integer order over the keys is the total
/// order and equal keys mean identical bits.
int64_t TotalOrderKey(double d) {
  const int64_t bits = std::bit_cast<int64_t>(d);
  return bits < 0 ? bits ^ INT64_MAX : bits;
}

}  // namespace

const Value* Value::FindMapEntry(std::string_view key) const {
  for (const auto& [k, v] : map_entries()) {
    if (k == key) return &v;
  }
  return nullptr;
}

int Value::Compare(const Value& other) const {
  if (kind_ != other.kind_) {
    return kind_ < other.kind_ ? -1 : 1;
  }
  switch (kind_) {
    case TypeKind::kNull:
      return 0;
    case TypeKind::kBool: {
      const bool a = bool_value(), b = other.bool_value();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case TypeKind::kInt32:
    case TypeKind::kInt64: {
      const int64_t a = int64_value(), b = other.int64_value();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case TypeKind::kDouble: {
      const int64_t a = TotalOrderKey(double_value());
      const int64_t b = TotalOrderKey(other.double_value());
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case TypeKind::kString:
    case TypeKind::kBytes:
      return string_value().compare(other.string_value());
    case TypeKind::kArray:
    case TypeKind::kRecord: {
      const auto& a = elements();
      const auto& b = other.elements();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
    case TypeKind::kMap: {
      const auto& a = map_entries();
      const auto& b = other.map_entries();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int kc = a[i].first.compare(b[i].first);
        if (kc != 0) return kc;
        const int vc = a[i].second.Compare(b[i].second);
        if (vc != 0) return vc;
      }
      return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
    }
  }
  return 0;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

std::string Value::ToString() const {
  std::string out;
  switch (kind_) {
    case TypeKind::kNull:
      out = "null";
      break;
    case TypeKind::kBool:
      out = bool_value() ? "true" : "false";
      break;
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      out = std::to_string(int64_value());
      break;
    case TypeKind::kDouble: {
      // Shortest text that reads back bit-exact (nan, -nan, inf and -inf
      // for the non-finite values). A finite value keeps a '.' or an
      // exponent so it parses back as a double, not as an integer.
      char text[32];
      const double d = double_value();
      out.assign(text, std::to_chars(text, text + sizeof(text), d).ptr);
      if (std::isfinite(d) && out.find_first_of(".e") == std::string::npos) {
        out += ".0";
      }
      break;
    }
    case TypeKind::kString:
    case TypeKind::kBytes:
      AppendEscaped(string_value(), &out);
      break;
    case TypeKind::kArray:
    case TypeKind::kRecord: {
      out = "[";
      const auto& elems = elements();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ",";
        out += elems[i].ToString();
      }
      out += "]";
      break;
    }
    case TypeKind::kMap: {
      out = "{";
      const auto& entries = map_entries();
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i > 0) out += ",";
        AppendEscaped(entries[i].first, &out);
        out += ":";
        out += entries[i].second.ToString();
      }
      out += "}";
      break;
    }
  }
  return out;
}

size_t Value::MemoryFootprint() const {
  size_t total = sizeof(Value);
  switch (kind_) {
    case TypeKind::kString:
    case TypeKind::kBytes:
      total += string_value().capacity();
      break;
    case TypeKind::kArray:
    case TypeKind::kRecord:
      for (const Value& v : elements()) total += v.MemoryFootprint();
      break;
    case TypeKind::kMap:
      for (const auto& [k, v] : map_entries()) {
        total += k.capacity() + v.MemoryFootprint();
      }
      break;
    default:
      break;
  }
  return total;
}

}  // namespace colmr
