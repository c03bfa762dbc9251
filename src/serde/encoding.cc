#include "serde/encoding.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/hash.h"
#include "obs/metrics.h"

namespace colmr {

namespace {

// serde.* counters are process-global: encode/decode run inside format
// readers and the shuffle, far from any per-job context.  The public
// entry points count one event per top-level value and delegate to the
// *Rec workers below, so container recursion costs no extra atomics.
// Scan paths that run once per value or per batch count into a
// SerdeTally instead.
Counter* SerdeCounter(const char* name) {
  return MetricsRegistry::Default().counter(name);
}

Counter* DecodedValues() {
  static Counter* values = SerdeCounter("serde.decode.values");
  return values;
}

Counter* SkippedValues() {
  static Counter* values = SerdeCounter("serde.skip.values");
  return values;
}

Counter* DecodedBatches() {
  static Counter* batches = SerdeCounter("serde.batch.decoded");
  return batches;
}

Counter* BatchRows() {
  static Counter* rows = SerdeCounter("serde.batch.rows");
  return rows;
}

Counter* FallbackValues() {
  static Counter* values = SerdeCounter("serde.batch.fallback_values");
  return values;
}

Status EncodeValueRec(const Schema& schema, const Value& value, Buffer* dst);
Status DecodeValueRec(const Schema& schema, Slice* input, Value* out);
Status SkipValueRec(const Schema& schema, Slice* input);
void EncodeTaggedValueRec(const Value& value, Buffer* dst);
Status DecodeTaggedValueRec(Slice* input, Value* out);

Status EncodeValueRec(const Schema& schema, const Value& value, Buffer* dst) {
  if (schema.kind() != value.kind()) {
    // Allow int32 values in int64 columns (widening), nothing else.
    if (!(schema.kind() == TypeKind::kInt64 &&
          value.kind() == TypeKind::kInt32)) {
      return Status::InvalidArgument("encode: value kind does not match schema");
    }
  }
  switch (schema.kind()) {
    case TypeKind::kNull:
      return Status::OK();
    case TypeKind::kBool:
      dst->PushBack(value.bool_value() ? 1 : 0);
      return Status::OK();
    case TypeKind::kInt32:
      PutZigZag32(dst, value.int32_value());
      return Status::OK();
    case TypeKind::kInt64:
      PutZigZag64(dst, value.int64_value());
      return Status::OK();
    case TypeKind::kDouble:
      PutDouble(dst, value.double_value());
      return Status::OK();
    case TypeKind::kString:
    case TypeKind::kBytes:
      PutLengthPrefixed(dst, value.string_value());
      return Status::OK();
    case TypeKind::kArray: {
      const auto& elems = value.elements();
      PutVarint64(dst, elems.size());
      for (const Value& e : elems) {
        COLMR_RETURN_IF_ERROR(EncodeValueRec(*schema.element(), e, dst));
      }
      return Status::OK();
    }
    case TypeKind::kMap: {
      const auto& entries = value.map_entries();
      PutVarint64(dst, entries.size());
      for (const auto& [k, v] : entries) {
        PutLengthPrefixed(dst, k);
        COLMR_RETURN_IF_ERROR(EncodeValueRec(*schema.element(), v, dst));
      }
      return Status::OK();
    }
    case TypeKind::kRecord: {
      const auto& fields = schema.fields();
      const auto& values = value.elements();
      if (fields.size() != values.size()) {
        return Status::InvalidArgument("encode: record arity mismatch");
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        COLMR_RETURN_IF_ERROR(EncodeValueRec(*fields[i].type, values[i], dst));
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("encode: unknown kind");
}

Status DecodeValueRec(const Schema& schema, Slice* input, Value* out) {
  switch (schema.kind()) {
    case TypeKind::kNull:
      *out = Value::Null();
      return Status::OK();
    case TypeKind::kBool: {
      if (input->empty()) return Status::Corruption("decode: bool");
      *out = Value::Bool((*input)[0] != 0);
      input->RemovePrefix(1);
      return Status::OK();
    }
    case TypeKind::kInt32: {
      int32_t v;
      COLMR_RETURN_IF_ERROR(GetZigZag32(input, &v));
      *out = Value::Int32(v);
      return Status::OK();
    }
    case TypeKind::kInt64: {
      int64_t v;
      COLMR_RETURN_IF_ERROR(GetZigZag64(input, &v));
      *out = Value::Int64(v);
      return Status::OK();
    }
    case TypeKind::kDouble: {
      double v;
      COLMR_RETURN_IF_ERROR(GetDouble(input, &v));
      *out = Value::Double(v);
      return Status::OK();
    }
    case TypeKind::kString:
    case TypeKind::kBytes: {
      Slice s;
      COLMR_RETURN_IF_ERROR(GetLengthPrefixed(input, &s));
      // Reuses the buffer of a string *out already holds: the batch scan
      // decodes into reused slots.
      out->AssignString(schema.kind(), s.ToStringView());
      return Status::OK();
    }
    case TypeKind::kArray: {
      uint64_t count;
      COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
      COLMR_RETURN_IF_ERROR(CheckContainerCount(count, input->size()));
      std::vector<Value> elems;
      elems.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Value v;
        COLMR_RETURN_IF_ERROR(DecodeValueRec(*schema.element(), input, &v));
        elems.push_back(std::move(v));
      }
      *out = Value::Array(std::move(elems));
      return Status::OK();
    }
    case TypeKind::kMap: {
      uint64_t count;
      COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
      COLMR_RETURN_IF_ERROR(CheckContainerCount(count, input->size()));
      Value::MapEntries entries;
      entries.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Slice key;
        COLMR_RETURN_IF_ERROR(GetLengthPrefixed(input, &key));
        Value v;
        COLMR_RETURN_IF_ERROR(DecodeValueRec(*schema.element(), input, &v));
        entries.emplace_back(std::string(key.data(), key.size()),
                             std::move(v));
      }
      *out = Value::Map(std::move(entries));
      return Status::OK();
    }
    case TypeKind::kRecord: {
      std::vector<Value> values;
      values.reserve(schema.fields().size());
      for (const auto& field : schema.fields()) {
        Value v;
        COLMR_RETURN_IF_ERROR(DecodeValueRec(*field.type, input, &v));
        values.push_back(std::move(v));
      }
      *out = Value::Record(std::move(values));
      return Status::OK();
    }
  }
  return Status::Corruption("decode: unknown kind");
}

Status SkipValueRec(const Schema& schema, Slice* input) {
  switch (schema.kind()) {
    case TypeKind::kNull:
      return Status::OK();
    case TypeKind::kBool:
      if (input->empty()) return Status::Corruption("skip: bool");
      input->RemovePrefix(1);
      return Status::OK();
    case TypeKind::kInt32:
    case TypeKind::kInt64: {
      uint64_t v;
      return GetVarint64(input, &v);
    }
    case TypeKind::kDouble: {
      if (input->size() < 8) return Status::Corruption("skip: double");
      input->RemovePrefix(8);
      return Status::OK();
    }
    case TypeKind::kString:
    case TypeKind::kBytes: {
      Slice s;
      return GetLengthPrefixed(input, &s);
    }
    case TypeKind::kArray: {
      uint64_t count;
      COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
      COLMR_RETURN_IF_ERROR(CheckContainerCount(count, input->size()));
      for (uint64_t i = 0; i < count; ++i) {
        COLMR_RETURN_IF_ERROR(SkipValueRec(*schema.element(), input));
      }
      return Status::OK();
    }
    case TypeKind::kMap: {
      uint64_t count;
      COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
      COLMR_RETURN_IF_ERROR(CheckContainerCount(count, input->size()));
      for (uint64_t i = 0; i < count; ++i) {
        Slice key;
        COLMR_RETURN_IF_ERROR(GetLengthPrefixed(input, &key));
        COLMR_RETURN_IF_ERROR(SkipValueRec(*schema.element(), input));
      }
      return Status::OK();
    }
    case TypeKind::kRecord: {
      for (const auto& field : schema.fields()) {
        COLMR_RETURN_IF_ERROR(SkipValueRec(*field.type, input));
      }
      return Status::OK();
    }
  }
  return Status::Corruption("skip: unknown kind");
}

void EncodeTaggedValueRec(const Value& value, Buffer* dst) {
  dst->PushBack(static_cast<char>(value.kind()));
  switch (value.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      dst->PushBack(value.bool_value() ? 1 : 0);
      break;
    case TypeKind::kInt32:
      PutZigZag32(dst, value.int32_value());
      break;
    case TypeKind::kInt64:
      PutZigZag64(dst, value.int64_value());
      break;
    case TypeKind::kDouble:
      PutDouble(dst, value.double_value());
      break;
    case TypeKind::kString:
    case TypeKind::kBytes:
      PutLengthPrefixed(dst, value.string_value());
      break;
    case TypeKind::kArray:
    case TypeKind::kRecord: {
      const auto& elems = value.elements();
      PutVarint64(dst, elems.size());
      for (const Value& e : elems) EncodeTaggedValueRec(e, dst);
      break;
    }
    case TypeKind::kMap: {
      const auto& entries = value.map_entries();
      PutVarint64(dst, entries.size());
      for (const auto& [k, v] : entries) {
        PutLengthPrefixed(dst, k);
        EncodeTaggedValueRec(v, dst);
      }
      break;
    }
  }
}

Status DecodeTaggedValueRec(Slice* input, Value* out) {
  if (input->empty()) return Status::Corruption("tagged: empty");
  const TypeKind kind = static_cast<TypeKind>((*input)[0]);
  input->RemovePrefix(1);
  switch (kind) {
    case TypeKind::kNull:
      *out = Value::Null();
      return Status::OK();
    case TypeKind::kBool: {
      if (input->empty()) return Status::Corruption("tagged: bool");
      *out = Value::Bool((*input)[0] != 0);
      input->RemovePrefix(1);
      return Status::OK();
    }
    case TypeKind::kInt32: {
      int32_t v;
      COLMR_RETURN_IF_ERROR(GetZigZag32(input, &v));
      *out = Value::Int32(v);
      return Status::OK();
    }
    case TypeKind::kInt64: {
      int64_t v;
      COLMR_RETURN_IF_ERROR(GetZigZag64(input, &v));
      *out = Value::Int64(v);
      return Status::OK();
    }
    case TypeKind::kDouble: {
      double v;
      COLMR_RETURN_IF_ERROR(GetDouble(input, &v));
      *out = Value::Double(v);
      return Status::OK();
    }
    case TypeKind::kString:
    case TypeKind::kBytes: {
      Slice s;
      COLMR_RETURN_IF_ERROR(GetLengthPrefixed(input, &s));
      std::string owned(s.data(), s.size());
      *out = kind == TypeKind::kString ? Value::String(std::move(owned))
                                       : Value::Bytes(std::move(owned));
      return Status::OK();
    }
    case TypeKind::kArray:
    case TypeKind::kRecord: {
      uint64_t count;
      COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
      COLMR_RETURN_IF_ERROR(CheckContainerCount(count, input->size()));
      std::vector<Value> elems;
      elems.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Value v;
        COLMR_RETURN_IF_ERROR(DecodeTaggedValueRec(input, &v));
        elems.push_back(std::move(v));
      }
      *out = kind == TypeKind::kArray ? Value::Array(std::move(elems))
                                      : Value::Record(std::move(elems));
      return Status::OK();
    }
    case TypeKind::kMap: {
      uint64_t count;
      COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
      COLMR_RETURN_IF_ERROR(CheckContainerCount(count, input->size()));
      Value::MapEntries entries;
      entries.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Slice key;
        COLMR_RETURN_IF_ERROR(GetLengthPrefixed(input, &key));
        Value v;
        COLMR_RETURN_IF_ERROR(DecodeTaggedValueRec(input, &v));
        entries.emplace_back(std::string(key.data(), key.size()),
                             std::move(v));
      }
      *out = Value::Map(std::move(entries));
      return Status::OK();
    }
  }
  return Status::Corruption("tagged: unknown kind");
}

}  // namespace

Status EncodeValue(const Schema& schema, const Value& value, Buffer* dst) {
  static Counter* values = SerdeCounter("serde.encode.values");
  values->Increment();
  return EncodeValueRec(schema, value, dst);
}

Status DecodeValue(const Schema& schema, Slice* input, Value* out) {
  DecodedValues()->Increment();
  return DecodeValueRec(schema, input, out);
}

SerdeTally::SerdeTally()
    : decoded(DecodedValues()),
      skipped(SkippedValues()),
      batches(DecodedBatches()),
      batch_rows(BatchRows()),
      fallback_values(FallbackValues()) {}

Status DecodeValue(const Schema& schema, Slice* input, Value* out,
                   SerdeTally* tally) {
  COLMR_RETURN_IF_ERROR(DecodeValueRec(schema, input, out));
  if (tally != nullptr) tally->decoded.Add();
  return Status::OK();
}

Status SkipValue(const Schema& schema, Slice* input, SerdeTally* tally) {
  COLMR_RETURN_IF_ERROR(SkipValueRec(schema, input));
  if (tally != nullptr) tally->skipped.Add();
  return Status::OK();
}

Status DecodeColumnBatch(const Schema& schema, Slice* input, size_t n,
                         ColumnBatch* out, size_t* decoded,
                         SerdeTally* tally) {
  tally->batches.Add();
  *decoded = 0;
  switch (schema.kind()) {
    case TypeKind::kNull: {
      for (size_t i = 0; i < n; ++i) out->AppendNull();
      *decoded = n;
      break;
    }
    case TypeKind::kBool: {
      const size_t take = n < input->size() ? n : input->size();
      const char* p = input->data();
      for (size_t i = 0; i < take; ++i) out->AppendBool(p[i] != 0);
      input->RemovePrefix(take);
      *decoded = take;
      if (take < n) return Status::Corruption("decode: bool");
      break;
    }
    case TypeKind::kInt32:
    case TypeKind::kInt64: {
      const bool narrow = schema.kind() == TypeKind::kInt32;
      uint64_t raw[512];
      int64_t vals[512];
      while (*decoded < n) {
        const size_t want = std::min<size_t>(n - *decoded, 512);
        const Slice chunk_start = *input;
        size_t got = 0;
        Status s = DecodeVarint64Batch(input, want, raw, &got);
        size_t usable = got;
        if (s.ok() && narrow) {
          // Scalar parity: GetZigZag32 rejects raw varints wider than 32
          // bits before zigzag decoding.
          for (size_t i = 0; i < got; ++i) {
            if (raw[i] > UINT32_MAX) {
              s = Status::Corruption("varint32 overflow");
              usable = i;
              // Rewind to the offending value: replay the good prefix.
              *input = chunk_start;
              uint64_t scratch = 0;
              for (size_t j = 0; j < i; ++j) GetVarint64(input, &scratch);
              break;
            }
          }
        }
        for (size_t i = 0; i < usable; ++i) {
          vals[i] = narrow ? static_cast<int64_t>(ZigZagDecode32(
                                 static_cast<uint32_t>(raw[i])))
                           : ZigZagDecode64(raw[i]);
        }
        out->AppendInts(vals, usable);
        *decoded += usable;
        if (!s.ok()) return s;
      }
      break;
    }
    case TypeKind::kDouble: {
      uint64_t raw[512];
      double vals[512];
      while (*decoded < n) {
        const size_t want = std::min<size_t>(n - *decoded, 512);
        size_t got = 0;
        Status s = DecodeFixed64Batch(input, want, raw, &got);
        for (size_t i = 0; i < got; ++i) {
          memcpy(&vals[i], &raw[i], 8);
        }
        out->AppendDoubles(vals, got);
        *decoded += got;
        if (!s.ok()) return s;
      }
      break;
    }
    case TypeKind::kString:
    case TypeKind::kBytes: {
      while (*decoded < n) {
        const Slice save = *input;
        Slice s;
        Status st = GetLengthPrefixed(input, &s);
        if (!st.ok()) {
          *input = save;
          return st;
        }
        out->AppendString(s);
        ++*decoded;
      }
      break;
    }
    case TypeKind::kArray:
    case TypeKind::kMap:
    case TypeKind::kRecord: {
      Status st;
      while (*decoded < n) {
        const Slice save = *input;
        st = DecodeValue(schema, input, out->PendingBoxed(), tally);
        if (!st.ok()) {
          *input = save;
          break;
        }
        out->CommitBoxed();
        ++*decoded;
      }
      tally->fallback_values.Add(*decoded);
      if (!st.ok()) return st;
      break;
    }
  }
  tally->batch_rows.Add(*decoded);
  return Status::OK();
}

size_t EncodedSize(const Schema& schema, const Value& value) {
  // Scratch encode for sizing only: bypasses the serde.encode counter.
  Buffer tmp;
  EncodeValueRec(schema, value, &tmp);
  return tmp.size();
}

void EncodeTaggedValue(const Value& value, Buffer* dst) {
  static Counter* values = SerdeCounter("serde.shuffle.values_encoded");
  values->Increment();
  EncodeTaggedValueRec(value, dst);
}

Status DecodeTaggedValue(Slice* input, Value* out) {
  static Counter* values = SerdeCounter("serde.shuffle.values_decoded");
  values->Increment();
  return DecodeTaggedValueRec(input, out);
}

size_t TaggedEncodedSize(const Value& value) {
  size_t size = 1;  // the kind tag
  switch (value.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      size += 1;
      break;
    case TypeKind::kInt32:
      size += VarintLength(ZigZagEncode32(value.int32_value()));
      break;
    case TypeKind::kInt64:
      size += VarintLength(ZigZagEncode64(value.int64_value()));
      break;
    case TypeKind::kDouble:
      size += 8;
      break;
    case TypeKind::kString:
    case TypeKind::kBytes: {
      const size_t n = value.string_value().size();
      size += VarintLength(n) + n;
      break;
    }
    case TypeKind::kArray:
    case TypeKind::kRecord: {
      const auto& elems = value.elements();
      size += VarintLength(elems.size());
      for (const Value& e : elems) size += TaggedEncodedSize(e);
      break;
    }
    case TypeKind::kMap: {
      const auto& entries = value.map_entries();
      size += VarintLength(entries.size());
      for (const auto& [k, v] : entries) {
        size += VarintLength(k.size()) + k.size() + TaggedEncodedSize(v);
      }
      break;
    }
  }
  return size;
}

namespace {

/// Streams the LEB128 bytes of v into the hasher — byte-for-byte what
/// PutVarint64 appends.
void HashVarint(Fnv1a64* h, uint64_t v) {
  while (v >= 0x80) {
    h->Update(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  h->Update(static_cast<uint8_t>(v));
}

void HashTaggedValueRec(const Value& value, Fnv1a64* h) {
  h->Update(static_cast<uint8_t>(value.kind()));
  switch (value.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      h->Update(static_cast<uint8_t>(value.bool_value() ? 1 : 0));
      break;
    case TypeKind::kInt32:
      HashVarint(h, ZigZagEncode32(value.int32_value()));
      break;
    case TypeKind::kInt64:
      HashVarint(h, ZigZagEncode64(value.int64_value()));
      break;
    case TypeKind::kDouble: {
      // The 8 little-endian bytes PutDouble writes, independent of host
      // endianness.
      const double d = value.double_value();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, 8);
      for (int i = 0; i < 8; ++i) {
        h->Update(static_cast<uint8_t>(bits >> (8 * i)));
      }
      break;
    }
    case TypeKind::kString:
    case TypeKind::kBytes: {
      const std::string& s = value.string_value();
      HashVarint(h, s.size());
      h->Update(s.data(), s.size());
      break;
    }
    case TypeKind::kArray:
    case TypeKind::kRecord: {
      const auto& elems = value.elements();
      HashVarint(h, elems.size());
      for (const Value& e : elems) HashTaggedValueRec(e, h);
      break;
    }
    case TypeKind::kMap: {
      const auto& entries = value.map_entries();
      HashVarint(h, entries.size());
      for (const auto& [k, v] : entries) {
        HashVarint(h, k.size());
        h->Update(k.data(), k.size());
        HashTaggedValueRec(v, h);
      }
      break;
    }
  }
}

}  // namespace

uint64_t HashTaggedValue(const Value& value, uint64_t seed) {
  Fnv1a64 h(seed);
  HashTaggedValueRec(value, &h);
  return h.Digest();
}

}  // namespace colmr
