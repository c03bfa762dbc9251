#include "common/coding.h"

#include <cstring>

namespace colmr {

void PutVarint32(Buffer* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(Buffer* dst, uint64_t value) {
  char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<char>(value);
  dst->Append(buf, n);
}

void PutZigZag32(Buffer* dst, int32_t value) {
  PutVarint64(dst, ZigZagEncode32(value));
}

void PutZigZag64(Buffer* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode64(value));
}

void PutFixed32(Buffer* dst, uint32_t value) {
  // Explicit little-endian byte assembly: the on-disk CIF/COF/RCFile
  // images must mean the same bytes on any host.
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->Append(buf, 4);
}

void PutFixed64(Buffer* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->Append(buf, 8);
}

void PutDouble(Buffer* dst, double value) {
  uint64_t bits = 0;
  memcpy(&bits, &value, 8);
  PutFixed64(dst, bits);
}

void PutLengthPrefixed(Buffer* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->Append(value);
}

Status GetVarint64Slow(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (input->empty()) return Status::Corruption("truncated varint");
    uint8_t byte = static_cast<uint8_t>((*input)[0]);
    input->RemovePrefix(1);
    // The 10th byte (shift 63) has room for exactly one payload bit; any
    // higher bit would be shifted past bit 63 and silently dropped, making
    // distinct byte strings decode to the same value.
    if (shift == 63 && (byte & 0x7e) != 0) {
      return Status::Corruption("varint overflow");
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint too long");
}

Status GetZigZag32(Slice* input, int32_t* value) {
  uint32_t v = 0;
  COLMR_RETURN_IF_ERROR(GetVarint32(input, &v));
  *value = ZigZagDecode32(v);
  return Status::OK();
}

Status GetZigZag64(Slice* input, int64_t* value) {
  uint64_t v = 0;
  COLMR_RETURN_IF_ERROR(GetVarint64(input, &v));
  *value = ZigZagDecode64(v);
  return Status::OK();
}

Status GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return Status::Corruption("truncated fixed32");
  const uint8_t* p = reinterpret_cast<const uint8_t*>(input->data());
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  input->RemovePrefix(4);
  return Status::OK();
}

Status GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return Status::Corruption("truncated fixed64");
  const uint8_t* p = reinterpret_cast<const uint8_t*>(input->data());
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  *value = result;
  input->RemovePrefix(8);
  return Status::OK();
}

Status GetDouble(Slice* input, double* value) {
  uint64_t bits = 0;
  COLMR_RETURN_IF_ERROR(GetFixed64(input, &bits));
  memcpy(value, &bits, 8);
  return Status::OK();
}

Status DecodeVarint64Batch(Slice* input, size_t n, uint64_t* out,
                           size_t* decoded) {
  const char* const base = input->data();
  const char* p = base;
  const char* const limit = base + input->size();
  size_t i = 0;
  // Fast loop: with full 10-byte headroom no per-byte bounds check is
  // needed — a malformed value is caught by the same canonicality rules
  // as the scalar path before p can pass limit.
  while (i < n && limit - p >= 10) {
    const char* const value_start = p;
    uint64_t byte = static_cast<uint8_t>(*p++);
    if (byte < 0x80) {
      out[i++] = byte;
      continue;
    }
    uint64_t result = byte & 0x7f;
    int shift = 7;
    for (;;) {
      byte = static_cast<uint8_t>(*p++);
      if (shift == 63 && (byte & 0x7e) != 0) {
        input->RemovePrefix(value_start - base);
        *decoded = i;
        return Status::Corruption("varint overflow");
      }
      result |= (byte & 0x7f) << shift;
      if (byte < 0x80) break;
      shift += 7;
      if (shift > 63) {
        input->RemovePrefix(value_start - base);
        *decoded = i;
        return Status::Corruption("varint too long");
      }
    }
    out[i++] = result;
  }
  input->RemovePrefix(p - base);
  // Tail: bounds-checked scalar decode for the last few values.
  while (i < n) {
    const Slice save = *input;
    uint64_t v = 0;
    Status s = GetVarint64(input, &v);
    if (!s.ok()) {
      *input = save;
      *decoded = i;
      return s;
    }
    out[i++] = v;
  }
  *decoded = n;
  return Status::OK();
}

Status DecodeFixed64Batch(Slice* input, size_t n, uint64_t* out,
                          size_t* decoded) {
  const size_t avail = input->size() / 8;
  const size_t take = n < avail ? n : avail;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(input->data());
  for (size_t i = 0; i < take; ++i) {
    uint64_t result = 0;
    for (int j = 0; j < 8; ++j) {
      result |= static_cast<uint64_t>(p[8 * i + j]) << (8 * j);
    }
    out[i] = result;
  }
  input->RemovePrefix(take * 8);
  *decoded = take;
  return take == n ? Status::OK() : Status::Corruption("truncated fixed64");
}

int VarintLength(uint64_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

}  // namespace colmr
