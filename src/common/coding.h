#ifndef COLMR_COMMON_CODING_H_
#define COLMR_COMMON_CODING_H_

#include <cstdint>

#include "common/buffer.h"
#include "common/slice.h"
#include "common/status.h"

namespace colmr {

// Binary integer coding used throughout the storage formats. Variable-length
// integers follow the LEB128 layout (7 payload bits per byte, high bit =
// continuation); signed values are zigzag-mapped first, matching Avro's wire
// format. Fixed-width values are little-endian.

/// Maps a signed value onto an unsigned one so small magnitudes stay small:
/// 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}
inline uint32_t ZigZagEncode32(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^ static_cast<uint32_t>(v >> 31);
}
inline int32_t ZigZagDecode32(uint32_t v) {
  return static_cast<int32_t>(v >> 1) ^ -static_cast<int32_t>(v & 1);
}

void PutVarint32(Buffer* dst, uint32_t value);
void PutVarint64(Buffer* dst, uint64_t value);
void PutZigZag32(Buffer* dst, int32_t value);
void PutZigZag64(Buffer* dst, int64_t value);
void PutFixed32(Buffer* dst, uint32_t value);
void PutFixed64(Buffer* dst, uint64_t value);
void PutDouble(Buffer* dst, double value);
/// Writes varint length followed by the bytes.
void PutLengthPrefixed(Buffer* dst, Slice value);

/// Each Get* consumes the decoded bytes from the front of *input.
/// Returns Corruption if the input is truncated or malformed.
///
/// GetVarint64 inlines the 1–2 byte case — the overwhelming majority of
/// varints in real columns (small ids, lengths, zigzagged deltas) — and
/// punts everything else, including truncation and canonicality errors,
/// to the out-of-line slow path.
Status GetVarint64Slow(Slice* input, uint64_t* value);

inline Status GetVarint64(Slice* input, uint64_t* value) {
  const size_t n = input->size();
  if (n >= 1) {
    const uint8_t b0 = static_cast<uint8_t>((*input)[0]);
    if (b0 < 0x80) {
      *value = b0;
      input->RemovePrefix(1);
      return Status::OK();
    }
    if (n >= 2) {
      const uint8_t b1 = static_cast<uint8_t>((*input)[1]);
      if (b1 < 0x80) {
        *value = static_cast<uint64_t>(b0 & 0x7f) |
                 (static_cast<uint64_t>(b1) << 7);
        input->RemovePrefix(2);
        return Status::OK();
      }
    }
  }
  return GetVarint64Slow(input, value);
}

inline Status GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v = 0;
  Status s = GetVarint64(input, &v);
  if (!s.ok()) return s;
  if (v > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status GetZigZag32(Slice* input, int32_t* value);
Status GetZigZag64(Slice* input, int64_t* value);
Status GetFixed32(Slice* input, uint32_t* value);
Status GetFixed64(Slice* input, uint64_t* value);
Status GetDouble(Slice* input, double* value);

/// Inline: the CIF skip walker and the string decode call it once per
/// string, and out of line it cost crawl-distinct about 6% of its job
/// time (DESIGN.md §10).
inline Status GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len = 0;
  COLMR_RETURN_IF_ERROR(GetVarint64(input, &len));
  if (input->size() < len) {
    return Status::Corruption("truncated length-prefixed bytes");
  }
  *value = input->Prefix(len);
  input->RemovePrefix(len);
  return Status::OK();
}

/// Number of bytes PutVarint64 would emit for value.
int VarintLength(uint64_t value);

// ---- Batch decode kernels (DESIGN.md §10) ----
// Both kernels decode up to n values from the front of *input. On success
// the input cursor advances past all n values and *decoded == n. On
// failure the cursor is restored to the first byte of the value that
// failed, *decoded holds the count of values decoded before it, and the
// returned status carries the same message the scalar decoder would have
// produced for that value.

/// Bulk LEB128 decode. While at least 10 bytes (the maximum encoding)
/// remain, values are decoded without per-byte bounds checks; the tail
/// falls back to the bounds-checked scalar path.
Status DecodeVarint64Batch(Slice* input, size_t n, uint64_t* out,
                           size_t* decoded);

/// Bulk little-endian fixed64 decode: one bounds check for the whole run.
Status DecodeFixed64Batch(Slice* input, size_t n, uint64_t* out,
                          size_t* decoded);

}  // namespace colmr

#endif  // COLMR_COMMON_CODING_H_
