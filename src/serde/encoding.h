#ifndef COLMR_SERDE_ENCODING_H_
#define COLMR_SERDE_ENCODING_H_

#include "common/buffer.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serde/batch.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

// Avro-style binary wire format:
//   bool    -> 1 byte (0/1)
//   int     -> zigzag varint
//   long    -> zigzag varint
//   double  -> 8-byte little-endian IEEE 754
//   string  -> varint length + bytes
//   bytes   -> varint length + bytes
//   array   -> varint count + encoded elements
//   map     -> varint count + (varint key length + key + encoded value)*
//   record  -> fields encoded in schema order, no framing
//   null    -> nothing

/// Appends the binary encoding of value to dst. value must conform to
/// schema (kind mismatch returns InvalidArgument).
Status EncodeValue(const Schema& schema, const Value& value, Buffer* dst);

/// Decodes one value, consuming its bytes from *input.
Status DecodeValue(const Schema& schema, Slice* input, Value* out);

/// Plain tallies of the process-wide serde.* counters a scan path bumps
/// per value or per batch (serde.decode.values, serde.skip.values and
/// serde.batch.{decoded,rows,fallback_values}): they count here instead of
/// in a counter every map thread shares, and the owner publishes once per
/// call (DESIGN.md §8).
struct SerdeTally {
  SerdeTally();
  void Publish() {
    decoded.Publish();
    skipped.Publish();
    batches.Publish();
    batch_rows.Publish();
    fallback_values.Publish();
  }

  CounterTally decoded;
  CounterTally skipped;
  CounterTally batches;
  CounterTally batch_rows;
  CounterTally fallback_values;
};

/// DecodeValue, counted in *tally once the value completes. tally ==
/// nullptr counts nothing, for callers that count whole containers
/// themselves.
Status DecodeValue(const Schema& schema, Slice* input, Value* out,
                   SerdeTally* tally);

/// Advances *input past one encoded value without materializing it,
/// counted in *tally once the value completes (nullptr: not counted).
/// This is what skipping a record costs when a column file has no skip
/// list (paper Section 5.2): cheaper than DecodeValue (no allocation),
/// but still O(encoded size).
Status SkipValue(const Schema& schema, Slice* input, SerdeTally* tally);

/// Number of bytes the encoding of value occupies.
size_t EncodedSize(const Schema& schema, const Value& value);

/// Batch decode (DESIGN.md §10): appends up to n values of `schema` to
/// *out (which the caller has Reset to the matching kind), consuming their
/// bytes from *input. Primitive kinds go to the typed lanes via the bulk
/// kernels in common/coding.h; array/map/record values fall back to
/// DecodeValue into the boxed lane's reused slots. Strings are stored as
/// slices into *input: the caller pins the bytes *input views into the
/// batch (ColumnBatch::AddKeepalive). Counts into *tally.
///
/// On success *decoded == n. On failure the cursor is restored to the
/// first byte of the failing value, *decoded holds the values appended
/// before it, and the status message matches what the scalar DecodeValue
/// would have returned for that value — so callers can apply the same
/// truncation-versus-corruption retry logic to either path.
Status DecodeColumnBatch(const Schema& schema, Slice* input, size_t n,
                         ColumnBatch* out, size_t* decoded,
                         SerdeTally* tally);

/// Decoder hardening: a container count read from untrusted bytes is
/// rejected unless it is plausible for the bytes that remain (at most
/// one element per remaining byte, with a floor for containers of
/// zero-byte elements). Keeps fuzzed counts from driving allocations.
inline Status CheckContainerCount(uint64_t count, size_t remaining_bytes) {
  constexpr uint64_t kZeroByteElementFloor = 4096;
  if (count > remaining_bytes && count > kZeroByteElementFloor) {
    return Status::Corruption("container count exceeds remaining input");
  }
  return Status::OK();
}

// Schema-less, self-describing encoding (1 tag byte per value). Used where
// no schema is in scope: intermediate map-output key/value pairs in the
// shuffle, and spill files.

/// Appends the tagged encoding of value to dst. Works for every kind.
void EncodeTaggedValue(const Value& value, Buffer* dst);

/// Decodes one tagged value, consuming from *input.
Status DecodeTaggedValue(Slice* input, Value* out);

/// Size in bytes of the tagged encoding. A pure size walk — no scratch
/// encode, no allocation — so the shuffle can account bytes per pair for
/// free.
size_t TaggedEncodedSize(const Value& value);

/// Platform-stable hash of a value: FNV-1a (seeded; see common/hash.h)
/// streamed over exactly the bytes EncodeTaggedValue would produce, with
/// the splitmix64 finalizer — but computed without materializing the
/// encoding, so hashing a shuffle key allocates nothing. Equal values
/// (Value::Compare == 0) of the same kind hash equal on every platform;
/// this is the stable HashPartitioner contract (DESIGN.md §12), and the
/// pinned-vector test in shuffle_spill_test.cc makes any change to it a
/// deliberate format break.
uint64_t HashTaggedValue(const Value& value, uint64_t seed);

}  // namespace colmr

#endif  // COLMR_SERDE_ENCODING_H_
