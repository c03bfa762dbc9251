#include "cif/column_stats.h"

#include <cmath>
#include <cstring>

#include "cif/column_format.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

bool IsStringy(TypeKind kind) {
  return kind == TypeKind::kString || kind == TypeKind::kBytes;
}

bool TrackableKind(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool:
    case TypeKind::kInt32:
    case TypeKind::kInt64:
    case TypeKind::kDouble:
    case TypeKind::kString:
    case TypeKind::kBytes:
      return true;
    default:
      return false;
  }
}

/// Bounds a string min for the footer: a plain prefix is still <= every
/// value it bounds.
Value TruncatedMin(const Value& min) {
  if (!IsStringy(min.kind()) ||
      min.string_value().size() <= kCifStatsStringPrefix) {
    return min;
  }
  return Value::String(min.string_value().substr(0, kCifStatsStringPrefix));
}

/// Bounds a string max: the prefix alone would under-bound, so the last
/// non-0xFF byte of the kept prefix is incremented and the rest dropped.
/// Returns false when no byte can be bumped (all-0xFF prefix) — the max
/// is then omitted entirely.
bool TruncatedMax(const Value& max, Value* out) {
  if (!IsStringy(max.kind()) ||
      max.string_value().size() <= kCifStatsStringPrefix) {
    *out = max;
    return true;
  }
  std::string prefix = max.string_value().substr(0, kCifStatsStringPrefix);
  for (size_t i = prefix.size(); i-- > 0;) {
    if (static_cast<unsigned char>(prefix[i]) != 0xFF) {
      prefix[i] = static_cast<char>(static_cast<unsigned char>(prefix[i]) + 1);
      prefix.resize(i + 1);
      *out = Value::String(std::move(prefix));
      return true;
    }
  }
  return false;
}

}  // namespace

void ColumnStatsCollector::Observe(const Value& value) {
  const uint64_t g = rows_ / kCifStatsRowGroup;
  ++rows_;
  if (g == groups_.size()) groups_.emplace_back();
  Group& group = groups_[g];
  ++group.stats.values;
  if (value.is_null()) {
    ++group.stats.nulls;
    return;
  }
  if (!TrackableKind(value.kind()) ||
      (value.kind() == TypeKind::kDouble &&
       std::isnan(value.double_value()))) {
    group.tracked = false;
    return;
  }
  if (!group.tracked) return;
  if (!group.has_any) {
    group.stats.min = value;
    group.stats.max = value;
    group.has_any = true;
    return;
  }
  if (PrimitiveLess(value, group.stats.min)) {
    group.stats.min = value;
  } else if (PrimitiveLess(group.stats.max, value)) {
    group.stats.max = value;
  }
}

void ColumnStatsCollector::AppendFooter(
    const std::vector<uint64_t>* group_offsets, Buffer* dst) const {
  Buffer payload;
  PutVarint64(&payload, group_offsets != nullptr ? kCifStatsV2 : kCifStatsV1);
  PutVarint64(&payload, kCifStatsRowGroup);
  PutVarint64(&payload, groups_.size());
  for (const Group& group : groups_) {
    PutVarint64(&payload, group.stats.values);
    PutVarint64(&payload, group.stats.nulls);
    bool has_min = group.tracked && group.has_any;
    bool has_max = has_min;
    Value min, max;
    if (has_min) {
      min = TruncatedMin(group.stats.min);
      has_max = TruncatedMax(group.stats.max, &max);
    }
    payload.PushBack(static_cast<char>((has_min ? 1 : 0) |
                                       (has_max ? 2 : 0)));
    if (has_min) EncodeTaggedValue(min, &payload);
    if (has_max) EncodeTaggedValue(max, &payload);
  }
  if (group_offsets != nullptr) {
    uint64_t previous = 0;
    for (uint64_t offset : *group_offsets) {
      PutVarint64(&payload, offset - previous);
      previous = offset;
    }
    PutFixed32(&payload, Crc32(payload.AsSlice()));
  }
  dst->Append(payload.AsSlice());
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  dst->Append(Slice(kCifStatsMagic, 4));
}

namespace {

/// Parses a footer payload that starts `footer_offset` bytes into its
/// file; any malformation fails the parse (the caller then reports "no
/// stats present").
Status ParseStatsPayload(Slice in, uint64_t footer_offset,
                         ColumnFileStats* out) {
  const Slice payload = in;
  uint64_t version = 0;
  COLMR_RETURN_IF_ERROR(GetVarint64(&in, &version));
  if (version == kCifStatsV2) {
    // The CRC guards the bounds and offsets: a flipped bound could prune
    // a matching row, and a flipped offset misalign decoding.
    if (in.size() < 4) return Status::Corruption("cif stats: no checksum");
    Slice stored(in.data() + in.size() - 4, 4);
    uint32_t crc = 0;
    COLMR_RETURN_IF_ERROR(GetFixed32(&stored, &crc));
    if (Crc32(payload.Prefix(payload.size() - 4)) != crc) {
      return Status::Corruption("cif stats: checksum mismatch");
    }
    in = in.Prefix(in.size() - 4);
  } else if (version != kCifStatsV1) {
    return Status::Corruption("cif stats: unknown footer version");
  }
  COLMR_RETURN_IF_ERROR(GetVarint64(&in, &out->rows_per_group));
  if (out->rows_per_group == 0) {
    return Status::Corruption("cif stats: zero rows_per_group");
  }
  uint64_t n_groups = 0;
  COLMR_RETURN_IF_ERROR(GetVarint64(&in, &n_groups));
  // Each group costs at least 3 payload bytes; rejects fuzzed counts.
  if (n_groups > in.size()) {
    return Status::Corruption("cif stats: group count exceeds payload");
  }
  out->groups.resize(n_groups);
  bool file_has_min = true;
  bool file_has_max = true;
  for (uint64_t g = 0; g < n_groups; ++g) {
    ColumnStats& stats = out->groups[g];
    COLMR_RETURN_IF_ERROR(GetVarint64(&in, &stats.values));
    COLMR_RETURN_IF_ERROR(GetVarint64(&in, &stats.nulls));
    if (stats.nulls > stats.values) {
      return Status::Corruption("cif stats: nulls exceed values");
    }
    if (in.empty()) return Status::Corruption("cif stats: truncated group");
    const uint8_t flags = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    stats.has_min = (flags & 1) != 0;
    stats.has_max = (flags & 2) != 0;
    if (stats.has_min) {
      COLMR_RETURN_IF_ERROR(DecodeTaggedValue(&in, &stats.min));
    }
    if (stats.has_max) {
      COLMR_RETURN_IF_ERROR(DecodeTaggedValue(&in, &stats.max));
    }
    // Merge into the file-level aggregate. Groups with no non-null
    // values constrain nothing; any other group missing a bound makes
    // the file bound unknown.
    out->file.values += stats.values;
    out->file.nulls += stats.nulls;
    if (stats.values > stats.nulls) {
      if (!stats.has_min) {
        file_has_min = false;
      } else if (!out->file.has_min) {
        out->file.min = stats.min;
        out->file.has_min = true;
      } else if (PrimitiveLess(stats.min, out->file.min)) {
        out->file.min = stats.min;
      }
      if (!stats.has_max) {
        file_has_max = false;
      } else if (!out->file.has_max) {
        out->file.max = stats.max;
        out->file.has_max = true;
      } else if (PrimitiveLess(out->file.max, stats.max)) {
        out->file.max = stats.max;
      }
    }
  }
  out->file.has_min = out->file.has_min && file_has_min;
  out->file.has_max = out->file.has_max && file_has_max;
  if (version == kCifStatsV2) {
    // Advisory: a table running past the footer's start is dropped, not
    // trusted. An offset may equal it: a null-typed column's values take
    // no bytes, so its rows all resume where the body ends. Deltas are
    // unsigned, so offsets never decrease unless they wrap, which the
    // same bound rules out.
    bool usable = true;
    uint64_t offset = 0;
    out->group_offsets.reserve(n_groups);
    for (uint64_t g = 0; g < n_groups; ++g) {
      uint64_t delta = 0;
      COLMR_RETURN_IF_ERROR(GetVarint64(&in, &delta));
      usable = usable && delta <= footer_offset - offset;
      if (usable) {
        offset += delta;
        out->group_offsets.push_back(offset);
      }
    }
    if (!usable) out->group_offsets.clear();
  }
  if (!in.empty()) {
    return Status::Corruption("cif stats: trailing payload bytes");
  }
  return Status::OK();
}

}  // namespace

Status ReadColumnStats(MiniHdfs* fs, const std::string& path,
                       const ReadContext& context, ColumnFileStats* out,
                       bool* present) {
  *present = false;
  *out = ColumnFileStats();
  std::unique_ptr<FileReader> reader;
  if (!fs->Open(path, context, &reader).ok()) return Status::OK();
  const uint64_t size = reader->size();
  if (size < 8) return Status::OK();
  Slice trailer;
  std::shared_ptr<const std::string> pin;
  COLMR_RETURN_IF_ERROR(reader->Read(size - 8, 8, &trailer, &pin));
  if (std::memcmp(trailer.data() + 4, kCifStatsMagic, 4) != 0) {
    return Status::OK();  // pre-stats file: no footer
  }
  uint32_t payload_len = 0;
  if (!GetFixed32(&trailer, &payload_len).ok()) return Status::OK();
  if (payload_len > size - 8) return Status::OK();
  Slice payload;
  COLMR_RETURN_IF_ERROR(
      reader->Read(size - 8 - payload_len, payload_len, &payload, &pin));
  ColumnFileStats parsed;
  if (!ParseStatsPayload(payload, size - 8 - payload_len, &parsed).ok()) {
    return Status::OK();
  }
  *out = std::move(parsed);
  *present = true;
  return Status::OK();
}

}  // namespace colmr
