#ifndef COLMR_CIF_COLUMN_STATS_H_
#define COLMR_CIF_COLUMN_STATS_H_

#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "serde/predicate.h"
#include "serde/value.h"

namespace colmr {

// Zone-map statistics footer of a CIF column file (DESIGN.md §13).
//
// Layout, appended after the column body:
//   payload:  varint version (1 or 2)
//             varint rows_per_group (kCifStatsRowGroup)
//             varint n_groups
//             per group: varint values, varint nulls, flags byte
//                        (bit0 = has_min, bit1 = has_max),
//                        [tagged min], [tagged max]
//             v2 only: per group, varint delta of its file offset from
//                      the previous group's (the first from 0), then
//                      fixed32 CRC-32 of every payload byte before it
//   trailer:  fixed32 payload length, magic "CST1"
//
// Min/max use the self-describing tagged encoding so the footer can be
// read without the column schema. A group's offset is where its first
// row resumes: its first skip block (DCSL: its dictionary block), or its
// first value in a plain column. The footer is versioned and strictly
// advisory: files written before it existed — or whose trailer or CRC
// fails any check — simply report no stats, and scans over them never
// prune.

/// Per-rowgroup accumulator the column writer feeds one value at a time.
/// Bool/int/double/string/bytes columns get min/max; containers and
/// null-typed columns carry counts only. A NaN double drops min/max for
/// its whole group (and therefore the file), and long strings are
/// truncated to a bounded prefix at serialization time, keeping min a
/// lower bound (plain prefix) and max an upper bound (prefix with the
/// last byte bumped; all-0xFF prefixes drop the max instead).
class ColumnStatsCollector {
 public:
  /// Accounts one appended value to the current rowgroup.
  void Observe(const Value& value);

  /// Serializes the footer (payload + trailer) for the rows seen so far:
  /// v2 with `group_offsets`, one per rowgroup, or v1 when it is null.
  void AppendFooter(const std::vector<uint64_t>* group_offsets,
                    Buffer* dst) const;

 private:
  struct Group {
    ColumnStats stats;
    bool tracked = true;   // min/max meaningful (no NaN, primitive kind)
    bool has_any = false;  // saw at least one non-null value
  };

  std::vector<Group> groups_;
  uint64_t rows_ = 0;
};

/// Parsed footer of one column file. `file` is the merge of `groups`:
/// counts are summed, and a file-level bound exists only when every group
/// with non-null values carries the corresponding bound.
struct ColumnFileStats {
  uint64_t rows_per_group = 0;
  std::vector<ColumnStats> groups;
  ColumnStats file;
  /// v2: each group's file offset, non-decreasing (null-typed values are
  /// zero bytes wide) and at most the footer's start. Empty for v1
  /// footers and for a v2 table failing those checks.
  std::vector<uint64_t> group_offsets;
};

/// Reads the stats footer of the column file at `path` with a positioned
/// tail read (the sequential scan cursor is untouched). Stats are
/// advisory: a missing file or footer, an old file, a CRC mismatch and a
/// corrupt or unknown-version payload all report *present = false with an
/// OK status, so no file's bytes can fail a scan through its zone maps.
/// A read that fails (every replica erred, or none is left) returns its
/// Status, so a map task retries its attempt rather than scan unpruned.
Status ReadColumnStats(MiniHdfs* fs, const std::string& path,
                       const ReadContext& context, ColumnFileStats* out,
                       bool* present);

}  // namespace colmr

#endif  // COLMR_CIF_COLUMN_STATS_H_
