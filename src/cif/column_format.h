#ifndef COLMR_CIF_COLUMN_FORMAT_H_
#define COLMR_CIF_COLUMN_FORMAT_H_

#include <cstdint>

namespace colmr {

// Shared on-disk constants of the CIF column file format.

inline constexpr char kCifColumnMagic[4] = {'C', 'O', 'L', '1'};

/// Skip-list intervals (paper Section 5.2: "N is typically configured for
/// 10, 100, and 1000 record skips").
inline constexpr uint64_t kCifSkip0 = 10;
inline constexpr uint64_t kCifSkip1 = 100;
inline constexpr uint64_t kCifSkip2 = 1000;

/// Rows covered by one DCSL dictionary block (aligned with kCifSkip2 so
/// dictionary blocks sit on skip1000 boundaries).
inline constexpr uint64_t kCifDictInterval = 1000;

/// Conventional file names inside a split-directory.
inline constexpr char kCifSchemaFileName[] = "_schema";

// Zone-map stats footer (DESIGN.md §13), appended after the column body
// as [payload][fixed32 payload length][magic]. Files written before the
// footer existed lack the magic and simply report no stats.

inline constexpr char kCifStatsMagic[4] = {'C', 'S', 'T', '1'};
/// v1 footers carry zone maps only. v2 adds each rowgroup's file offset
/// and ends the payload with its CRC-32; compressed-block columns keep
/// writing v1, because their rowgroups do not start on a block.
inline constexpr uint64_t kCifStatsV1 = 1;
inline constexpr uint64_t kCifStatsV2 = 2;

/// Rows per stats rowgroup — aligned with kCifSkip2 so a pruned rowgroup
/// is exactly one skip1000 jump.
inline constexpr uint64_t kCifStatsRowGroup = kCifSkip2;

/// String min/max bounds stored in the footer are truncated to at most
/// this many bytes (plus one for the bumped max byte).
inline constexpr uint64_t kCifStatsStringPrefix = 64;

}  // namespace colmr

#endif  // COLMR_CIF_COLUMN_FORMAT_H_
