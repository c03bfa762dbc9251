#ifndef COLMR_CIF_COLUMN_WRITER_H_
#define COLMR_CIF_COLUMN_WRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "cif/column_stats.h"
#include "cif/options.h"
#include "common/buffer.h"
#include "compress/dictionary.h"
#include "hdfs/mini_hdfs.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

// Column file layout (shared by all four ColumnLayouts):
//   header:  magic "COL1", layout byte, varint row count, length-prefixed
//            column type text, layout parameters
//   body:    per layout, see options.h
//   footer:  zone maps, plus each rowgroup's file offset outside the
//            compressed-block layout (column_stats.h)
//
// Skip-list body (Fig. 6): before every 10th row a skip block of fixed32
// entries — skip1000 (rows ≡ 0 mod 1000), skip100 (mod 100), skip10 —
// each measuring the bytes from the first value after the block to the
// skip block at the corresponding later row (or to end-of-file when fewer
// rows remain). DCSL additionally places a dictionary block
// (fixed32 length + serialized StringDictionary) before the skip block at
// every 1000th row; map keys in that group are varint dictionary ids.

/// Writes one column file. Because HDFS files are append-only, the writer
/// double-buffers the encoded values and emits the file at Close() once
/// every skip offset is known — the load-time cost the paper quantifies
/// in Appendix B.3.
class ColumnFileWriter {
 public:
  static Status Create(MiniHdfs* fs, const std::string& path, Schema::Ptr type,
                       const ColumnOptions& options,
                       std::unique_ptr<ColumnFileWriter>* writer);

  ColumnFileWriter(const ColumnFileWriter&) = delete;
  ColumnFileWriter& operator=(const ColumnFileWriter&) = delete;

  /// Appends one value (must conform to the column type).
  Status Append(const Value& value);

  /// Assembles and writes the file. Must be called exactly once.
  Status Close();

  uint64_t row_count() const { return sizes_.size(); }
  /// Raw encoded bytes buffered so far (pre-compression), used by COF to
  /// decide when to roll to the next split-directory.
  uint64_t raw_bytes() const { return values_.size(); }

 private:
  ColumnFileWriter(std::unique_ptr<FileWriter> file, Schema::Ptr type,
                   const ColumnOptions& options);

  /// Emits the skip-list body; *group_offsets receives the body offset
  /// of every rowgroup's first skip block.
  Status CloseSkipList(Buffer* body,
                       std::vector<uint64_t>* group_offsets) const;
  Status CloseCompressedBlocks(Buffer* body) const;

  std::unique_ptr<FileWriter> file_;
  Schema::Ptr type_;
  ColumnOptions options_;

  Buffer values_;               // concatenated encoded values
  std::vector<uint32_t> sizes_; // per-value encoded size
  // DCSL state: one dictionary per 1000-row group, built incrementally.
  std::vector<StringDictionary> dicts_;
  // Zone-map accumulation (DESIGN.md §13), serialized as the footer.
  ColumnStatsCollector stats_;
};

}  // namespace colmr

#endif  // COLMR_CIF_COLUMN_WRITER_H_
