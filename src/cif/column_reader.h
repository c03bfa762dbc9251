#ifndef COLMR_CIF_COLUMN_READER_H_
#define COLMR_CIF_COLUMN_READER_H_

#include <memory>
#include <string>

#include "cif/column_stats.h"
#include "cif/options.h"
#include "common/buffer.h"
#include "compress/dictionary.h"
#include "hdfs/reader.h"
#include "obs/metrics.h"
#include "serde/batch.h"
#include "serde/encoding.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

/// Reads one CIF column file, in any of the four layouts. The reader is a
/// cursor over rows: NextBatch(n) decodes the next n values and advances —
/// one-row batches included, the only decode path; SkipRows(n) advances
/// without materializing — through skip blocks, whole compressed blocks,
/// or a windowed walk over the values' bytes, depending on the layout.
/// This is the skip() primitive LazyRecord calls as skip(curPos - lastPos)
/// (paper Section 5.2).
class ColumnFileReader {
 public:
  static Status Open(MiniHdfs* fs, const std::string& path,
                     const ReadContext& context,
                     std::unique_ptr<ColumnFileReader>* reader);

  ColumnFileReader(const ColumnFileReader&) = delete;
  ColumnFileReader& operator=(const ColumnFileReader&) = delete;

  /// Batch read (DESIGN.md §10): resets *batch and fills it with the next
  /// min(n, remaining) rows, advancing the cursor past them. Strings are
  /// slices into the bytes they decode from — the buffered window, or a
  /// decompressed block — which the batch pins. Returns OK with an empty
  /// batch at end of column. On error, the batch holds the rows decoded
  /// before the failing value (the cursor rests on it), and the status is
  /// the same whatever n is: one-row batches fail where bulk ones do.
  Status NextBatch(uint64_t n, ColumnBatch* batch);

  /// Advances n rows (clamped to the end) without materializing values.
  /// Given rowgroup offsets, a skip into a later rowgroup first jumps to
  /// the last rowgroup start at or before its target, when
  /// BufferedReader::TryJump finds the jump free, and walks the rest.
  Status SkipRows(uint64_t n);

  /// Adopts the v2 footer's rowgroup offsets for SkipRows. They are
  /// advisory: ignored unless there is one per rowgroup, starting at the
  /// first body byte, and always for compressed-block columns.
  void UseRowgroupOffsets(const ColumnFileStats& footer);

  uint64_t row_count() const { return row_count_; }
  uint64_t current_row() const { return current_row_; }
  /// File offset of the byte cursor.
  uint64_t byte_offset() const { return input_->position(); }
  const Schema::Ptr& type() const { return type_; }
  ColumnLayout layout() const { return layout_; }

 private:
  ColumnFileReader() = default;

  Status ParseHeader();
  /// NextBatch and SkipRows up to the publish: both count into the
  /// tallies below, which the public calls publish as they return.
  Status DecodeBatch(uint64_t n, ColumnBatch* batch);
  Status Skip(uint64_t n);
  void PublishTallies();
  /// The jump half of SkipRows: moves to the last rowgroup start at or
  /// before `target` row when the offsets and TryJump allow, and returns
  /// the rows it passed (0 when it stayed).
  uint64_t JumpToward(uint64_t target);
  /// Skip-list layouts: parses the boundary structure (dictionary block +
  /// skip entries) when the cursor sits on one.
  Status ConsumeBoundary();
  /// Block layout: reads the next block header and decompresses it.
  Status LoadBlock();
  /// Block layout: decompresses the block whose header was just read.
  Status DecompressBlock(uint64_t n_records, uint64_t compressed_len);
  /// Uncompressed layouts: runs `step(&cursor, left, &done)` over peeked
  /// windows until `count` rows are done, consuming the bytes each step
  /// passes and advancing the row cursor. A failure that could be a
  /// value straddling the window's edge retries over a grown window.
  template <typename StepFn>
  Status WalkWindows(uint64_t count, StepFn step);
  /// Windowed decode of `count` rows into *batch (plain and skip-list
  /// segments / DCSL segments), and windowed skip of `count` rows.
  Status DecodeSegmentBatch(uint64_t count, ColumnBatch* batch);
  Status DecodeDcslSegmentBatch(uint64_t count, ColumnBatch* batch);
  Status SkipSegment(uint64_t count);
  /// Decodes one DCSL map into *out, reusing its storage.
  Status DecodeDcslMap(Slice* cursor, Value* out);

  std::unique_ptr<BufferedReader> input_;
  Schema::Ptr type_;
  ColumnLayout layout_ = ColumnLayout::kPlain;
  uint64_t row_count_ = 0;
  uint64_t current_row_ = 0;
  uint64_t body_start_ = 0;
  /// File offset of each rowgroup's first row; empty = walk every skip.
  std::vector<uint64_t> group_offsets_;

  // Skip-list state.
  bool boundary_done_ = false;
  uint64_t skip10_ = 0;
  uint64_t skip100_ = 0;
  uint64_t skip1000_ = 0;
  StringDictionary dict_;  // DCSL: dictionary of the current 1000-row group

  // Compressed-block state.
  const Codec* codec_ = nullptr;
  bool block_loaded_ = false;
  std::shared_ptr<const std::string> block_;  // decompressed bytes
  Slice block_cursor_;
  uint64_t block_rows_left_ = 0;

  // Span sink for NextBatch (nullptr = tracing off).
  TraceCollector* trace_ = nullptr;

  // Tallies of the cif.scan.* counters, resolved once at Open from the
  // ReadContext registry (the Figure 10 "skip blocks skipped / bytes not
  // read" counters live here), and of the serde.* values and batches this
  // reader decodes and skips. Every map thread shares those counters, so
  // the per-value and per-segment paths count here and each SkipRows /
  // NextBatch call publishes once (DESIGN.md §8).
  CounterTally m_values_read_;
  CounterTally m_values_skipped_;
  CounterTally m_rows_skipped_;
  CounterTally m_skip_blocks_;
  CounterTally m_skipped_bytes_;
  CounterTally m_jumps_;
  CounterTally m_jumped_bytes_;
  CounterTally m_blocks_skipped_;
  CounterTally m_blocks_decompressed_;
  CounterTally m_decompressed_bytes_;
  SerdeTally serde_;
};

}  // namespace colmr

#endif  // COLMR_CIF_COLUMN_READER_H_
