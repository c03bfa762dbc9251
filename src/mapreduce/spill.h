#ifndef COLMR_MAPREDUCE_SPILL_H_
#define COLMR_MAPREDUCE_SPILL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "compress/codec.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "serde/value.h"

namespace colmr {

class TraceCollector;

// Sort-merge shuffle (DESIGN.md §12) — Hadoop's map-side sort (io.sort.mb /
// io.sort.factor), the one path every job with a reducer takes. A map
// task's output goes into a MapOutputBuffer. Bounded
// (JobConfig::sort_buffer_bytes > 0), the buffer sorts by (partition, key)
// whenever it fills, optionally folds through the combiner, and writes one
// *run* file; unbounded (0), it never spills and leaves one *resident* run
// in memory. The reduce side streams each partition through a heap-based
// k-way merge over every run instead of materializing the partition.
//
// Run file byte layout (all integers varint/fixed little-endian per
// common/coding.h):
//
//   run      := segment*          one per partition, ascending partition
//                                 order; an empty partition occupies zero
//                                 bytes (its SpillSegment records that)
//   segment  := block*
//   block    := varint raw_len    bytes of `raw` before compression
//               varint stored_len bytes of `stored` as written
//               fixed32 crc       CRC-32 of `stored`
//               stored            codec(raw) when codec != kNone, else raw
//   raw      := record*
//   record   := varint key_len  | tagged key   (serde EncodeTaggedValue)
//               varint value_len | tagged value
//
// Blocks never span segments, so a reader of one partition touches only
// that partition's byte range. Segment offsets/lengths live in the
// in-memory SpillRun — runs are job-transient scratch, re-created from
// scratch by any re-run, so nothing needs to be recoverable from the file
// alone. Within a run file each segment is key-sorted (ties keep buffer
// order); a resident segment keeps emit order until the reducer that owns
// it sorts it the same way. The merge layer restores the global stable
// order via sequence-numbered cursors (see SpillMerger).

/// Emitter that appends into a vector: map-only job output, reducer output
/// and combiner output.
class VectorEmitter final : public Emitter {
 public:
  void Emit(Value key, Value value) override {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  std::vector<std::pair<Value, Value>>& pairs() { return pairs_; }

 private:
  std::vector<std::pair<Value, Value>> pairs_;
};

/// Seed of the stable shuffle partitioner. Fixed; changing it reassigns
/// every key to a new partition and is an output-format break (the
/// pinned-vector test in shuffle_spill_test.cc will say so).
inline constexpr uint64_t kShufflePartitionSeed = 0x636f6c6d72736866ull;

/// The stable HashPartitioner contract: partition of a key is
/// HashTaggedValue(key, kShufflePartitionSeed) % num_partitions —
/// identical on every platform/stdlib, allocation-free. Declared here,
/// implemented in spill.cc next to the run format it feeds.
uint32_t ShufflePartition(const Value& key, uint32_t num_partitions);

/// One partition's range inside a run: bytes of a run file, or pairs of a
/// resident run.
struct SpillSegment {
  uint64_t offset = 0;    // first byte in the file; first pair if resident
  uint64_t bytes = 0;     // stored length (framing + blocks); 0 if resident
  uint64_t records = 0;   // KV records in the segment
  /// Tagged-encoding bytes of the segment's keys+values (excluding the
  /// record length prefixes and block framing): the unit map_output_bytes
  /// and shuffle_bytes are accounted in, so resident and spilled runs
  /// report comparable byte counts.
  uint64_t kv_bytes = 0;
};

/// One partitioned run: a sorted file on scratch storage, or resident.
struct SpillRun {
  std::string path;  // empty when resident
  CodecType codec = CodecType::kNone;
  std::vector<SpillSegment> segments;  // indexed by partition
  /// A resident run's pairs, grouped by partition in emit order; null for
  /// a run file. Each segment has exactly one consumer, which sorts and
  /// drains it in place (SpillSegmentCursor::Open), so concurrent
  /// reducers touch disjoint ranges and a resident run is read only once.
  std::unique_ptr<std::vector<std::pair<Value, Value>>> resident;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const SpillSegment& s : segments) total += s.bytes;
    return total;
  }
  uint64_t TotalKvBytes() const {
    uint64_t total = 0;
    for (const SpillSegment& s : segments) total += s.kv_bytes;
    return total;
  }
};

/// Writes one run file. Append() must be called with non-decreasing
/// partition ids and key-sorted records within each partition — the
/// caller (MapOutputBuffer, MergeSpillRuns) owns the sort. Write faults
/// surface through the underlying FileWriter exactly as reduce-output
/// writes do: the writer goes sticky-bad and Close returns the first
/// error, so a faulted spill fails the whole map attempt and the retry
/// machinery re-executes it on a fresh node.
class SpillRunWriter {
 public:
  static Status Open(MiniHdfs* fs, const std::string& path,
                     const WriteContext& context, CodecType codec,
                     int num_partitions,
                     std::unique_ptr<SpillRunWriter>* writer);

  Status Append(int partition, const Value& key, const Value& value);

  /// Flushes the tail block, seals the file, and fills *out.
  Status Close(SpillRun* out);

 private:
  SpillRunWriter(std::string path, std::unique_ptr<FileWriter> file,
                 CodecType codec, int num_partitions);

  Status FlushBlock();

  std::string path_;
  std::unique_ptr<FileWriter> file_;
  const Codec* codec_;
  CodecType codec_type_;
  std::vector<SpillSegment> segments_;
  int current_partition_ = 0;
  uint64_t offset_ = 0;  // file offset of the next byte to be written
  Buffer block_;         // raw bytes of the open block
  Buffer scratch_;       // per-record tagged-encoding scratch
  Buffer stored_;        // compression scratch
};

/// Streams the records of one partition's segment. From a run file it
/// reads block by block — memory held is one block's raw bytes plus a
/// view of its stored bytes, never the segment — and CRC mismatches and
/// truncation surface as Corruption through status(). A resident segment
/// is stable-sorted by key at Open and drained by moving its pairs out.
class SpillSegmentCursor {
 public:
  static Status Open(MiniHdfs* fs, const SpillRun& run, int partition,
                     const ReadContext& context,
                     std::unique_ptr<SpillSegmentCursor>* cursor);

  /// Advances to the next record; false at segment end or on error
  /// (check status()). key()/value() are valid until the next call.
  bool Next();

  const Value& key() const { return key_; }
  const Value& value() const { return value_; }
  const Status& status() const { return status_; }

 private:
  using Pair = std::pair<Value, Value>;

  SpillSegmentCursor(std::unique_ptr<FileReader> reader, const SpillRun& run,
                     const SpillSegment& segment);
  SpillSegmentCursor(Pair* begin, Pair* end)
      : next_pair_(begin), end_pair_(end) {}

  bool FillBlock();  // loads the next block into cursor_
  /// Decodes one length-prefixed tagged value of the record at cursor_.
  bool DecodeField(const char* what, Value* out);

  std::unique_ptr<FileReader> reader_;  // null for a resident segment
  const Codec* codec_ = nullptr;
  uint64_t pos_ = 0;  // next unread file offset
  uint64_t end_ = 0;  // one past the segment's last byte
  /// Keeps the stored bytes of the current block alive: cursor_ views
  /// them when the run is uncompressed.
  std::shared_ptr<const std::string> stored_pin_;
  Buffer raw_;
  Slice cursor_;  // unread bytes of the current block
  Pair* next_pair_ = nullptr;  // resident: the unread pairs
  Pair* end_pair_ = nullptr;
  Value key_;
  Value value_;
  Status status_;
};

/// Heap-based k-way merge over segment cursors. Pop order is
/// (key ascending, sequence ascending, in-cursor position) — with
/// sequence numbers assigned in (map task, spill index) order this is
/// exactly the order a stable sort of the concatenated map output gives,
/// which is what makes output byte-identical at every sort buffer size
/// (DESIGN.md §12 determinism argument).
class SpillMerger {
 public:
  /// Takes ownership and reads the cursor's first record into the heap.
  /// Cursors must not have been advanced yet.
  void Add(std::unique_ptr<SpillSegmentCursor> cursor, uint64_t sequence);

  /// Advances to the next (key, value); false when drained or on error.
  bool Next();

  const Value& key() const { return current_->key(); }
  const Value& value() const { return current_->value(); }
  const Status& status() const { return status_; }

 private:
  struct HeapEntry {
    SpillSegmentCursor* cursor;
    uint64_t sequence;
  };
  /// Min-heap ordering (std::push_heap builds a max-heap, so this is the
  /// inverted comparison).
  static bool HeapAfter(const HeapEntry& a, const HeapEntry& b);

  void Push(SpillSegmentCursor* cursor, uint64_t sequence);

  std::vector<std::unique_ptr<SpillSegmentCursor>> owned_;
  std::vector<HeapEntry> heap_;
  SpillSegmentCursor* current_ = nullptr;
  uint64_t current_sequence_ = 0;
  Status status_;
};

/// Drains `merger`, calling fn(key, values) once per run of equal keys in
/// merge order — the one grouping loop behind reducers and merge-time
/// combining. Returns fn's first error, else the merger's status.
Status ForEachKeyGroup(
    SpillMerger* merger,
    const std::function<Status(const Value& key,
                               const std::vector<Value>& values)>& fn);

/// Merges a group of runs (ascending sequence order) into one run at
/// `path`, partition by partition, optionally folding equal-key groups
/// through the combiner (which must preserve the key — the Hadoop
/// combiner contract; its output stays in the group's partition). Sets
/// *segments_merged to the number of non-empty input segments consumed.
Status MergeSpillRuns(MiniHdfs* fs, const std::vector<const SpillRun*>& runs,
                      const std::string& path, const WriteContext& write_ctx,
                      const ReadContext& read_ctx, CodecType codec,
                      int num_partitions, const ReduceFn* combiner,
                      SpillRun* out, uint64_t* segments_merged);

/// The map-side accumulator: an Emitter that buffers (partition, key,
/// value) triples up to `sort_buffer_bytes` of tagged-encoding payload,
/// then sorts, combines, and spills a run; at 0 the buffer is unbounded
/// and never spills. Spill I/O errors latch into status() and make
/// further Emits no-ops, so the map loop can poll and abort the attempt —
/// mirroring FileWriter's sticky-failure contract.
class MapOutputBuffer final : public Emitter {
 public:
  struct Options {
    MiniHdfs* fs = nullptr;
    /// Directory the run files land in (the task attempt's private
    /// scratch: runs are torn down with it on abort/commit).
    std::string scratch_dir;
    WriteContext write_context;
    int num_partitions = 1;
    uint64_t sort_buffer_bytes = 0;  // 0 = unbounded
    const ReduceFn* combiner = nullptr;  // may be null
    CodecType codec = CodecType::kNone;
    TraceCollector* trace = nullptr;  // may be null
  };

  explicit MapOutputBuffer(Options options);

  void Emit(Value key, Value value) override;

  /// Spills whatever the buffer still holds — or, unbounded, turns it into
  /// one resident run — so every task that emitted anything owns at least
  /// one run. Returns the sticky error, if any.
  Status Finish();

  const Status& status() const { return status_; }
  std::vector<SpillRun> TakeRuns() { return std::move(runs_); }

  uint64_t spills() const { return spills_; }
  /// File bytes written across runs (framing + compression included).
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  /// Post-combine records / tagged KV bytes across all runs — the task's
  /// map-output accounting.
  uint64_t output_records() const { return output_records_; }
  uint64_t output_kv_bytes() const { return output_kv_bytes_; }
  /// High-water mark of buffered tagged bytes: the bounded-memory claim,
  /// at most sort_buffer_bytes plus one record (the whole output when
  /// unbounded).
  uint64_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  struct BufferedPair {
    uint32_t partition;
    Value key;
    Value value;
  };

  /// Stable-sorts the buffer by (partition, key), then folds it through
  /// the combiner, if any.
  void SortAndCombine();
  Status SortAndSpill();
  /// Unbounded Finish(): the buffer becomes one resident run.
  void KeepResident();

  Options options_;
  std::vector<BufferedPair> entries_;
  uint64_t buffer_bytes_ = 0;
  uint64_t peak_buffer_bytes_ = 0;
  std::vector<SpillRun> runs_;
  uint64_t spills_ = 0;
  uint64_t spilled_bytes_ = 0;
  uint64_t output_records_ = 0;
  uint64_t output_kv_bytes_ = 0;
  Status status_;
};

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_SPILL_H_
