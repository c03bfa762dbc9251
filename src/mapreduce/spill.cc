#include "mapreduce/spill.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/coding.h"
#include "common/crc32.h"
#include "obs/trace.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

/// Raw bytes a block accumulates before it is framed and flushed. Small
/// enough that a segment reader holds two blocks' worth of memory at
/// most; large enough that varint+crc framing is amortized away. A
/// single record larger than this becomes its own oversized block —
/// blocks frame records, they never split one.
constexpr size_t kSpillBlockBytes = 64 * 1024;

}  // namespace

uint32_t ShufflePartition(const Value& key, uint32_t num_partitions) {
  assert(num_partitions > 0);
  return static_cast<uint32_t>(HashTaggedValue(key, kShufflePartitionSeed) %
                               num_partitions);
}

// ---- SpillRunWriter ----

SpillRunWriter::SpillRunWriter(std::string path,
                               std::unique_ptr<FileWriter> file,
                               CodecType codec, int num_partitions)
    : path_(std::move(path)),
      file_(std::move(file)),
      codec_(GetCodec(codec)),
      codec_type_(codec),
      segments_(static_cast<size_t>(num_partitions)) {}

Status SpillRunWriter::Open(MiniHdfs* fs, const std::string& path,
                            const WriteContext& context, CodecType codec,
                            int num_partitions,
                            std::unique_ptr<SpillRunWriter>* writer) {
  if (GetCodec(codec) == nullptr) {
    return Status::InvalidArgument("spill: unknown codec");
  }
  if (num_partitions <= 0) {
    return Status::InvalidArgument("spill: num_partitions must be positive");
  }
  std::unique_ptr<FileWriter> file;
  COLMR_RETURN_IF_ERROR(fs->Create(path, context, &file));
  writer->reset(
      new SpillRunWriter(path, std::move(file), codec, num_partitions));
  return Status::OK();
}

Status SpillRunWriter::Append(int partition, const Value& key,
                              const Value& value) {
  if (partition < current_partition_ ||
      partition >= static_cast<int>(segments_.size())) {
    return Status::InvalidArgument("spill: partition out of order");
  }
  if (partition != current_partition_) {
    // Blocks never span segments: seal the open block so the previous
    // partition's byte range ends here.
    COLMR_RETURN_IF_ERROR(FlushBlock());
    current_partition_ = partition;
  }
  SpillSegment& seg = segments_[static_cast<size_t>(partition)];
  if (seg.records == 0 && block_.empty()) seg.offset = offset_;

  scratch_.Clear();
  EncodeTaggedValue(key, &scratch_);
  const size_t key_len = scratch_.size();
  EncodeTaggedValue(value, &scratch_);
  const size_t value_len = scratch_.size() - key_len;

  PutVarint64(&block_, key_len);
  block_.Append(scratch_.AsSlice().Prefix(key_len));
  PutVarint64(&block_, value_len);
  block_.Append(Slice(scratch_.data() + key_len, value_len));
  seg.records += 1;
  seg.kv_bytes += scratch_.size();

  if (block_.size() >= kSpillBlockBytes) {
    COLMR_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status SpillRunWriter::FlushBlock() {
  if (block_.empty()) return Status::OK();
  Slice stored = block_.AsSlice();
  if (codec_type_ != CodecType::kNone) {
    stored_.Clear();
    COLMR_RETURN_IF_ERROR(codec_->Compress(block_.AsSlice(), &stored_));
    stored = stored_.AsSlice();
  }
  Buffer header;
  PutVarint64(&header, block_.size());
  PutVarint64(&header, stored.size());
  PutFixed32(&header, Crc32(stored));
  file_->Append(header.AsSlice());
  file_->Append(stored);
  const uint64_t wrote = header.size() + stored.size();
  segments_[static_cast<size_t>(current_partition_)].bytes += wrote;
  offset_ += wrote;
  block_.Clear();
  return file_->status();
}

Status SpillRunWriter::Close(SpillRun* out) {
  COLMR_RETURN_IF_ERROR(FlushBlock());
  COLMR_RETURN_IF_ERROR(file_->Close());
  out->path = path_;
  out->codec = codec_type_;
  out->segments = std::move(segments_);
  return Status::OK();
}

// ---- SpillSegmentCursor ----

SpillSegmentCursor::SpillSegmentCursor(std::unique_ptr<FileReader> reader,
                                       const SpillRun& run,
                                       const SpillSegment& segment)
    : reader_(std::move(reader)),
      codec_(GetCodec(run.codec)),
      pos_(segment.offset),
      end_(segment.offset + segment.bytes) {}

Status SpillSegmentCursor::Open(MiniHdfs* fs, const SpillRun& run,
                                int partition, const ReadContext& context,
                                std::unique_ptr<SpillSegmentCursor>* cursor) {
  if (partition < 0 || partition >= static_cast<int>(run.segments.size())) {
    return Status::InvalidArgument("spill: partition out of range");
  }
  const SpillSegment& segment = run.segments[static_cast<size_t>(partition)];
  if (run.resident != nullptr) {
    // This cursor is the segment's one consumer, so it sorts the segment
    // in place — stably, keeping equal keys in emit order as a spill does.
    Pair* begin = run.resident->data() + segment.offset;
    Pair* end = begin + segment.records;
    std::stable_sort(begin, end, [](const Pair& a, const Pair& b) {
      return a.first.Compare(b.first) < 0;
    });
    cursor->reset(new SpillSegmentCursor(begin, end));
    return Status::OK();
  }
  if (GetCodec(run.codec) == nullptr) {
    return Status::Corruption("spill: unknown codec in run");
  }
  std::unique_ptr<FileReader> reader;
  COLMR_RETURN_IF_ERROR(fs->Open(run.path, context, &reader));
  cursor->reset(new SpillSegmentCursor(std::move(reader), run, segment));
  return Status::OK();
}

bool SpillSegmentCursor::FillBlock() {
  if (pos_ >= end_) return false;  // segment drained
  // Block header: two varints plus a fixed32 CRC — at most 24 bytes.
  Slice header;
  std::shared_ptr<const std::string> header_pin;
  const size_t header_cap =
      static_cast<size_t>(std::min<uint64_t>(24, end_ - pos_));
  status_ = reader_->Read(pos_, header_cap, &header, &header_pin);
  if (!status_.ok()) return false;
  Slice h = header;
  uint64_t raw_len = 0, stored_len = 0;
  uint32_t crc = 0;
  status_ = GetVarint64(&h, &raw_len);
  if (status_.ok()) status_ = GetVarint64(&h, &stored_len);
  if (status_.ok()) status_ = GetFixed32(&h, &crc);
  if (!status_.ok()) {
    status_ = Status::Corruption("spill: truncated block header");
    return false;
  }
  const uint64_t header_len = header.size() - h.size();
  if (pos_ + header_len + stored_len > end_) {
    status_ = Status::Corruption("spill: block overruns segment");
    return false;
  }
  Slice stored;
  status_ =
      reader_->Read(pos_ + header_len, stored_len, &stored, &stored_pin_);
  if (!status_.ok()) return false;
  if (stored.size() != stored_len) {
    status_ = Status::Corruption("spill: truncated block");
    return false;
  }
  if (Crc32(stored) != crc) {
    status_ = Status::Corruption("spill: block checksum mismatch");
    return false;
  }
  if (codec_->type() != CodecType::kNone) {
    raw_.Clear();
    status_ = codec_->Decompress(stored, &raw_);
    if (!status_.ok()) return false;
    if (raw_.size() != raw_len) {
      status_ = Status::Corruption("spill: block raw-length mismatch");
      return false;
    }
    cursor_ = raw_.AsSlice();
  } else {
    if (stored.size() != raw_len) {
      status_ = Status::Corruption("spill: block raw-length mismatch");
      return false;
    }
    cursor_ = stored;
  }
  pos_ += header_len + stored_len;
  return true;
}

bool SpillSegmentCursor::Next() {
  if (reader_ == nullptr) {  // resident: move the next pair out
    if (next_pair_ == end_pair_) return false;
    key_ = std::move(next_pair_->first);
    value_ = std::move(next_pair_->second);
    ++next_pair_;
    return true;
  }
  if (!status_.ok()) return false;
  if (cursor_.empty() && !FillBlock()) return false;

  return DecodeField("key", &key_) && DecodeField("value", &value_);
}

bool SpillSegmentCursor::DecodeField(const char* what, Value* out) {
  uint64_t len = 0;
  status_ = GetVarint64(&cursor_, &len);
  if (status_.ok() && len > cursor_.size()) {
    status_ = Status::Corruption("spill: record overruns block");
  }
  if (!status_.ok()) return false;
  Slice bytes = cursor_.Prefix(len);
  status_ = DecodeTaggedValue(&bytes, out);
  if (status_.ok() && !bytes.empty()) {
    status_ = Status::Corruption(std::string("spill: trailing bytes after ") +
                                 what);
  }
  if (!status_.ok()) return false;
  cursor_.RemovePrefix(len);
  return true;
}

// ---- SpillMerger ----

bool SpillMerger::HeapAfter(const HeapEntry& a, const HeapEntry& b) {
  // True when a pops after b. std::push_heap keeps the maximum at the
  // front, so "pops after" == "greater" gives a min-heap.
  const int c = a.cursor->key().Compare(b.cursor->key());
  if (c != 0) return c > 0;
  return a.sequence > b.sequence;
}

void SpillMerger::Add(std::unique_ptr<SpillSegmentCursor> cursor,
                      uint64_t sequence) {
  Push(cursor.get(), sequence);
  owned_.push_back(std::move(cursor));
}

void SpillMerger::Push(SpillSegmentCursor* cursor, uint64_t sequence) {
  if (cursor->Next()) {
    heap_.push_back(HeapEntry{cursor, sequence});
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
  } else if (!cursor->status().ok() && status_.ok()) {
    status_ = cursor->status();
  }
}

bool SpillMerger::Next() {
  if (!status_.ok()) return false;
  if (current_ != nullptr) {
    Push(current_, current_sequence_);
    current_ = nullptr;
  }
  if (!status_.ok() || heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
  current_ = heap_.back().cursor;
  current_sequence_ = heap_.back().sequence;
  heap_.pop_back();
  return true;
}

Status ForEachKeyGroup(
    SpillMerger* merger,
    const std::function<Status(const Value& key,
                               const std::vector<Value>& values)>& fn) {
  Value group_key;
  std::vector<Value> group_values;
  while (merger->Next()) {
    if (!group_values.empty() && merger->key().Compare(group_key) != 0) {
      COLMR_RETURN_IF_ERROR(fn(group_key, group_values));
      group_values.clear();
    }
    if (group_values.empty()) group_key = merger->key();
    group_values.push_back(merger->value());
  }
  COLMR_RETURN_IF_ERROR(merger->status());
  if (group_values.empty()) return Status::OK();
  return fn(group_key, group_values);
}

// ---- MergeSpillRuns ----

Status MergeSpillRuns(MiniHdfs* fs, const std::vector<const SpillRun*>& runs,
                      const std::string& path, const WriteContext& write_ctx,
                      const ReadContext& read_ctx, CodecType codec,
                      int num_partitions, const ReduceFn* combiner,
                      SpillRun* out, uint64_t* segments_merged) {
  std::unique_ptr<SpillRunWriter> writer;
  COLMR_RETURN_IF_ERROR(SpillRunWriter::Open(fs, path, write_ctx, codec,
                                             num_partitions, &writer));
  uint64_t merged = 0;
  VectorEmitter combined;
  for (int p = 0; p < num_partitions; ++p) {
    SpillMerger merger;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (runs[i]->segments[static_cast<size_t>(p)].records == 0) continue;
      std::unique_ptr<SpillSegmentCursor> cursor;
      COLMR_RETURN_IF_ERROR(
          SpillSegmentCursor::Open(fs, *runs[i], p, read_ctx, &cursor));
      merger.Add(std::move(cursor), i);
      ++merged;
    }
    if (combiner == nullptr) {
      while (merger.Next()) {
        COLMR_RETURN_IF_ERROR(writer->Append(p, merger.key(), merger.value()));
      }
      COLMR_RETURN_IF_ERROR(merger.status());
      continue;
    }
    // Combine equal-key groups as they stream off the heap. The combiner
    // must preserve the key (Hadoop's contract), so outputs stay in this
    // partition and remain key-sorted.
    COLMR_RETURN_IF_ERROR(ForEachKeyGroup(
        &merger, [&](const Value& key, const std::vector<Value>& values) {
          combined.pairs().clear();
          (*combiner)(key, values, &combined);
          for (auto& [k, v] : combined.pairs()) {
            COLMR_RETURN_IF_ERROR(writer->Append(p, k, v));
          }
          return Status::OK();
        }));
  }
  COLMR_RETURN_IF_ERROR(writer->Close(out));
  if (segments_merged != nullptr) *segments_merged = merged;
  return Status::OK();
}

// ---- MapOutputBuffer ----

MapOutputBuffer::MapOutputBuffer(Options options)
    : options_(std::move(options)) {}

void MapOutputBuffer::Emit(Value key, Value value) {
  if (!status_.ok()) return;  // sticky: the attempt is already doomed
  const uint32_t partition = ShufflePartition(
      key, static_cast<uint32_t>(options_.num_partitions));
  buffer_bytes_ += TaggedEncodedSize(key) + TaggedEncodedSize(value);
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffer_bytes_);
  entries_.push_back(
      BufferedPair{partition, std::move(key), std::move(value)});
  if (options_.sort_buffer_bytes > 0 &&
      buffer_bytes_ >= options_.sort_buffer_bytes) {
    status_ = SortAndSpill();
  }
}

Status MapOutputBuffer::Finish() {
  if (!status_.ok() || entries_.empty()) return status_;
  if (options_.sort_buffer_bytes > 0) {
    status_ = SortAndSpill();
  } else {
    KeepResident();
  }
  return status_;
}

void MapOutputBuffer::SortAndCombine() {
  // The sort whose stability the whole determinism argument leans on:
  // equal (partition, key) entries keep emission order, so every run is
  // a contiguous slice of the stable sort of this task's output.
  auto by_partition_key = [](const BufferedPair& a, const BufferedPair& b) {
    if (a.partition != b.partition) return a.partition < b.partition;
    return a.key.Compare(b.key) < 0;
  };
  std::stable_sort(entries_.begin(), entries_.end(), by_partition_key);
  if (options_.combiner == nullptr) return;

  // Fold each (partition, key) group through the combiner — Hadoop's
  // spill-time combine. Outputs are re-partitioned by their own key and
  // re-sorted.
  std::vector<BufferedPair> folded;
  VectorEmitter out;
  size_t i = 0;
  std::vector<Value> group_values;
  while (i < entries_.size()) {
    size_t j = i + 1;
    while (j < entries_.size() &&
           entries_[j].partition == entries_[i].partition &&
           entries_[j].key.Compare(entries_[i].key) == 0) {
      ++j;
    }
    group_values.clear();
    for (size_t g = i; g < j; ++g) {
      group_values.push_back(std::move(entries_[g].value));
    }
    out.pairs().clear();
    (*options_.combiner)(entries_[i].key, group_values, &out);
    for (auto& [k, v] : out.pairs()) {
      const uint32_t partition = ShufflePartition(
          k, static_cast<uint32_t>(options_.num_partitions));
      folded.push_back(BufferedPair{partition, std::move(k), std::move(v)});
    }
    i = j;
  }
  std::stable_sort(folded.begin(), folded.end(), by_partition_key);
  entries_ = std::move(folded);
}

Status MapOutputBuffer::SortAndSpill() {
  ScopedSpan span(options_.trace, "spill", "mr");
  span.AddArg("records_in", static_cast<uint64_t>(entries_.size()));
  SortAndCombine();

  const std::string path =
      options_.scratch_dir + "/spill-" + std::to_string(spills_);
  std::unique_ptr<SpillRunWriter> writer;
  COLMR_RETURN_IF_ERROR(SpillRunWriter::Open(
      options_.fs, path, options_.write_context, options_.codec,
      options_.num_partitions, &writer));
  for (const BufferedPair& e : entries_) {
    COLMR_RETURN_IF_ERROR(
        writer->Append(static_cast<int>(e.partition), e.key, e.value));
  }
  SpillRun run;
  COLMR_RETURN_IF_ERROR(writer->Close(&run));

  spills_ += 1;
  const uint64_t file_bytes = run.TotalBytes();
  spilled_bytes_ += file_bytes;
  output_kv_bytes_ += run.TotalKvBytes();
  output_records_ += static_cast<uint64_t>(entries_.size());
  span.AddArg("records_out", static_cast<uint64_t>(entries_.size()));
  span.AddArg("bytes", file_bytes);

  runs_.push_back(std::move(run));
  entries_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

void MapOutputBuffer::KeepResident() {
  // No storage to bound, so no sort here: one counting pass groups the
  // pairs by partition in emit order, and the reducer that owns each
  // segment sorts it, in parallel with the other reducers. A combiner
  // needs its key groups, so it folds a sorted buffer first.
  if (options_.combiner != nullptr) SortAndCombine();
  SpillRun run;
  run.segments.resize(static_cast<size_t>(options_.num_partitions));
  for (const BufferedPair& e : entries_) {
    SpillSegment& segment = run.segments[e.partition];
    segment.records += 1;
    segment.kv_bytes += TaggedEncodedSize(e.key) + TaggedEncodedSize(e.value);
  }
  std::vector<uint64_t> next(run.segments.size());
  uint64_t offset = 0;
  for (size_t p = 0; p < run.segments.size(); ++p) {
    run.segments[p].offset = next[p] = offset;
    offset += run.segments[p].records;
  }
  run.resident =
      std::make_unique<std::vector<std::pair<Value, Value>>>(entries_.size());
  for (BufferedPair& e : entries_) {
    auto& [key, value] = (*run.resident)[next[e.partition]++];
    key = std::move(e.key);
    value = std::move(e.value);
  }
  output_records_ += static_cast<uint64_t>(entries_.size());
  output_kv_bytes_ += run.TotalKvBytes();
  runs_.push_back(std::move(run));
  entries_.clear();
  buffer_bytes_ = 0;
}

}  // namespace colmr
