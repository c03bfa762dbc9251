#include "cif/column_reader.h"

#include <algorithm>
#include <cstring>

#include "cif/column_format.h"
#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

/// A value is walked or decoded with at least this many bytes in view
/// (or the rest of the file); a window that holds less refills first.
constexpr size_t kPeekBytes = 4096;

/// Walks up to n encoded values of a column without materializing them,
/// walking a value only while `min_ahead` bytes from its start are in
/// view. A DCSL map is a varint entry count, then a varint dictionary id
/// and the value per entry; string entries take a tight (count, id,
/// length) loop without a SkipValue call per entry, which cut
/// crawl-distinct's job time by about 12% (DESIGN.md §10). On failure
/// the cursor rests on the failing value's first byte and *walked holds
/// the values passed before it. A value counts in tally->skipped only
/// once it completes (a DCSL map counts its entries), so a value that
/// straddles a window edge and is walked again on the retry counts once.
Status WalkValues(const Schema& type, bool dcsl, Slice* cursor, uint64_t n,
                  size_t min_ahead, uint64_t* walked, SerdeTally* tally) {
  const Schema& element = dcsl ? *type.element() : type;
  const bool strings = element.kind() == TypeKind::kString ||
                       element.kind() == TypeKind::kBytes;
  for (*walked = 0; *walked < n && cursor->size() >= min_ahead; ++*walked) {
    const Slice start = *cursor;
    Status s;
    if (!dcsl) {
      s = SkipValue(type, cursor, tally);
    } else {
      uint64_t count = 0;
      s = GetVarint64(cursor, &count);
      for (uint64_t i = 0; s.ok() && i < count; ++i) {
        uint64_t id = 0;
        s = GetVarint64(cursor, &id);
        if (!s.ok()) break;
        if (strings) {
          Slice bytes;
          s = GetLengthPrefixed(cursor, &bytes);
        } else {
          s = SkipValue(element, cursor, nullptr);
        }
      }
      if (s.ok()) tally->skipped.Add(count);
    }
    if (!s.ok()) {
      *cursor = start;
      return s;
    }
  }
  return Status::OK();
}

}  // namespace

Status ColumnFileReader::Open(MiniHdfs* fs, const std::string& path,
                              const ReadContext& context,
                              std::unique_ptr<ColumnFileReader>* reader) {
  std::unique_ptr<FileReader> raw;
  COLMR_RETURN_IF_ERROR(fs->Open(path, context, &raw));
  std::unique_ptr<ColumnFileReader> result(new ColumnFileReader());
  result->input_ = std::make_unique<BufferedReader>(
      std::move(raw), fs->config().io_buffer_size);
  MetricsRegistry& metrics = context.metrics != nullptr
                                 ? *context.metrics
                                 : MetricsRegistry::Default();
  const auto tally = [&metrics](const char* name) {
    return CounterTally(metrics.counter(name));
  };
  result->m_values_read_ = tally("cif.scan.values_read");
  result->m_values_skipped_ = tally("cif.scan.values_skipped");
  result->m_rows_skipped_ = tally("cif.scan.rows_skipped");
  result->m_skip_blocks_ = tally("cif.scan.skip_blocks");
  result->m_skipped_bytes_ = tally("cif.scan.skipped_bytes");
  result->m_jumps_ = tally("cif.scan.jumps");
  result->m_jumped_bytes_ = tally("cif.scan.jumped_bytes");
  result->m_blocks_skipped_ = tally("cif.scan.blocks_skipped");
  result->m_blocks_decompressed_ = tally("cif.scan.blocks_decompressed");
  result->m_decompressed_bytes_ = tally("cif.scan.decompressed_bytes");
  result->trace_ = context.trace;
  COLMR_RETURN_IF_ERROR(result->ParseHeader());
  *reader = std::move(result);
  return Status::OK();
}

Status ColumnFileReader::ParseHeader() {
  Slice view;
  COLMR_RETURN_IF_ERROR(input_->Peek(5, &view));
  if (view.size() < 5 || memcmp(view.data(), kCifColumnMagic, 4) != 0) {
    return Status::Corruption("cif column: bad magic");
  }
  layout_ = static_cast<ColumnLayout>(view[4]);
  input_->Consume(5);
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&row_count_));
  uint64_t type_len;
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&type_len));
  std::string type_text;
  COLMR_RETURN_IF_ERROR(input_->ReadBytes(type_len, &type_text));
  COLMR_RETURN_IF_ERROR(Schema::Parse(type_text, &type_));
  if (layout_ == ColumnLayout::kCompressedBlocks) {
    std::string codec_byte;
    COLMR_RETURN_IF_ERROR(input_->ReadBytes(1, &codec_byte));
    codec_ = GetCodec(static_cast<CodecType>(codec_byte[0]));
    if (codec_ == nullptr) return Status::Corruption("cif column: codec");
    uint64_t block_size;
    COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&block_size));
  }
  if (layout_ == ColumnLayout::kDictSkipList &&
      type_->kind() != TypeKind::kMap) {
    return Status::Corruption("cif column: DCSL requires map type");
  }
  body_start_ = input_->position();
  return Status::OK();
}

void ColumnFileReader::UseRowgroupOffsets(const ColumnFileStats& footer) {
  const std::vector<uint64_t>& offsets = footer.group_offsets;
  if (layout_ == ColumnLayout::kCompressedBlocks || offsets.empty() ||
      footer.rows_per_group != kCifStatsRowGroup ||
      offsets.size() !=
          (row_count_ + kCifStatsRowGroup - 1) / kCifStatsRowGroup ||
      offsets.front() != body_start_) {
    return;
  }
  group_offsets_ = offsets;
}

uint64_t ColumnFileReader::JumpToward(uint64_t target) {
  const uint64_t group = target / kCifStatsRowGroup;
  if (group >= group_offsets_.size() ||
      group <= current_row_ / kCifStatsRowGroup) {
    return 0;
  }
  const uint64_t from = input_->position();
  const uint64_t to = group_offsets_[group];
  const uint64_t window_end = input_->window_end();
  if (!input_->TryJump(to)) return 0;
  // Bytes before the old window's end were requested with it: they count
  // as skipped, like a walk's. Only the rest were never requested.
  const uint64_t requested_end = std::clamp(window_end, from, to);
  m_jumps_.Add();
  m_skipped_bytes_.Add(requested_end - from);
  m_jumped_bytes_.Add(to - requested_end);
  const uint64_t passed = group * kCifStatsRowGroup - current_row_;
  current_row_ = group * kCifStatsRowGroup;
  boundary_done_ = false;
  return passed;
}

Status ColumnFileReader::ConsumeBoundary() {
  if (boundary_done_ || current_row_ % kCifSkip0 != 0 ||
      current_row_ >= row_count_) {
    return Status::OK();
  }
  if (layout_ == ColumnLayout::kDictSkipList &&
      current_row_ % kCifDictInterval == 0) {
    uint32_t dict_len;
    COLMR_RETURN_IF_ERROR(input_->ReadFixed32(&dict_len));
    Slice dict_bytes;
    COLMR_RETURN_IF_ERROR(input_->Peek(dict_len, &dict_bytes));
    if (dict_bytes.size() < dict_len) {
      return Status::Corruption("cif column: truncated dictionary");
    }
    Slice cursor = dict_bytes.Prefix(dict_len);
    COLMR_RETURN_IF_ERROR(dict_.Deserialize(&cursor));
    input_->Consume(dict_len);
  }
  uint32_t entry;
  if (current_row_ % kCifSkip2 == 0) {
    COLMR_RETURN_IF_ERROR(input_->ReadFixed32(&entry));
    skip1000_ = entry;
  }
  if (current_row_ % kCifSkip1 == 0) {
    COLMR_RETURN_IF_ERROR(input_->ReadFixed32(&entry));
    skip100_ = entry;
  }
  COLMR_RETURN_IF_ERROR(input_->ReadFixed32(&entry));
  skip10_ = entry;
  boundary_done_ = true;
  return Status::OK();
}

Status ColumnFileReader::LoadBlock() {
  uint64_t n_records, compressed_len;
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&n_records));
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&compressed_len));
  return DecompressBlock(n_records, compressed_len);
}

Status ColumnFileReader::DecompressBlock(uint64_t n_records,
                                         uint64_t compressed_len) {
  Slice compressed;
  COLMR_RETURN_IF_ERROR(input_->Peek(compressed_len, &compressed));
  if (compressed.size() < compressed_len) {
    return Status::Corruption("cif column: truncated block");
  }
  Buffer raw;
  COLMR_RETURN_IF_ERROR(
      codec_->Decompress(compressed.Prefix(compressed_len), &raw));
  input_->Consume(compressed_len);
  // Batches pin the block their strings point into, so each block gets
  // a buffer of its own.
  block_ = std::make_shared<const std::string>(raw.TakeString());
  block_cursor_ = Slice(*block_);
  block_rows_left_ = n_records;
  block_loaded_ = true;
  m_blocks_decompressed_.Add();
  m_decompressed_bytes_.Add(block_cursor_.size());
  return Status::OK();
}

template <typename StepFn>
Status ColumnFileReader::WalkWindows(uint64_t count, StepFn step) {
  uint64_t left = count;
  size_t window = kPeekBytes;
  while (left > 0) {
    Slice view;
    COLMR_RETURN_IF_ERROR(input_->Peek(window, &view));
    Slice cursor = view;
    uint64_t done = 0;
    const Status s = step(&cursor, left, &done);
    const size_t consumed = cursor.data() - view.data();
    const size_t view_left = view.size() - consumed;
    input_->Consume(consumed);
    current_row_ += done;
    left -= done;
    if (done > 0) window = kPeekBytes;
    if (s.ok()) continue;
    // Grow the window while the failure could be a value straddling its
    // edge. The failing value saw view_left bytes; only if that already
    // covered everything left in the file is the error real.
    if (!s.IsCorruption() || view_left >= input_->Remaining()) {
      return s;
    }
    if (done == 0) window *= 2;
  }
  return Status::OK();
}

Status ColumnFileReader::DecodeSegmentBatch(uint64_t count,
                                            ColumnBatch* batch) {
  return WalkWindows(count, [&](Slice* cursor, uint64_t n, uint64_t* done) {
    size_t got = 0;
    const Status s =
        DecodeColumnBatch(*type_, cursor, n, batch, &got, &serde_);
    // Strings are slices into the window: the batch pins its bytes.
    if (got > 0) batch->AddKeepalive(input_->PinnedWindow());
    m_values_read_.Add(got);
    *done = got;
    return s;
  });
}

Status ColumnFileReader::DecodeDcslMap(Slice* cursor, Value* out) {
  uint64_t n_entries = 0;
  COLMR_RETURN_IF_ERROR(GetVarint64(cursor, &n_entries));
  COLMR_RETURN_IF_ERROR(CheckContainerCount(n_entries, cursor->size()));
  Value::MapEntries* entries = out->AssignMap();
  entries->resize(n_entries);
  for (auto& [key, value] : *entries) {
    uint64_t id = 0;
    COLMR_RETURN_IF_ERROR(GetVarint64(cursor, &id));
    if (id >= dict_.size()) {
      return Status::Corruption("cif column: dictionary id out of range");
    }
    key.assign(dict_.Lookup(static_cast<uint32_t>(id)));
    COLMR_RETURN_IF_ERROR(
        DecodeValue(*type_->element(), cursor, &value, nullptr));
  }
  serde_.decoded.Add(n_entries);
  return Status::OK();
}

Status ColumnFileReader::DecodeDcslSegmentBatch(uint64_t count,
                                                ColumnBatch* batch) {
  return WalkWindows(count, [&](Slice* cursor, uint64_t n, uint64_t* done) {
    Status s;
    for (*done = 0; *done < n; ++*done) {
      const Slice start = *cursor;
      s = DecodeDcslMap(cursor, batch->PendingBoxed());
      if (!s.ok()) {
        *cursor = start;
        break;
      }
      batch->CommitBoxed();
    }
    m_values_read_.Add(*done);
    return s;
  });
}

Status ColumnFileReader::SkipSegment(uint64_t count) {
  const bool dcsl = layout_ == ColumnLayout::kDictSkipList;
  return WalkWindows(count, [&](Slice* cursor, uint64_t n, uint64_t* done) {
    // Each value is walked with kPeekBytes in view, as a one-value peek
    // would have it, so the window refills at the offsets per-value
    // skipping refilled at, and the skip blocks after a walk seek or read
    // through exactly as before.
    const size_t min_ahead =
        cursor->size() < input_->Remaining() ? kPeekBytes : 0;
    const Status s =
        WalkValues(*type_, dcsl, cursor, n, min_ahead, done, &serde_);
    m_values_skipped_.Add(*done);
    return s;
  });
}

Status ColumnFileReader::NextBatch(uint64_t n, ColumnBatch* batch) {
  Status s = DecodeBatch(n, batch);
  PublishTallies();
  return s;
}

Status ColumnFileReader::SkipRows(uint64_t n) {
  Status s = Skip(n);
  PublishTallies();
  return s;
}

void ColumnFileReader::PublishTallies() {
  m_values_read_.Publish();
  m_values_skipped_.Publish();
  m_rows_skipped_.Publish();
  m_skip_blocks_.Publish();
  m_skipped_bytes_.Publish();
  m_jumps_.Publish();
  m_jumped_bytes_.Publish();
  m_blocks_skipped_.Publish();
  m_blocks_decompressed_.Publish();
  m_decompressed_bytes_.Publish();
  serde_.Publish();
}

Status ColumnFileReader::DecodeBatch(uint64_t n, ColumnBatch* batch) {
  batch->Reset(type_->kind());
  uint64_t take = std::min(n, row_count_ - current_row_);
  ScopedSpan span(trace_, "cif_next_batch", "cif");
  if (span.active()) span.AddArg("rows", take);
  switch (layout_) {
    case ColumnLayout::kPlain:
      return DecodeSegmentBatch(take, batch);
    case ColumnLayout::kSkipList:
    case ColumnLayout::kDictSkipList: {
      while (take > 0) {
        COLMR_RETURN_IF_ERROR(ConsumeBoundary());
        const uint64_t to_boundary = kCifSkip0 - current_row_ % kCifSkip0;
        const uint64_t seg = std::min(take, to_boundary);
        if (layout_ == ColumnLayout::kSkipList) {
          COLMR_RETURN_IF_ERROR(DecodeSegmentBatch(seg, batch));
        } else {
          COLMR_RETURN_IF_ERROR(DecodeDcslSegmentBatch(seg, batch));
        }
        take -= seg;
        if (current_row_ % kCifSkip0 == 0) boundary_done_ = false;
      }
      return Status::OK();
    }
    case ColumnLayout::kCompressedBlocks: {
      while (take > 0) {
        if (!block_loaded_) {
          COLMR_RETURN_IF_ERROR(LoadBlock());
        }
        const uint64_t seg = std::min(take, block_rows_left_);
        size_t got = 0;
        // The block is fully resident and decompressed, so any decode
        // failure is real corruption, never truncation — no retry.
        Status s = DecodeColumnBatch(*type_, &block_cursor_, seg, batch,
                                     &got, &serde_);
        if (got > 0) batch->AddKeepalive(block_);
        current_row_ += got;
        block_rows_left_ -= got;
        take -= got;
        m_values_read_.Add(got);
        if (block_rows_left_ == 0) block_loaded_ = false;
        COLMR_RETURN_IF_ERROR(s);
      }
      return Status::OK();
    }
  }
  return Status::Corruption("cif column: unknown layout");
}

Status ColumnFileReader::Skip(uint64_t n) {
  n = std::min(n, row_count_ - current_row_);
  m_rows_skipped_.Add(n);
  n -= JumpToward(current_row_ + n);
  if (layout_ == ColumnLayout::kCompressedBlocks) {
    while (n > 0) {
      if (block_loaded_) {
        // Drain or finish the current (already decompressed) block.
        uint64_t walked = 0;
        const Status s =
            WalkValues(*type_, false, &block_cursor_,
                       std::min(n, block_rows_left_), 0, &walked, &serde_);
        m_values_skipped_.Add(walked);
        block_rows_left_ -= walked;
        current_row_ += walked;
        n -= walked;
        COLMR_RETURN_IF_ERROR(s);
        if (block_rows_left_ == 0) block_loaded_ = false;
        continue;
      }
      // At a block header: skip whole blocks without decompressing —
      // the lazy-decompression payoff of the block layout.
      uint64_t n_records, compressed_len;
      COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&n_records));
      COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&compressed_len));
      if (n >= n_records) {
        COLMR_RETURN_IF_ERROR(input_->Skip(compressed_len));
        m_blocks_skipped_.Add();
        m_skipped_bytes_.Add(compressed_len);
        current_row_ += n_records;
        n -= n_records;
      } else {
        // Partial skip: the block must be decompressed to find value
        // boundaries.
        COLMR_RETURN_IF_ERROR(DecompressBlock(n_records, compressed_len));
      }
    }
    return Status::OK();
  }

  const bool has_skip_list = layout_ == ColumnLayout::kSkipList ||
                             layout_ == ColumnLayout::kDictSkipList;
  while (n > 0) {
    if (has_skip_list && current_row_ % kCifSkip0 == 0 && !boundary_done_ &&
        current_row_ < row_count_) {
      COLMR_RETURN_IF_ERROR(ConsumeBoundary());
      if (n >= kCifSkip2 && current_row_ % kCifSkip2 == 0 &&
          current_row_ + kCifSkip2 <= row_count_) {
        COLMR_RETURN_IF_ERROR(input_->Skip(skip1000_));
        m_skip_blocks_.Add(kCifSkip2 / kCifSkip0);
        m_skipped_bytes_.Add(skip1000_);
        current_row_ += kCifSkip2;
        n -= kCifSkip2;
        boundary_done_ = false;
        continue;
      }
      if (n >= kCifSkip1 && current_row_ % kCifSkip1 == 0 &&
          current_row_ + kCifSkip1 <= row_count_) {
        COLMR_RETURN_IF_ERROR(input_->Skip(skip100_));
        m_skip_blocks_.Add(kCifSkip1 / kCifSkip0);
        m_skipped_bytes_.Add(skip100_);
        current_row_ += kCifSkip1;
        n -= kCifSkip1;
        boundary_done_ = false;
        continue;
      }
      if (n >= kCifSkip0 && current_row_ + kCifSkip0 <= row_count_) {
        COLMR_RETURN_IF_ERROR(input_->Skip(skip10_));
        m_skip_blocks_.Add(1);
        m_skipped_bytes_.Add(skip10_);
        current_row_ += kCifSkip0;
        n -= kCifSkip0;
        boundary_done_ = false;
        continue;
      }
    }
    // Walk the values up to the next skip-list boundary (a plain column:
    // all of them), decoding lengths without materializing — all a plain
    // column can do: "each record is skipped individually, resulting in
    // no deserialization or I/O savings".
    uint64_t walk = n;
    if (has_skip_list) {
      COLMR_RETURN_IF_ERROR(ConsumeBoundary());
      walk = std::min(n, kCifSkip0 - current_row_ % kCifSkip0);
    }
    const uint64_t from = current_row_;
    const Status s = SkipSegment(walk);
    n -= current_row_ - from;
    if (current_row_ % kCifSkip0 == 0) boundary_done_ = false;
    COLMR_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

}  // namespace colmr
