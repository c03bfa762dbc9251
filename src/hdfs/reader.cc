#include "hdfs/reader.h"

#include <algorithm>

namespace colmr {

BufferedReader::BufferedReader(std::unique_ptr<FileReader> file,
                               uint64_t buffer_size)
    : file_(std::move(file)),
      buffer_size_(buffer_size == 0 ? 128 * 1024 : buffer_size),
      position_(0),
      buffer_start_(0) {}

void BufferedReader::CompactToCursor() {
  if (pin_ != nullptr) {
    const uint64_t end = buffer_start_ + view_.size();
    if (position_ >= end) {
      buffer_.clear();
    } else {
      // Keep the un-consumed tail of the view: a value can straddle the
      // cached block's end, so the bytes must survive the switch back to
      // owned mode.
      buffer_.assign(view_.data() + (position_ - buffer_start_),
                     end - position_);
    }
    pin_.reset();
    view_ = Slice();
    buffer_start_ = position_;
    return;
  }
  if (position_ >= buffer_start_ + buffer_.size()) {
    buffer_.clear();
    buffer_start_ = position_;
  } else if (position_ > buffer_start_) {
    buffer_.erase(0, position_ - buffer_start_);
    buffer_start_ = position_;
  }
}

void BufferedReader::MaybePrefetch() {
  // Two fills without an out-of-window reposition establish a sequential
  // pattern; from then on keep the warm horizon ahead of the window.
  if (sequential_fills_ < 2) return;
  file_->Prefetch(buffer_start_ + window_size());
}

Status BufferedReader::Fill(size_t min_bytes) {
  // Compact: drop bytes before the cursor.
  CompactToCursor();
  const uint64_t fetch_from = buffer_start_ + buffer_.size();
  if (fetch_from >= file_->size()) return Status::OK();
  const uint64_t want = std::max<uint64_t>(
      buffer_size_, min_bytes > buffer_.size() ? min_bytes - buffer_.size()
                                               : 0);
  if (buffer_.empty()) {
    // Zero-copy fast path: serve the window straight out of a cached
    // block. Only adopted when it satisfies this fill in one piece; a
    // range crossing the block boundary falls through to the copying
    // read below (which can span blocks).
    const uint64_t needed =
        std::min<uint64_t>(min_bytes, file_->size() - fetch_from);
    Slice view;
    std::shared_ptr<const std::string> pin;
    if (file_->TryReadView(fetch_from, want, &view, &pin) &&
        view.size() >= needed) {
      pin_ = std::move(pin);
      view_ = view;
      if (!ever_read_) {
        ever_read_ = true;
        file_->CountSeek();
      }
      ++sequential_fills_;
      MaybePrefetch();
      return Status::OK();
    }
  }
  std::string chunk;
  COLMR_RETURN_IF_ERROR(file_->Read(fetch_from, want, &chunk));
  if (!ever_read_) {
    // Initial positioning of the stream counts as one seek.
    ever_read_ = true;
    file_->CountSeek();
  }
  buffer_.append(chunk);
  ++sequential_fills_;
  MaybePrefetch();
  return Status::OK();
}

Status BufferedReader::Peek(size_t n, Slice* out) {
  const uint64_t end = window_end();
  const size_t have = end > position_ ? end - position_ : 0;
  if (have < n) {
    COLMR_RETURN_IF_ERROR(Fill(n));
  }
  const size_t offset = position_ - buffer_start_;
  *out = Slice(window_data() + offset, window_size() - offset);
  return Status::OK();
}

void BufferedReader::Consume(size_t n) { position_ += n; }

Status BufferedReader::Seek(uint64_t offset) {
  if (offset >= buffer_start_ && offset <= buffer_start_ + window_size()) {
    position_ = offset;
    return Status::OK();
  }
  // Out-of-window reposition: charge a seek and discard the buffer.
  // Bytes already prefetched stay charged — that waste is the point of
  // modelling reads at io.file.buffer.size granularity.
  pin_.reset();
  view_ = Slice();
  buffer_.clear();
  buffer_start_ = offset;
  position_ = offset;
  sequential_fills_ = 0;
  if (ever_read_) file_->CountSeek();
  return Status::OK();
}

Status BufferedReader::Skip(uint64_t n) {
  const uint64_t target = std::min(position_ + n, file_->size());
  const uint64_t buffered_end = window_end();
  if (target <= buffered_end) {
    position_ = target;
    return Status::OK();
  }
  // Short forward skips are cheaper to read through than to reposition
  // (what real buffered streams do): the skipped bytes are still fetched
  // and charged, but no seek is incurred. Only skips landing well beyond
  // the next prefetch window become a true seek that saves I/O.
  if (target - buffered_end <= 2 * buffer_size_) {
    pin_.reset();
    view_ = Slice();
    if (buffered_end > buffer_start_ + buffer_.size()) {
      // The window was a pinned view; the owned buffer is stale.
      buffer_.clear();
      buffer_start_ = buffered_end;
    }
    uint64_t fetch_from = buffered_end;
    while (fetch_from < target && fetch_from < file_->size()) {
      std::string chunk;
      const Status read = file_->Read(fetch_from, buffer_size_, &chunk);
      if (!read.ok()) {
        // The cursor stays put, over an empty window the next Peek fills:
        // the window may already be gone, and position_ must never fall
        // outside it.
        buffer_.clear();
        buffer_start_ = position_;
        return read;
      }
      if (chunk.empty()) break;
      fetch_from += chunk.size();
      buffer_ = std::move(chunk);
      buffer_start_ = fetch_from - buffer_.size();
    }
    position_ = target;
    return Status::OK();
  }
  return Seek(target);
}

bool BufferedReader::TryJump(uint64_t offset) {
  if (offset < position_) return false;
  if (offset <= window_end()) {
    position_ = offset;
    return true;
  }
  Slice view;
  std::shared_ptr<const std::string> pin;
  if (!file_->TryReadView(offset, buffer_size_, &view, &pin)) return false;
  // The new window is a pinned view of the cached target block: nothing
  // is fetched from a datanode, so no seek is charged (DESIGN.md §9).
  buffer_.clear();
  pin_ = std::move(pin);
  view_ = view;
  buffer_start_ = offset;
  position_ = offset;
  sequential_fills_ = 1;
  if (!ever_read_) {
    ever_read_ = true;
    file_->CountSeek();
  }
  return true;
}

Status BufferedReader::ReadVarint64(uint64_t* value) {
  Slice view;
  COLMR_RETURN_IF_ERROR(Peek(10, &view));
  const char* start = view.data();
  COLMR_RETURN_IF_ERROR(GetVarint64(&view, value));
  Consume(view.data() - start);
  return Status::OK();
}

Status BufferedReader::ReadFixed32(uint32_t* value) {
  Slice view;
  COLMR_RETURN_IF_ERROR(Peek(4, &view));
  Slice cursor = view;
  COLMR_RETURN_IF_ERROR(GetFixed32(&cursor, value));
  Consume(4);
  return Status::OK();
}

Status BufferedReader::ReadBytes(size_t n, std::string* out) {
  out->clear();
  if (n > Remaining()) {
    return Status::Corruption("truncated read: want " + std::to_string(n) +
                              " bytes, file has " + std::to_string(Remaining()));
  }
  Slice view;
  COLMR_RETURN_IF_ERROR(Peek(n, &view));
  if (view.size() < n) return Status::Corruption("short read");
  out->assign(view.data(), n);
  Consume(n);
  return Status::OK();
}

}  // namespace colmr
