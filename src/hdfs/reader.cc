#include "hdfs/reader.h"

#include <algorithm>

namespace colmr {

BufferedReader::BufferedReader(std::unique_ptr<FileReader> file,
                               uint64_t buffer_size)
    : file_(std::move(file)),
      buffer_size_(buffer_size == 0 ? 128 * 1024 : buffer_size) {}

void BufferedReader::Reposition(uint64_t offset) {
  position_ = offset;
  window_start_ = offset;
  window_ = Slice();
  pin_.reset();
}

void BufferedReader::MaybePrefetch() {
  // Two fills without an out-of-window reposition establish a sequential
  // pattern; from then on keep the warm horizon ahead of the window.
  if (sequential_fills_ < 2) return;
  file_->Prefetch(window_end());
}

Status BufferedReader::Fill(size_t min_bytes) {
  const uint64_t from = std::max(position_, window_end());
  if (from >= file_->size()) return Status::OK();
  const size_t tail = from - position_;
  const uint64_t want = std::max<uint64_t>(
      buffer_size_, min_bytes > tail ? min_bytes - tail : 0);
  Slice view;
  std::shared_ptr<const std::string> pin;
  // An empty window may refill from one cached block alone (a memory
  // hit); a fill that keeps a tail always reads the whole range.
  COLMR_RETURN_IF_ERROR(
      file_->Read(from, want, &view, &pin, tail == 0 ? min_bytes : 0));
  if (!ever_read_) {
    // Initial positioning of the stream counts as one seek.
    ever_read_ = true;
    file_->CountSeek();
  }
  // The tail is re-viewed in the new view's buffer when it lies there
  // (the same block). Otherwise it lies in the previous block, or the
  // view is a buffer joined across blocks, and the two are joined.
  const size_t before_view = view.data() - pin->data();
  if (tail <= before_view) {
    view = Slice(view.data() - tail, tail + view.size());
  } else {
    auto joined = std::make_shared<std::string>(
        window_.data() + (position_ - window_start_), tail);
    joined->append(view.data(), view.size());
    view = Slice(*joined);
    pin = std::move(joined);
  }
  window_start_ = position_;
  window_ = view;
  pin_ = std::move(pin);
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
  *out = window_;
  out->RemovePrefix(std::min<uint64_t>(position_ - window_start_,
                                       window_.size()));
  return Status::OK();
}

void BufferedReader::Consume(size_t n) { position_ += n; }

Status BufferedReader::Seek(uint64_t offset) {
  if (offset >= window_start_ && offset <= window_end()) {
    position_ = offset;
    return Status::OK();
  }
  // Out-of-window reposition: charge a seek and discard the window.
  // Bytes already prefetched stay charged — that waste is the point of
  // modelling reads at io.file.buffer.size granularity.
  Reposition(offset);
  sequential_fills_ = 0;
  if (ever_read_) file_->CountSeek();
  return Status::OK();
}

Status BufferedReader::Skip(uint64_t n) {
  const uint64_t target = std::min(position_ + n, file_->size());
  if (target <= window_end()) {
    position_ = target;
    return Status::OK();
  }
  // Short forward skips are cheaper to read through than to reposition
  // (what real buffered streams do): the skipped bytes are still fetched
  // and charged, but no seek is incurred. Only skips landing well beyond
  // the next prefetch window become a true seek that saves I/O.
  if (target - window_end() > 2 * buffer_size_) return Seek(target);
  while (window_end() < target) {
    const uint64_t from = window_end();
    Slice view;
    std::shared_ptr<const std::string> pin;
    const Status read = file_->Read(from, buffer_size_, &view, &pin);
    if (!read.ok()) {
      // The cursor stays put, over an empty window the next Peek fills:
      // position_ must never fall outside the window.
      Reposition(position_);
      return read;
    }
    window_start_ = from;
    window_ = view;
    pin_ = std::move(pin);
  }
  position_ = target;
  return Status::OK();
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
  // The new window is a view of the cached target block: nothing is
  // fetched from a datanode, so no seek is charged (DESIGN.md §9).
  Reposition(offset);
  window_ = view;
  pin_ = std::move(pin);
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
