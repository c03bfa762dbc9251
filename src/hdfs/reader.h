#ifndef COLMR_HDFS_READER_H_
#define COLMR_HDFS_READER_H_

#include <memory>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "hdfs/mini_hdfs.h"

namespace colmr {

/// Sequential reader over an HDFS file that fetches in io.file.buffer.size
/// chunks, exactly like Hadoop's buffered streams. All format readers pull
/// their bytes through this class, so the IoStats they accumulate include
/// prefetch amplification: a 2 KB column chunk still costs a full buffer
/// fetch. This is the mechanism behind the paper's observation that RCFile
/// reads 20x more bytes than CIF when projecting one column (Section 6.2).
///
/// Cache integration (DESIGN.md §9): when the underlying FileReader has a
/// block cache attached, fills landing inside a cached block are served
/// as a pinned zero-copy view of the cached bytes instead of a copy into
/// the owned buffer. The ReadContext's `prefetch_depth` schedules
/// asynchronous warming of upcoming blocks once the access pattern looks
/// sequential (two fills without an out-of-window reposition).
class BufferedReader {
 public:
  /// buffer_size == 0 uses the filesystem's configured io_buffer_size.
  BufferedReader(std::unique_ptr<FileReader> file, uint64_t buffer_size);

  BufferedReader(const BufferedReader&) = delete;
  BufferedReader& operator=(const BufferedReader&) = delete;

  uint64_t size() const { return file_->size(); }
  uint64_t position() const { return position_; }
  bool AtEnd() const { return position_ >= file_->size(); }
  uint64_t Remaining() const { return file_->size() - position_; }

  /// Makes at least min(n, Remaining()) bytes available ahead of the
  /// cursor and returns a view of everything buffered (possibly more than
  /// n). The view is invalidated by any other call.
  Status Peek(size_t n, Slice* out);

  /// Advances the cursor by n buffered bytes. n must not exceed the length
  /// of the last Peek result.
  void Consume(size_t n);

  /// The shared pin keeping the current zero-copy window (a cached block)
  /// alive, or nullptr when the window is the reader-owned buffer. A
  /// caller that retains the returned pointer extends the lifetime of the
  /// last Peek's slices past future reader operations — the mechanism the
  /// batch scan uses to hand out strings without copying them (DESIGN.md
  /// §10).
  std::shared_ptr<const std::string> PinnedWindow() const { return pin_; }

  /// Repositions the cursor. Jumping outside the buffered range counts a
  /// seek and discards the buffer (prefetched bytes stay charged).
  Status Seek(uint64_t offset);

  /// Skips n bytes forward: consumes from the buffer when possible,
  /// otherwise seeks — skipping more than the buffered window is how skip
  /// lists turn into real I/O savings. On a read error the cursor has not
  /// moved.
  Status Skip(uint64_t n);

  /// Moves the cursor forward to `offset` without reading the bytes in
  /// between, when that is free (DESIGN.md §13): the target is inside the
  /// window, or its block is cached (served as a view; a cache hit
  /// charges no seek). Otherwise, and for a backward target, returns
  /// false with nothing moved.
  bool TryJump(uint64_t offset);

  /// File offset just past the buffered window. Bytes before it have been
  /// requested; a jump past it leaves the rest unrequested.
  uint64_t window_end() const { return buffer_start_ + window_size(); }

  // Convenience decoders over Peek/Consume.
  Status ReadVarint64(uint64_t* value);
  Status ReadFixed32(uint32_t* value);
  /// Reads exactly n bytes into *out (replaced). A request extending past
  /// end-of-file is Corruption — callers pass lengths decoded from file
  /// headers, so a short read means the file is truncated, and silently
  /// clamping would mask that as success.
  Status ReadBytes(size_t n, std::string* out);

 private:
  Status Fill(size_t min_bytes);
  /// Collapses the current window (owned or pinned) so it starts at the
  /// cursor, switching back to owned mode and keeping un-consumed bytes.
  void CompactToCursor();
  /// Issues async warming of blocks past the window once the access
  /// pattern is sequential.
  void MaybePrefetch();

  // Window accessors: the buffered bytes span
  // [buffer_start_, buffer_start_ + window_size()), backed either by the
  // owned buffer_ or by a pinned cache block (zero-copy).
  const char* window_data() const {
    return pin_ != nullptr ? view_.data() : buffer_.data();
  }
  size_t window_size() const {
    return pin_ != nullptr ? view_.size() : buffer_.size();
  }

  std::unique_ptr<FileReader> file_;
  uint64_t buffer_size_;
  uint64_t position_;       // logical cursor in the file
  uint64_t buffer_start_;   // file offset of window_data()[0]
  std::string buffer_;      // owned-mode storage
  /// Pinned-mode state: pin_ keeps the cached block alive while view_
  /// points into it. pin_ == nullptr means owned mode.
  std::shared_ptr<const std::string> pin_;
  Slice view_;
  bool ever_read_ = false;
  /// Consecutive forward fills without an out-of-window reposition; >= 2
  /// marks the stream sequential for prefetch purposes.
  uint64_t sequential_fills_ = 0;
};

}  // namespace colmr

#endif  // COLMR_HDFS_READER_H_
