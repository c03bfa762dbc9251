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
/// The window is a view of immutable block bytes (DESIGN.md §9): each
/// fill is one FileReader::Read, whose view pins the block it lies in, or
/// a fresh buffer when it spans two. The unread tail of the old window
/// carries over as a view inside the new view's block; only a tail lying
/// in the previous block is copied, joined with the new bytes. An empty
/// window may refill from a cached block alone. The ReadContext's
/// `prefetch_depth` schedules asynchronous warming of upcoming blocks once
/// the access pattern looks sequential (two fills without an
/// out-of-window reposition).
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

  /// The shared pin keeping the window's bytes alive (null while the
  /// window is empty). A caller that retains it extends the lifetime of
  /// the last Peek's slices past future reader operations — how the batch
  /// scan hands out strings without copying them (DESIGN.md §10).
  std::shared_ptr<const std::string> PinnedWindow() const { return pin_; }

  /// Repositions the cursor. Jumping outside the buffered range counts a
  /// seek and discards the window (prefetched bytes stay charged).
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
  uint64_t window_end() const { return window_start_ + window_.size(); }

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
  /// Empties the window and puts the cursor at `offset`.
  void Reposition(uint64_t offset);
  /// Issues async warming of blocks past the window once the access
  /// pattern is sequential.
  void MaybePrefetch();

  std::unique_ptr<FileReader> file_;
  uint64_t buffer_size_;
  uint64_t position_ = 0;      // logical cursor in the file
  uint64_t window_start_ = 0;  // file offset of window_[0]
  /// The buffered bytes, a view kept alive by pin_.
  Slice window_;
  std::shared_ptr<const std::string> pin_;
  bool ever_read_ = false;
  /// Consecutive forward fills without an out-of-window reposition; >= 2
  /// marks the stream sequential for prefetch purposes.
  uint64_t sequential_fills_ = 0;
};

}  // namespace colmr

#endif  // COLMR_HDFS_READER_H_
