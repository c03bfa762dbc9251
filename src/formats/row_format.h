#ifndef COLMR_FORMATS_ROW_FORMAT_H_
#define COLMR_FORMATS_ROW_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "hdfs/reader.h"
#include "mapreduce/input_format.h"
#include "serde/record.h"

namespace colmr {

// The row formats (TXT, SEQ, RCFile) are read the way Hadoop reads them:
// one split per HDFS block of every part file, whose reader snaps the
// block's byte range to record boundaries. TXT snaps to newlines; SEQ and
// RCFile snap to sync escapes, through the sync-file core below. A format
// supplies only how it frames and decodes a record.

/// Reads the records of one row-format split into one reused EagerRecord.
class RowRecordReader : public RecordReader {
 public:
  bool Next() final;
  Record& record() final { return record_; }
  Status status() const final { return status_; }

 protected:
  /// `input` reads the split's part file. A null schema is set later
  /// (set_schema), for files that carry their own.
  RowRecordReader(std::unique_ptr<BufferedReader> input,
                  const InputSplit& split, Schema::Ptr schema);

  /// Decodes the next record of the split into *value, the value of
  /// record() left by the last call; sets done_ instead when the split
  /// has no more records.
  virtual Status ReadRecord(Value* value) = 0;

  const Schema& schema() const { return record_.schema(); }
  void set_schema(Schema::Ptr schema);

  std::unique_ptr<BufferedReader> input_;
  const uint64_t offset_;
  const uint64_t end_;  // offset_ + the split's length
  bool done_ = false;

 private:
  EagerRecord record_;
  Status status_;
};

/// The InputFormat every row format shares: one split per HDFS block of
/// every part file (files whose basename starts with '_', such as the
/// dataset's _schema, are metadata), located at the block's replicas.
/// Planning reads only namenode metadata.
class RowInputFormat : public InputFormat {
 public:
  using InputFormat::GetSplits;
  Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                   const ReadContext& context,
                   std::vector<InputSplit>* splits) final;
  /// Opens the split's part file behind a BufferedReader of the cluster's
  /// io_buffer_size, then the format's reader over it.
  Status CreateRecordReader(MiniHdfs* fs, const JobConfig& config,
                            const InputSplit& split,
                            const ReadContext& context,
                            std::unique_ptr<RecordReader>* reader) final;

 protected:
  virtual Status OpenReader(MiniHdfs* fs, const JobConfig& config,
                            const InputSplit& split,
                            const ReadContext& context,
                            std::unique_ptr<BufferedReader> input,
                            std::unique_ptr<RecordReader>* reader) = 0;
};

// ---- Sync files: SEQ and RCFile ----
//   header:  4-byte magic, length-prefixed schema text, the format's flag
//            bytes, 16-byte sync marker
//   stream:  the format's records, with sync escapes (0xFFFFFFFF + the
//            marker) at record boundaries
// The marker is a pure function of (the format's seed, the dataset path)
// through the specified FNV-1a + splitmix64 hash (common/hash.h), never
// std::hash, so a file written on one platform matches goldens from
// another. SeqTest/RcFileTest.SyncMarkerBytesArePinned pin the bytes.

/// Starts a sync-file dataset: writes `<path>/_schema`, creates
/// `<path>/part-00000` as *file, derives its marker into *sync from the
/// path and `marker_seed`, and writes the header.
Status CreateSyncFile(MiniHdfs* fs, const std::string& path,
                      const Schema& schema, const char magic[4], Slice flags,
                      uint64_t marker_seed, std::unique_ptr<FileWriter>* file,
                      std::string* sync);

/// Appends a sync escape with marker `sync` to *out.
void AppendSyncEscape(const std::string& sync, Buffer* out);

/// A RowRecordReader over a sync file. As in Hadoop, a split owns the sync
/// regions whose escape starts in [offset, offset + length).
class SyncFileReader : public RowRecordReader {
 protected:
  SyncFileReader(std::unique_ptr<BufferedReader> input,
                 const InputSplit& split)
      : RowRecordReader(std::move(input), split, nullptr) {}

  /// Reads the header, checking `magic`, sets the record schema and
  /// returns the format's `n_flags` flag bytes in *flags. Every split but
  /// the first then moves to the first escape at or after its start
  /// (ConsumeSync decides whether the split owns it), and is done_ when
  /// none follows.
  Status ReadHeader(const char magic[4], size_t n_flags, std::string* flags);

  /// Whether the cursor is at a sync escape word.
  Status AtSyncEscape(bool* at);

  /// Consumes the sync escape at the cursor, checking its marker. An
  /// escape at or past the split's end starts the next split's region:
  /// the split is done_ instead.
  Status ConsumeSync();

 private:
  std::string sync_;
};

}  // namespace colmr

#endif  // COLMR_FORMATS_ROW_FORMAT_H_
