#ifndef COLMR_FORMATS_SEQ_SEQ_FILE_H_
#define COLMR_FORMATS_SEQ_SEQ_FILE_H_

#include <memory>
#include <string>

#include "compress/codec.h"
#include "formats/row_format.h"
#include "mapreduce/output_format.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

// SequenceFile: the standard Hadoop binary row format (the paper's SEQ
// baseline), a sync file (formats/row_format.h). Layout:
//   header:  magic "SEQ6", length-prefixed schema text, compression mode
//            byte, codec byte, 16-byte sync marker
//   stream:  records / blocks, with a sync escape (0xFFFFFFFF + the sync
//            marker) injected at least every sync_interval bytes so block
//            splits can find a record boundary.
//   record (none/record modes):  varint key_len (0: NullWritable keys),
//            varint value_len, value bytes (record mode: codec-compressed)
//   block (block mode):          sync escape, varint record count, varint
//            compressed payload length, payload = codec(concatenated
//            varint-length-prefixed values)

/// How record values are compressed, mirroring Hadoop's three
/// SequenceFile.CompressionTypes (paper Section 6.3's SEQ variants).
enum class SeqCompression : uint8_t {
  kNone = 0,
  kRecord = 1,
  kBlock = 2,
};

struct SeqWriterOptions {
  SeqCompression compression = SeqCompression::kNone;
  CodecType codec = CodecType::kLzf;
  /// Raw bytes accumulated before a block is flushed (block mode).
  uint64_t block_size = 256 * 1024;
  /// Bytes between sync escapes (none/record modes).
  uint64_t sync_interval = 4096;
};

/// Writes a SEQ dataset directory: `_schema` plus one `part-00000` file.
class SeqWriter final : public DatasetWriter {
 public:
  static Status Open(MiniHdfs* fs, const std::string& path,
                     Schema::Ptr schema, const SeqWriterOptions& options,
                     std::unique_ptr<SeqWriter>* writer);

  Status WriteRecord(const Value& record) override;
  Status Close() override;
  uint64_t record_count() const override { return records_; }

 private:
  SeqWriter(Schema::Ptr schema, SeqWriterOptions options,
            std::unique_ptr<FileWriter> file, std::string sync)
      : schema_(std::move(schema)),
        options_(options),
        file_(std::move(file)),
        sync_(std::move(sync)) {}

  void WriteSyncEscape();
  Status FlushBlock();

  Schema::Ptr schema_;
  SeqWriterOptions options_;
  std::unique_ptr<FileWriter> file_;
  std::string sync_;
  uint64_t records_ = 0;
  uint64_t bytes_since_sync_ = 0;
  // Block mode accumulation.
  Buffer block_payload_;
  uint64_t block_records_ = 0;
};

/// InputFormat over SEQ dataset directories (the paper's
/// SequenceFileInputFormat): one split per block, snapped to sync escapes.
class SeqInputFormat final : public RowInputFormat {
 public:
  std::string name() const override { return "seq"; }

 protected:
  Status OpenReader(MiniHdfs* fs, const JobConfig& config,
                    const InputSplit& split, const ReadContext& context,
                    std::unique_ptr<BufferedReader> input,
                    std::unique_ptr<RecordReader>* reader) override;
};

}  // namespace colmr

#endif  // COLMR_FORMATS_SEQ_SEQ_FILE_H_
