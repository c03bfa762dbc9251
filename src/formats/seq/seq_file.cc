#include "formats/seq/seq_file.h"

#include "common/coding.h"
#include "serde/encoding.h"

namespace colmr {

namespace {

constexpr char kMagic[4] = {'S', 'E', 'Q', '6'};

/// Domain seed of the sync-marker derivation (formats/row_format.h).
constexpr uint64_t kSeqSyncSeed = 0x5345513653594e43ull;  // "SEQ6SYNC"

}  // namespace

Status SeqWriter::Open(MiniHdfs* fs, const std::string& path,
                       Schema::Ptr schema, const SeqWriterOptions& options,
                       std::unique_ptr<SeqWriter>* writer) {
  if (options.compression != SeqCompression::kNone &&
      GetCodec(options.codec) == nullptr) {
    return Status::InvalidArgument("seq: unknown codec");
  }
  const char flags[2] = {static_cast<char>(options.compression),
                         static_cast<char>(options.codec)};
  std::unique_ptr<FileWriter> file;
  std::string sync;
  COLMR_RETURN_IF_ERROR(CreateSyncFile(fs, path, *schema, kMagic,
                                       Slice(flags, 2), kSeqSyncSeed, &file,
                                       &sync));
  writer->reset(
      new SeqWriter(std::move(schema), options, std::move(file), sync));
  return Status::OK();
}

void SeqWriter::WriteSyncEscape() {
  Buffer escape;
  AppendSyncEscape(sync_, &escape);
  file_->Append(escape.AsSlice());
  bytes_since_sync_ = 0;
}

Status SeqWriter::WriteRecord(const Value& record) {
  Buffer encoded;
  COLMR_RETURN_IF_ERROR(EncodeValue(*schema_, record, &encoded));
  ++records_;

  if (options_.compression == SeqCompression::kBlock) {
    PutVarint64(&block_payload_, encoded.size());
    block_payload_.Append(encoded.AsSlice());
    ++block_records_;
    if (block_payload_.size() >= options_.block_size) {
      return FlushBlock();
    }
    return Status::OK();
  }

  Buffer value_bytes;
  if (options_.compression == SeqCompression::kRecord) {
    COLMR_RETURN_IF_ERROR(
        GetCodec(options_.codec)->Compress(encoded.AsSlice(), &value_bytes));
  } else {
    value_bytes = std::move(encoded);
  }

  if (bytes_since_sync_ >= options_.sync_interval) {
    WriteSyncEscape();
  }
  Buffer frame;
  PutVarint64(&frame, 0);  // NullWritable key
  PutVarint64(&frame, value_bytes.size());
  frame.Append(value_bytes.AsSlice());
  file_->Append(frame.AsSlice());
  bytes_since_sync_ += frame.size();
  return Status::OK();
}

Status SeqWriter::FlushBlock() {
  if (block_records_ == 0) return Status::OK();
  WriteSyncEscape();
  Buffer compressed;
  COLMR_RETURN_IF_ERROR(GetCodec(options_.codec)
                            ->Compress(block_payload_.AsSlice(), &compressed));
  Buffer frame;
  PutVarint64(&frame, block_records_);
  PutVarint64(&frame, compressed.size());
  file_->Append(frame.AsSlice());
  file_->Append(compressed.AsSlice());
  block_payload_.Clear();
  block_records_ = 0;
  return Status::OK();
}

Status SeqWriter::Close() {
  if (options_.compression == SeqCompression::kBlock) {
    COLMR_RETURN_IF_ERROR(FlushBlock());
  }
  return file_->Close();
}

namespace {

/// Reads one SEQ split: records, or in block mode the records of each
/// owned block, between the sync escapes the split owns.
class SeqRecordReader final : public SyncFileReader {
 public:
  SeqRecordReader(std::unique_ptr<BufferedReader> input,
                  const InputSplit& split)
      : SyncFileReader(std::move(input), split) {}

  Status Open() {
    std::string flags;
    COLMR_RETURN_IF_ERROR(ReadHeader(kMagic, 2, &flags));
    compression_ = static_cast<SeqCompression>(flags[0]);
    codec_ = GetCodec(static_cast<CodecType>(flags[1]));
    if (codec_ == nullptr) return Status::Corruption("seq: unknown codec");
    return Status::OK();
  }

 private:
  Status ReadRecord(Value* value) override;
  Status ReadBlock();

  SeqCompression compression_ = SeqCompression::kNone;
  const Codec* codec_ = nullptr;
  // Decompressed bytes: a record's value, or the block being drained.
  Buffer raw_;
  Slice block_cursor_;
};

Status SeqRecordReader::ReadRecord(Value* value) {
  while (block_cursor_.empty()) {
    if (input_->AtEnd()) {
      done_ = true;
      return Status::OK();
    }
    bool at_sync = false;
    COLMR_RETURN_IF_ERROR(AtSyncEscape(&at_sync));
    if (at_sync) {
      COLMR_RETURN_IF_ERROR(ConsumeSync());
      if (done_) return Status::OK();
      if (compression_ == SeqCompression::kBlock) {
        COLMR_RETURN_IF_ERROR(ReadBlock());
        break;
      }
      continue;  // none/record mode: the record after the sync
    }
    if (compression_ == SeqCompression::kBlock) {
      return Status::Corruption("seq: expected sync before block");
    }

    // Plain / record-compressed record.
    uint64_t key_len, value_len;
    COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&key_len));
    if (key_len != 0) return Status::Corruption("seq: non-null key");
    COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&value_len));
    Slice value_bytes;
    COLMR_RETURN_IF_ERROR(input_->Peek(value_len, &value_bytes));
    if (value_bytes.size() < value_len) {
      return Status::Corruption("seq: truncated record");
    }
    value_bytes = value_bytes.Prefix(value_len);
    if (compression_ == SeqCompression::kRecord) {
      raw_.Clear();
      COLMR_RETURN_IF_ERROR(codec_->Decompress(value_bytes, &raw_));
      input_->Consume(value_len);
      Slice raw = raw_.AsSlice();
      return DecodeValue(schema(), &raw, value);
    }
    Status s = DecodeValue(schema(), &value_bytes, value);
    input_->Consume(value_len);
    return s;
  }
  // Block mode: the next record of the decompressed block.
  Slice record_bytes;
  COLMR_RETURN_IF_ERROR(GetLengthPrefixed(&block_cursor_, &record_bytes));
  return DecodeValue(schema(), &record_bytes, value);
}

Status SeqRecordReader::ReadBlock() {
  uint64_t n_records, compressed_len;
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&n_records));
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&compressed_len));
  Slice compressed;
  COLMR_RETURN_IF_ERROR(input_->Peek(compressed_len, &compressed));
  if (compressed.size() < compressed_len) {
    return Status::Corruption("seq: truncated block");
  }
  raw_.Clear();
  COLMR_RETURN_IF_ERROR(
      codec_->Decompress(compressed.Prefix(compressed_len), &raw_));
  input_->Consume(compressed_len);
  block_cursor_ = raw_.AsSlice();
  return Status::OK();
}

}  // namespace

Status SeqInputFormat::OpenReader(MiniHdfs* /*fs*/,
                                  const JobConfig& /*config*/,
                                  const InputSplit& split,
                                  const ReadContext& /*context*/,
                                  std::unique_ptr<BufferedReader> input,
                                  std::unique_ptr<RecordReader>* reader) {
  auto seq = std::make_unique<SeqRecordReader>(std::move(input), split);
  COLMR_RETURN_IF_ERROR(seq->Open());
  *reader = std::move(seq);
  return Status::OK();
}

}  // namespace colmr
