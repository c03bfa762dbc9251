#include "formats/rcfile/rcfile.h"

#include <algorithm>

#include "common/coding.h"
#include "formats/text/text_format.h"
#include "mapreduce/job.h"
#include "serde/encoding.h"
#include "serde/predicate.h"

namespace colmr {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'F', '1'};

/// Domain seed of the sync-marker derivation (formats/row_format.h).
constexpr uint64_t kRcSyncSeed = 0x5243463153594e43ull;  // "RCF1SYNC"

}  // namespace

Status RcFileWriter::Open(MiniHdfs* fs, const std::string& path,
                          Schema::Ptr schema,
                          const RcFileWriterOptions& options,
                          std::unique_ptr<RcFileWriter>* writer) {
  if (schema->kind() != TypeKind::kRecord) {
    return Status::InvalidArgument("rcfile: schema must be a record");
  }
  if (GetCodec(options.codec) == nullptr) {
    return Status::InvalidArgument("rcfile: unknown codec");
  }
  const char flags[1] = {static_cast<char>(options.codec)};
  std::unique_ptr<FileWriter> file;
  std::string sync;
  COLMR_RETURN_IF_ERROR(CreateSyncFile(fs, path, *schema, kMagic,
                                       Slice(flags, 1), kRcSyncSeed, &file,
                                       &sync));
  writer->reset(
      new RcFileWriter(std::move(schema), options, std::move(file), sync));
  return Status::OK();
}

Status RcFileWriter::WriteRecord(const Value& record) {
  const auto& fields = schema_->fields();
  const auto& values = record.elements();
  if (values.size() != fields.size()) {
    return Status::InvalidArgument("rcfile: record arity mismatch");
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    const size_t before = column_data_[c].size();
    COLMR_RETURN_IF_ERROR(
        EncodeValue(*fields[c].type, values[c], &column_data_[c]));
    const size_t len = column_data_[c].size() - before;
    value_lengths_[c].push_back(static_cast<uint32_t>(len));
    group_raw_bytes_ += len;
  }
  ++group_rows_;
  ++records_;
  if (group_raw_bytes_ >= options_.row_group_size) {
    return FlushRowGroup();
  }
  return Status::OK();
}

Status RcFileWriter::FlushRowGroup() {
  if (group_rows_ == 0) return Status::OK();
  const size_t n_cols = column_data_.size();
  const Codec* codec = GetCodec(options_.codec);

  // Compress each column region as one unit.
  std::vector<uint64_t> raw_lengths(n_cols);
  std::vector<Buffer> stored(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    raw_lengths[c] = column_data_[c].size();
    if (options_.codec == CodecType::kNone) {
      stored[c] = std::move(column_data_[c]);
    } else {
      COLMR_RETURN_IF_ERROR(
          codec->Compress(column_data_[c].AsSlice(), &stored[c]));
    }
  }

  Buffer out;
  AppendSyncEscape(sync_, &out);
  // Metadata region.
  PutVarint64(&out, group_rows_);
  PutVarint64(&out, n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    PutVarint64(&out, stored[c].size());
    PutVarint64(&out, raw_lengths[c]);
  }
  for (size_t c = 0; c < n_cols; ++c) {
    for (uint32_t len : value_lengths_[c]) {
      PutVarint64(&out, len);
    }
  }
  // Data region.
  for (size_t c = 0; c < n_cols; ++c) {
    out.Append(stored[c].AsSlice());
  }
  file_->Append(out.AsSlice());

  for (size_t c = 0; c < n_cols; ++c) {
    column_data_[c].Clear();
    value_lengths_[c].clear();
  }
  group_rows_ = 0;
  group_raw_bytes_ = 0;
  return Status::OK();
}

Status RcFileWriter::Close() {
  COLMR_RETURN_IF_ERROR(FlushRowGroup());
  return file_->Close();
}

namespace {

/// Reads the owned row-groups of one RCFile split, materializing only the
/// projected columns.
class RcFileRecordReader final : public SyncFileReader {
 public:
  RcFileRecordReader(std::unique_ptr<BufferedReader> input,
                     const InputSplit& split)
      : SyncFileReader(std::move(input), split) {}

  /// projection: indices of the columns to materialize; empty = all.
  Status Open(std::vector<int> projection) {
    std::string flags;
    COLMR_RETURN_IF_ERROR(ReadHeader(kMagic, 1, &flags));
    codec_ = GetCodec(static_cast<CodecType>(flags[0]));
    if (codec_ == nullptr) return Status::Corruption("rcfile: unknown codec");
    const size_t n_fields = schema().fields().size();
    if (projection.empty()) {
      for (size_t c = 0; c < n_fields; ++c) {
        projection.push_back(static_cast<int>(c));
      }
    }
    for (int c : projection) {
      if (c < 0 || c >= static_cast<int>(n_fields)) {
        return Status::InvalidArgument(
            "rcfile: projected column out of range");
      }
    }
    std::sort(projection.begin(), projection.end());
    projection_ = std::move(projection);
    return Status::OK();
  }

 private:
  Status ReadRecord(Value* value) override;
  Status ReadRowGroup();

  const Codec* codec_ = nullptr;
  std::vector<int> projection_;  // sorted column indices

  // Current row-group state.
  uint64_t group_rows_ = 0;
  uint64_t group_row_cursor_ = 0;
  std::vector<Buffer> column_bytes_;   // decompressed, projected only
  std::vector<Slice> column_cursors_;  // per projected column
};

Status RcFileRecordReader::ReadRowGroup() {
  // At the sync escape of a row-group (or EOF / next split's group).
  if (input_->AtEnd()) {
    done_ = true;
    return Status::OK();
  }
  COLMR_RETURN_IF_ERROR(ConsumeSync());
  if (done_) return Status::OK();

  // Metadata region — interpreted for every row-group regardless of the
  // projection (the per-group CPU overhead the paper calls out).
  const size_t n_fields = schema().fields().size();
  uint64_t n_rows, n_cols;
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&n_rows));
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&n_cols));
  if (n_cols != n_fields) {
    return Status::Corruption("rcfile: column count mismatch");
  }
  std::vector<uint64_t> stored_len(n_cols), raw_len(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&stored_len[c]));
    COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&raw_len[c]));
  }
  for (size_t c = 0; c < n_cols; ++c) {
    for (uint64_t r = 0; r < n_rows; ++r) {
      uint64_t len;
      COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&len));
    }
  }

  // Data region: fetch only the projected columns, seeking over the rest.
  const uint64_t data_start = input_->position();
  std::vector<uint64_t> column_offsets(n_cols + 1);
  column_offsets[0] = data_start;
  for (size_t c = 0; c < n_cols; ++c) {
    column_offsets[c + 1] = column_offsets[c] + stored_len[c];
  }

  column_bytes_.assign(projection_.size(), Buffer());
  column_cursors_.assign(projection_.size(), Slice());
  for (size_t p = 0; p < projection_.size(); ++p) {
    const int c = projection_[p];
    COLMR_RETURN_IF_ERROR(input_->Seek(column_offsets[c]));
    Slice stored;
    COLMR_RETURN_IF_ERROR(input_->Peek(stored_len[c], &stored));
    if (stored.size() < stored_len[c]) {
      return Status::Corruption("rcfile: truncated column region");
    }
    stored = stored.Prefix(stored_len[c]);
    if (codec_->type() == CodecType::kNone) {
      column_bytes_[p].Append(stored);
    } else {
      COLMR_RETURN_IF_ERROR(codec_->Decompress(stored, &column_bytes_[p]));
    }
    input_->Consume(stored_len[c]);
  }
  for (size_t p = 0; p < projection_.size(); ++p) {
    column_cursors_[p] = column_bytes_[p].AsSlice();
  }
  // Leave the stream at the start of the next row-group.
  COLMR_RETURN_IF_ERROR(input_->Seek(column_offsets[n_cols]));

  group_rows_ = n_rows;
  group_row_cursor_ = 0;
  return Status::OK();
}

Status RcFileRecordReader::ReadRecord(Value* value) {
  while (group_row_cursor_ >= group_rows_) {
    COLMR_RETURN_IF_ERROR(ReadRowGroup());
    if (done_) return Status::OK();
  }
  // Unprojected columns stay Null in the reused record.
  if (value->kind() != TypeKind::kRecord) {
    *value = Value::Record(std::vector<Value>(schema().fields().size()));
  }
  std::vector<Value>& fields = *value->mutable_elements();
  for (size_t p = 0; p < projection_.size(); ++p) {
    const int c = projection_[p];
    COLMR_RETURN_IF_ERROR(DecodeValue(*schema().fields()[c].type,
                                      &column_cursors_[p], &fields[c]));
  }
  ++group_row_cursor_;
  return Status::OK();
}

}  // namespace

Status RcFileInputFormat::OpenReader(MiniHdfs* fs, const JobConfig& config,
                                     const InputSplit& split,
                                     const ReadContext& context,
                                     std::unique_ptr<BufferedReader> input,
                                     std::unique_ptr<RecordReader>* reader) {
  const std::string& file = split.paths.at(0);
  Schema::Ptr schema;
  COLMR_RETURN_IF_ERROR(ReadDatasetSchema(
      fs, file.substr(0, file.rfind('/')), &schema, context));
  std::vector<int> projection;
  for (const std::string& name : config.projection) {
    const int index = schema->FieldIndex(name);
    if (index < 0) {
      return Status::InvalidArgument("rcfile: unknown projected column " +
                                     name);
    }
    projection.push_back(index);
  }
  // The predicate's columns too (an empty projection reads them all).
  if (!projection.empty() && config.predicate != nullptr) {
    AddPredicateColumns(*config.predicate, *schema, &projection, nullptr);
  }

  auto rc = std::make_unique<RcFileRecordReader>(std::move(input), split);
  COLMR_RETURN_IF_ERROR(rc->Open(std::move(projection)));
  *reader = std::move(rc);
  return Status::OK();
}

}  // namespace colmr
