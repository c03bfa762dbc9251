#include "formats/row_format.h"

#include <cstring>
#include <string_view>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "formats/text/text_format.h"
#include "mapreduce/job.h"

namespace colmr {

namespace {

constexpr size_t kSyncSize = 16;
constexpr uint32_t kSyncEscape = 0xFFFFFFFFu;
constexpr size_t kEscapeSize = 4 + kSyncSize;

}  // namespace

RowRecordReader::RowRecordReader(std::unique_ptr<BufferedReader> input,
                                 const InputSplit& split, Schema::Ptr schema)
    : input_(std::move(input)),
      offset_(split.offset),
      end_(split.offset + split.length),
      record_(std::move(schema), Value::Null()) {}

void RowRecordReader::set_schema(Schema::Ptr schema) {
  record_ = EagerRecord(std::move(schema), Value::Null());
}

bool RowRecordReader::Next() {
  if (done_ || !status_.ok()) return false;
  status_ = ReadRecord(record_.mutable_value());
  return status_.ok() && !done_;
}

Status RowInputFormat::GetSplits(MiniHdfs* fs, const JobConfig& config,
                                 const ReadContext& /*context*/,
                                 std::vector<InputSplit>* splits) {
  splits->clear();
  std::vector<std::string> files;
  COLMR_RETURN_IF_ERROR(ExpandInputPaths(fs, config.input_paths, &files));
  for (const std::string& file : files) {
    const size_t slash = file.rfind('/');
    if (slash != std::string::npos && slash + 1 < file.size() &&
        file[slash + 1] == '_') {
      continue;
    }
    std::vector<BlockInfo> blocks;
    COLMR_RETURN_IF_ERROR(fs->GetBlockLocations(file, &blocks));
    uint64_t offset = 0;
    for (const BlockInfo& block : blocks) {
      splits->push_back(InputSplit{{file}, offset, block.size, block.replicas});
      offset += block.size;
    }
  }
  return Status::OK();
}

Status RowInputFormat::CreateRecordReader(
    MiniHdfs* fs, const JobConfig& config, const InputSplit& split,
    const ReadContext& context, std::unique_ptr<RecordReader>* reader) {
  std::unique_ptr<FileReader> file;
  COLMR_RETURN_IF_ERROR(fs->Open(split.paths.at(0), context, &file));
  return OpenReader(fs, config, split, context,
                    std::make_unique<BufferedReader>(
                        std::move(file), fs->config().io_buffer_size),
                    reader);
}

// ---- Sync files ----

Status CreateSyncFile(MiniHdfs* fs, const std::string& path,
                      const Schema& schema, const char magic[4], Slice flags,
                      uint64_t marker_seed, std::unique_ptr<FileWriter>* file,
                      std::string* sync) {
  COLMR_RETURN_IF_ERROR(WriteDatasetSchema(fs, path, schema));
  COLMR_RETURN_IF_ERROR(fs->Create(path + "/part-00000", file));
  Random rng(HashBytes(path, marker_seed));
  sync->assign(kSyncSize, '\0');
  for (char& byte : *sync) {
    // Avoid 0xFF so the escape word cannot occur inside the marker.
    byte = static_cast<char>(rng.Uniform(255));
  }
  Buffer header;
  header.Append(Slice(magic, 4));
  PutLengthPrefixed(&header, schema.ToString());
  header.Append(flags);
  header.Append(*sync);
  (*file)->Append(header.AsSlice());
  return Status::OK();
}

void AppendSyncEscape(const std::string& sync, Buffer* out) {
  PutFixed32(out, kSyncEscape);
  out->Append(sync);
}

Status SyncFileReader::ReadHeader(const char magic[4], size_t n_flags,
                                  std::string* flags) {
  Slice view;
  COLMR_RETURN_IF_ERROR(input_->Peek(4, &view));
  if (view.size() < 4 || memcmp(view.data(), magic, 4) != 0) {
    return Status::Corruption(std::string(magic, 4) + ": bad magic");
  }
  input_->Consume(4);
  uint64_t schema_len;
  COLMR_RETURN_IF_ERROR(input_->ReadVarint64(&schema_len));
  std::string schema_text;
  COLMR_RETURN_IF_ERROR(input_->ReadBytes(schema_len, &schema_text));
  Schema::Ptr schema;
  COLMR_RETURN_IF_ERROR(Schema::Parse(schema_text, &schema));
  set_schema(std::move(schema));
  COLMR_RETURN_IF_ERROR(input_->ReadBytes(n_flags, flags));
  COLMR_RETURN_IF_ERROR(input_->ReadBytes(kSyncSize, &sync_));
  // A split starting inside the header (a block smaller than the header)
  // searches too: the first split reads from the header's end.
  if (offset_ == 0) return Status::OK();

  // Search the buffered bytes from the split start for the escape,
  // keeping the last kEscapeSize - 1 bytes of each window so an escape
  // spanning two windows is found.
  COLMR_RETURN_IF_ERROR(input_->Seek(offset_));
  Buffer escape;
  AppendSyncEscape(sync_, &escape);
  const std::string_view pattern(escape.data(), escape.size());
  for (;;) {
    COLMR_RETURN_IF_ERROR(input_->Peek(kEscapeSize, &view));
    if (view.size() < kEscapeSize) {
      done_ = true;  // no further escape: the split owns nothing
      return Status::OK();
    }
    const size_t at = std::string_view(view.data(), view.size()).find(pattern);
    if (at != std::string_view::npos) {
      input_->Consume(at);
      return Status::OK();
    }
    input_->Consume(view.size() - kEscapeSize + 1);
  }
}

Status SyncFileReader::AtSyncEscape(bool* at) {
  Slice view;
  COLMR_RETURN_IF_ERROR(input_->Peek(4, &view));
  uint32_t word = 0;
  if (view.size() >= 4) memcpy(&word, view.data(), 4);
  *at = view.size() >= 4 && word == kSyncEscape;
  return Status::OK();
}

Status SyncFileReader::ConsumeSync() {
  if (input_->position() >= end_) {
    done_ = true;
    return Status::OK();
  }
  Slice view;
  COLMR_RETURN_IF_ERROR(input_->Peek(kEscapeSize, &view));
  uint32_t word = 0;
  if (view.size() >= 4) memcpy(&word, view.data(), 4);
  if (view.size() < kEscapeSize || word != kSyncEscape ||
      memcmp(view.data() + 4, sync_.data(), kSyncSize) != 0) {
    return Status::Corruption("bad sync escape at offset " +
                              std::to_string(input_->position()));
  }
  input_->Consume(kEscapeSize);
  return Status::OK();
}

}  // namespace colmr
