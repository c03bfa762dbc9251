#include "cif/column_writer.h"

#include "cif/column_format.h"
#include "common/coding.h"
#include "serde/encoding.h"

namespace colmr {

ColumnFileWriter::ColumnFileWriter(std::unique_ptr<FileWriter> file,
                                   Schema::Ptr type,
                                   const ColumnOptions& options)
    : file_(std::move(file)), type_(std::move(type)), options_(options) {}

Status ColumnFileWriter::Create(MiniHdfs* fs, const std::string& path,
                                Schema::Ptr type, const ColumnOptions& options,
                                std::unique_ptr<ColumnFileWriter>* writer) {
  if (options.layout == ColumnLayout::kDictSkipList &&
      type->kind() != TypeKind::kMap) {
    return Status::InvalidArgument(
        "cif: dictionary-compressed skip lists require a map column");
  }
  if (options.layout == ColumnLayout::kCompressedBlocks &&
      GetCodec(options.codec) == nullptr) {
    return Status::InvalidArgument("cif: unknown codec");
  }
  std::unique_ptr<FileWriter> file;
  COLMR_RETURN_IF_ERROR(fs->Create(path, &file));
  writer->reset(new ColumnFileWriter(std::move(file), std::move(type), options));
  return Status::OK();
}

Status ColumnFileWriter::Append(const Value& value) {
  const size_t before = values_.size();
  if (options_.layout == ColumnLayout::kDictSkipList) {
    // Dict-encode: per 1000-row group, keys become varint ids.
    const uint64_t group = row_count() / kCifDictInterval;
    if (group == dicts_.size()) dicts_.emplace_back();
    StringDictionary& dict = dicts_[group];
    if (value.kind() != TypeKind::kMap) {
      return Status::InvalidArgument("cif: DCSL value must be a map");
    }
    const auto& entries = value.map_entries();
    PutVarint64(&values_, entries.size());
    for (const auto& [key, v] : entries) {
      PutVarint64(&values_, dict.Intern(key));
      COLMR_RETURN_IF_ERROR(EncodeValue(*type_->element(), v, &values_));
    }
  } else {
    COLMR_RETURN_IF_ERROR(EncodeValue(*type_, value, &values_));
  }
  sizes_.push_back(static_cast<uint32_t>(values_.size() - before));
  stats_.Observe(value);
  return Status::OK();
}

namespace {

/// Number of fixed32 skip entries in the skip block at row r.
int SkipEntryCount(uint64_t r) {
  return 1 + (r % kCifSkip1 == 0 ? 1 : 0) + (r % kCifSkip2 == 0 ? 1 : 0);
}

}  // namespace

Status ColumnFileWriter::CloseSkipList(
    Buffer* body, std::vector<uint64_t>* group_offsets) const {
  const bool has_dict = options_.layout == ColumnLayout::kDictSkipList;
  const uint64_t n = sizes_.size();

  // Serialize the dictionaries once so their sizes are known.
  std::vector<std::string> dict_bytes;
  if (has_dict) {
    dict_bytes.reserve(dicts_.size());
    for (const StringDictionary& dict : dicts_) {
      Buffer b;
      dict.Serialize(&b);
      dict_bytes.push_back(b.TakeString());
    }
  }

  // Pass 1: compute the body offset of every boundary structure and every
  // value (this is why skip-list loading double-buffers: HDFS appends
  // cannot be patched after the fact).
  std::vector<uint64_t> block_pos((n + kCifSkip0 - 1) / kCifSkip0, 0);
  std::vector<uint64_t> value_pos(n, 0);
  uint64_t offset = 0;
  for (uint64_t r = 0; r < n; ++r) {
    if (r % kCifSkip0 == 0) {
      block_pos[r / kCifSkip0] = offset;
      if (has_dict && r % kCifDictInterval == 0) {
        offset += 4 + dict_bytes[r / kCifDictInterval].size();
      }
      offset += 4 * SkipEntryCount(r);
    }
    value_pos[r] = offset;
    offset += sizes_[r];
  }
  const uint64_t body_end = offset;
  for (uint64_t r = 0; r < n; r += kCifStatsRowGroup) {
    group_offsets->push_back(block_pos[r / kCifSkip0]);
  }
  auto target = [&](uint64_t row) {
    return row < n ? block_pos[row / kCifSkip0] : body_end;
  };

  // Pass 2: emit.
  Slice all_values = values_.AsSlice();
  size_t value_offset = 0;
  for (uint64_t r = 0; r < n; ++r) {
    if (r % kCifSkip0 == 0) {
      if (has_dict && r % kCifDictInterval == 0) {
        const std::string& d = dict_bytes[r / kCifDictInterval];
        PutFixed32(body, static_cast<uint32_t>(d.size()));
        body->Append(d);
      }
      const uint64_t vstart = value_pos[r];
      if (r % kCifSkip2 == 0) {
        PutFixed32(body, static_cast<uint32_t>(target(r + kCifSkip2) - vstart));
      }
      if (r % kCifSkip1 == 0) {
        PutFixed32(body, static_cast<uint32_t>(target(r + kCifSkip1) - vstart));
      }
      PutFixed32(body, static_cast<uint32_t>(target(r + kCifSkip0) - vstart));
    }
    body->Append(all_values.SubSlice(value_offset, sizes_[r]));
    value_offset += sizes_[r];
  }
  return Status::OK();
}

Status ColumnFileWriter::CloseCompressedBlocks(Buffer* body) const {
  const Codec* codec = GetCodec(options_.codec);
  Slice all_values = values_.AsSlice();
  size_t value_offset = 0;
  size_t r = 0;
  const size_t n = sizes_.size();
  while (r < n) {
    // Greedily fill one block up to block_size raw bytes (at least one
    // value per block).
    size_t block_rows = 0;
    size_t block_bytes = 0;
    while (r + block_rows < n &&
           (block_rows == 0 || block_bytes < options_.block_size)) {
      block_bytes += sizes_[r + block_rows];
      ++block_rows;
    }
    Buffer compressed;
    COLMR_RETURN_IF_ERROR(codec->Compress(
        all_values.SubSlice(value_offset, block_bytes), &compressed));
    PutVarint64(body, block_rows);
    PutVarint64(body, compressed.size());
    body->Append(compressed.AsSlice());
    value_offset += block_bytes;
    r += block_rows;
  }
  return Status::OK();
}

Status ColumnFileWriter::Close() {
  Buffer header;
  header.Append(Slice(kCifColumnMagic, 4));
  header.PushBack(static_cast<char>(options_.layout));
  PutVarint64(&header, row_count());
  PutLengthPrefixed(&header, type_->ToString());
  if (options_.layout == ColumnLayout::kCompressedBlocks) {
    header.PushBack(static_cast<char>(options_.codec));
    PutVarint64(&header, options_.block_size);
  }
  file_->Append(header.AsSlice());

  // Body offset of each rowgroup's first row, for the v2 footer.
  std::vector<uint64_t> group_offsets;
  Buffer body;
  switch (options_.layout) {
    case ColumnLayout::kPlain: {
      file_->Append(values_.AsSlice());
      uint64_t offset = 0;
      for (uint64_t r = 0; r < sizes_.size(); ++r) {
        if (r % kCifStatsRowGroup == 0) group_offsets.push_back(offset);
        offset += sizes_[r];
      }
      break;
    }
    case ColumnLayout::kSkipList:
    case ColumnLayout::kDictSkipList:
      COLMR_RETURN_IF_ERROR(CloseSkipList(&body, &group_offsets));
      break;
    case ColumnLayout::kCompressedBlocks:
      COLMR_RETURN_IF_ERROR(CloseCompressedBlocks(&body));
      break;
  }
  file_->Append(body.AsSlice());
  for (uint64_t& offset : group_offsets) offset += header.size();
  // Zone-map footer, after the body. Readers stop at row_count, and every
  // skip-list target clamps to body end, so the trailing bytes are
  // invisible to scans; only ReadColumnStats looks at them.
  // Compressed-block rowgroups do not start on a block: v1, no offsets.
  Buffer footer;
  stats_.AppendFooter(
      options_.layout == ColumnLayout::kCompressedBlocks ? nullptr
                                                         : &group_offsets,
      &footer);
  file_->Append(footer.AsSlice());
  return file_->Close();
}

}  // namespace colmr
