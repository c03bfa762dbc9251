#include "cif/cof.h"

#include <algorithm>

#include "cif/column_format.h"
#include "cif/column_reader.h"
#include "formats/text/text_format.h"

namespace colmr {

CofWriter::CofWriter(MiniHdfs* fs, std::string base_dir, Schema::Ptr schema,
                     CofOptions options)
    : fs_(fs),
      base_dir_(std::move(base_dir)),
      schema_(std::move(schema)),
      options_(std::move(options)) {}

Status CofWriter::Open(MiniHdfs* fs, const std::string& base_dir,
                       Schema::Ptr schema, const CofOptions& options,
                       std::unique_ptr<CofWriter>* writer) {
  if (schema->kind() != TypeKind::kRecord) {
    return Status::InvalidArgument("cof: schema must be a record");
  }
  for (const auto& field : schema->fields()) {
    const ColumnOptions& col = options.ForColumn(field.name);
    if (col.layout == ColumnLayout::kDictSkipList &&
        field.type->kind() != TypeKind::kMap) {
      return Status::InvalidArgument("cof: DCSL on non-map column " +
                                     field.name);
    }
  }
  writer->reset(new CofWriter(fs, base_dir, std::move(schema), options));
  return Status::OK();
}

std::string SplitDirName(const std::string& base_dir, int index) {
  return base_dir + "/s" + std::to_string(index);
}

Status CofWriter::OpenSplit() {
  const std::string dir = SplitDirName(base_dir_, split_index_);
  COLMR_RETURN_IF_ERROR(WriteDatasetSchema(fs_, dir, *schema_));
  columns_.clear();
  for (const auto& field : schema_->fields()) {
    std::unique_ptr<ColumnFileWriter> column;
    COLMR_RETURN_IF_ERROR(ColumnFileWriter::Create(
        fs_, dir + "/" + field.name + ".col", field.type,
        options_.ForColumn(field.name), &column));
    columns_.push_back(std::move(column));
  }
  split_open_ = true;
  return Status::OK();
}

Status CofWriter::CloseSplit() {
  for (auto& column : columns_) {
    COLMR_RETURN_IF_ERROR(column->Close());
  }
  columns_.clear();
  split_open_ = false;
  ++split_index_;
  return Status::OK();
}

uint64_t CofWriter::SplitRawBytes() const {
  uint64_t total = 0;
  for (const auto& column : columns_) total += column->raw_bytes();
  return total;
}

Status CofWriter::WriteRecord(const Value& record) {
  if (!split_open_) {
    COLMR_RETURN_IF_ERROR(OpenSplit());
  }
  const auto& values = record.elements();
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("cof: record arity mismatch");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    COLMR_RETURN_IF_ERROR(columns_[c]->Append(values[c]));
  }
  ++records_;
  if (SplitRawBytes() >= options_.split_target_bytes) {
    return CloseSplit();
  }
  return Status::OK();
}

Status CofWriter::Close() {
  if (split_open_) {
    COLMR_RETURN_IF_ERROR(CloseSplit());
  }
  return Status::OK();
}

Status AddColumn(MiniHdfs* fs, const std::string& base_dir,
                 const std::string& column_name, Schema::Ptr column_type,
                 const ColumnOptions& column_options,
                 const std::function<Value(const Value& record)>& compute) {
  std::vector<std::string> children;
  COLMR_RETURN_IF_ERROR(fs->ListDir(base_dir, &children));
  bool any = false;
  for (const std::string& child : children) {
    if (child.empty() || child[0] != 's') continue;
    const std::string split_dir = base_dir + "/" + child;
    Schema::Ptr schema;
    COLMR_RETURN_IF_ERROR(ReadDatasetSchema(fs, split_dir, &schema));
    if (schema->FieldIndex(column_name) >= 0) {
      return Status::AlreadyExists("cof: column exists: " + column_name);
    }

    // Read all existing columns of this split-directory.
    std::vector<std::unique_ptr<ColumnFileReader>> readers;
    for (const auto& field : schema->fields()) {
      std::unique_ptr<ColumnFileReader> reader;
      COLMR_RETURN_IF_ERROR(ColumnFileReader::Open(
          fs, split_dir + "/" + field.name + ".col", ReadContext{}, &reader));
      readers.push_back(std::move(reader));
    }
    const uint64_t rows = readers.empty() ? 0 : readers[0]->row_count();

    // Write just the one new file — no existing file is touched; this is
    // the whole point of the per-column-file layout.
    std::unique_ptr<ColumnFileWriter> writer;
    COLMR_RETURN_IF_ERROR(
        ColumnFileWriter::Create(fs, split_dir + "/" + column_name + ".col",
                                 column_type, column_options, &writer));
    std::vector<ColumnBatch> batches(readers.size());
    for (uint64_t done = 0; done < rows;) {
      const uint64_t n = std::min<uint64_t>(rows - done, 1024);
      for (size_t c = 0; c < readers.size(); ++c) {
        COLMR_RETURN_IF_ERROR(readers[c]->NextBatch(n, &batches[c]));
        if (batches[c].size() != n) {
          return Status::Corruption("cof: column files disagree on rows");
        }
      }
      for (uint64_t i = 0; i < n; ++i) {
        std::vector<Value> values(readers.size());
        for (size_t c = 0; c < readers.size(); ++c) {
          batches[c].MaterializeInto(i, &values[c]);
        }
        COLMR_RETURN_IF_ERROR(
            writer->Append(compute(Value::Record(std::move(values)))));
      }
      done += n;
    }
    COLMR_RETURN_IF_ERROR(writer->Close());

    // Replace the split's schema with the widened one.
    Schema::Ptr widened =
        Schema::WithField(schema, {column_name, column_type});
    COLMR_RETURN_IF_ERROR(fs->Delete(split_dir + "/" + kCifSchemaFileName));
    COLMR_RETURN_IF_ERROR(WriteDatasetSchema(fs, split_dir, *widened));
    any = true;
  }
  if (!any) return Status::NotFound("cof: no split-directories in " + base_dir);
  return Status::OK();
}

}  // namespace colmr
