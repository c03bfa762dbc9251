#ifndef COLMR_FORMATS_TEXT_TEXT_FORMAT_H_
#define COLMR_FORMATS_TEXT_TEXT_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "formats/row_format.h"
#include "mapreduce/output_format.h"
#include "serde/record.h"

namespace colmr {

// The "naive" baseline of the paper's experiments: records as delimited
// text lines that must be re-parsed on every scan. A dataset is a
// directory holding a `_schema` file and one or more `part-*` files of
// '\t'-separated fields, one record per line. Strings are quoted and
// escaped; arrays/maps/records use a JSON-like syntax (Value::ToString).

/// Renders one record as a text line (no trailing newline).
std::string FormatTextRecord(const Schema& schema, const Value& record);

/// Parses a text line back into a record conforming to schema. This parse
/// is the CPU cost that makes TXT 3x slower than SEQ (paper Section 6.2).
Status ParseTextRecord(const Schema& schema, Slice line, Value* record);

/// Writes a TXT dataset directory.
class TextWriter final : public DatasetWriter {
 public:
  /// Creates `<path>/_schema` and `<path>/part-00000`.
  static Status Open(MiniHdfs* fs, const std::string& path,
                     Schema::Ptr schema, std::unique_ptr<TextWriter>* writer);

  Status WriteRecord(const Value& record) override;
  Status Close() override;
  uint64_t record_count() const override { return records_; }

 private:
  TextWriter(Schema::Ptr schema, std::unique_ptr<FileWriter> file)
      : schema_(std::move(schema)), file_(std::move(file)) {}

  Schema::Ptr schema_;
  std::unique_ptr<FileWriter> file_;
  uint64_t records_ = 0;
};

/// InputFormat over TXT dataset directories: one split per block,
/// snapped to line boundaries, exactly like Hadoop's TextInputFormat.
class TextInputFormat final : public RowInputFormat {
 public:
  std::string name() const override { return "txt"; }

 protected:
  Status OpenReader(MiniHdfs* fs, const JobConfig& config,
                    const InputSplit& split, const ReadContext& context,
                    std::unique_ptr<BufferedReader> input,
                    std::unique_ptr<RecordReader>* reader) override;
};

/// Reads the `_schema` file of a dataset directory, accounting the I/O to
/// `context` (metrics/trace/locality of the task or planner reading it).
Status ReadDatasetSchema(MiniHdfs* fs, const std::string& dataset_dir,
                         Schema::Ptr* schema,
                         const ReadContext& context = {});

/// Writes `<dataset_dir>/_schema`.
Status WriteDatasetSchema(MiniHdfs* fs, const std::string& dataset_dir,
                          const Schema& schema);

}  // namespace colmr

#endif  // COLMR_FORMATS_TEXT_TEXT_FORMAT_H_
