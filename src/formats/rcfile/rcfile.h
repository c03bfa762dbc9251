#ifndef COLMR_FORMATS_RCFILE_RCFILE_H_
#define COLMR_FORMATS_RCFILE_RCFILE_H_

#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "formats/row_format.h"
#include "mapreduce/output_format.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

// RCFile (He et al., ICDE 2011) — the PAX-style baseline the paper
// compares CIF against (Section 4.1), a sync file (formats/row_format.h).
// Every HDFS block is packed with row-groups; within a row-group the data
// region is laid out column by column:
//   header:     magic "RCF1", length-prefixed schema text, codec byte,
//               16-byte sync marker
//   row-group:  sync escape (0xFFFFFFFF + sync), metadata region, data
//               region
//   metadata:   varint row count, varint column count, per column
//               {varint stored length, varint raw length}, then per column
//               the varint encoded lengths of each of its values
//   data:       column 0 bytes, column 1 bytes, ... (each optionally
//               codec-compressed as one unit)
//
// A projected scan must still interpret every row-group's metadata and —
// because reads happen at io.file.buffer.size granularity — fetches far
// more than the projected column bytes. Both overheads are the ones the
// paper measures in Figures 7, 9 and 11.

struct RcFileWriterOptions {
  /// Raw bytes accumulated before a row-group is flushed. Paper default
  /// 4 MB (Section 6.2); Fig. 9 sweeps 1/4/16 MB.
  uint64_t row_group_size = 4ull << 20;
  CodecType codec = CodecType::kNone;
};

/// Writes an RCFile dataset directory: `_schema` + `part-00000`.
class RcFileWriter final : public DatasetWriter {
 public:
  static Status Open(MiniHdfs* fs, const std::string& path,
                     Schema::Ptr schema, const RcFileWriterOptions& options,
                     std::unique_ptr<RcFileWriter>* writer);

  Status WriteRecord(const Value& record) override;
  Status Close() override;
  uint64_t record_count() const override { return records_; }

 private:
  RcFileWriter(Schema::Ptr schema, RcFileWriterOptions options,
               std::unique_ptr<FileWriter> file, std::string sync)
      : schema_(std::move(schema)),
        options_(options),
        file_(std::move(file)),
        sync_(std::move(sync)),
        column_data_(schema_->fields().size()),
        value_lengths_(schema_->fields().size()) {}

  Status FlushRowGroup();

  Schema::Ptr schema_;
  RcFileWriterOptions options_;
  std::unique_ptr<FileWriter> file_;
  std::string sync_;
  uint64_t records_ = 0;

  std::vector<Buffer> column_data_;
  std::vector<std::vector<uint32_t>> value_lengths_;
  uint64_t group_rows_ = 0;
  uint64_t group_raw_bytes_ = 0;
};

/// InputFormat over RCFile dataset directories: one split per block,
/// snapped to row-group sync escapes. Honors JobConfig::projection
/// (column names, resolved against the dataset's `_schema`), which RCFile
/// uses for I/O elimination within row-groups, the partial pushdown the
/// paper contrasts with CIF's whole-file elimination. Unprojected columns
/// read as Null.
class RcFileInputFormat final : public RowInputFormat {
 public:
  std::string name() const override { return "rcfile"; }

 protected:
  Status OpenReader(MiniHdfs* fs, const JobConfig& config,
                    const InputSplit& split, const ReadContext& context,
                    std::unique_ptr<BufferedReader> input,
                    std::unique_ptr<RecordReader>* reader) override;
};

}  // namespace colmr

#endif  // COLMR_FORMATS_RCFILE_RCFILE_H_
