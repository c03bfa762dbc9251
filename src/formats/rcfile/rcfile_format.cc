#include "formats/rcfile/rcfile_format.h"

#include "formats/text/text_format.h"
#include "mapreduce/job.h"
#include "serde/predicate.h"

namespace colmr {

namespace {

class RcFileRecordReader final : public RecordReader {
 public:
  explicit RcFileRecordReader(std::unique_ptr<RcFileScanner> scanner)
      : scanner_(std::move(scanner)),
        record_(scanner_->schema(), Value::Null()) {}

  bool Next() override {
    if (!scanner_->Next()) return false;
    record_ = EagerRecord(scanner_->schema(), scanner_->record_value());
    return true;
  }

  Record& record() override { return record_; }
  Status status() const override { return scanner_->status(); }

 private:
  std::unique_ptr<RcFileScanner> scanner_;
  EagerRecord record_;
};

}  // namespace

Status RcFileInputFormat::GetSplits(MiniHdfs* fs, const JobConfig& config,
                                    const ReadContext& /*context*/,
                                    std::vector<InputSplit>* splits) {
  // Planning only touches namenode metadata; no data blocks are read.
  return ComputeFileSplits(fs, config.input_paths, config.split_size, splits);
}

Status RcFileInputFormat::CreateRecordReader(
    MiniHdfs* fs, const JobConfig& config, const InputSplit& split,
    const ReadContext& context, std::unique_ptr<RecordReader>* reader) {
  const std::string& file = split.paths.at(0);
  const std::string dir = file.substr(0, file.rfind('/'));
  Schema::Ptr schema;
  COLMR_RETURN_IF_ERROR(ReadDatasetSchema(fs, dir, &schema, context));

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

  std::unique_ptr<RcFileScanner> scanner;
  COLMR_RETURN_IF_ERROR(RcFileScanner::Open(fs, file, context, split.offset,
                                            split.length,
                                            std::move(projection), &scanner));
  reader->reset(new RcFileRecordReader(std::move(scanner)));
  return Status::OK();
}

}  // namespace colmr
