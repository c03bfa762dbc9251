#ifndef COLMR_CIF_CIF_H_
#define COLMR_CIF_CIF_H_

#include <memory>
#include <string>
#include <vector>

#include "mapreduce/input_format.h"

namespace colmr {

struct JobConfig;

/// ColumnInputFormat (paper Section 4.2): each split-directory written by
/// CofWriter becomes one split whose paths are exactly the column files of
/// the projected fields, so unprojected columns are never opened — CIF's
/// whole-file I/O elimination. Split locations are the nodes holding every
/// projected file locally (all replicas under CPP, usually none under the
/// default placement policy — the Section 6.4 contrast).
///
/// Configure the projection with JobConfig::projection (the paper's
/// ColumnInputFormat.setColumns) and the record construction strategy with
/// JobConfig::lazy_records. Both strategies serve the same LazyRecord and
/// differ only in its window columns, which decode each batch window
/// whole: eager, every projected column; lazy, only the predicate's
/// columns under pushdown, every other column decoding just the values the
/// map function reads. Either way a one-row batch is the smallest unit.
class ColumnInputFormat final : public InputFormat {
 public:
  std::string name() const override { return "cif"; }
  using InputFormat::GetSplits;
  Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                   const ReadContext& context,
                   std::vector<InputSplit>* splits) override;
  Status CreateRecordReader(MiniHdfs* fs, const JobConfig& config,
                            const InputSplit& split,
                            const ReadContext& context,
                            std::unique_ptr<RecordReader>* reader) override;
};

}  // namespace colmr

#endif  // COLMR_CIF_CIF_H_
