#ifndef COLMR_MAPREDUCE_INPUT_FORMAT_H_
#define COLMR_MAPREDUCE_INPUT_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "serde/record.h"

namespace colmr {

struct JobConfig;

/// A unit of map-task scheduling: a non-overlapping partition of the input
/// (paper Section 2). Row formats produce one split per HDFS block of a
/// file; CIF produces one split per split-directory (a set of column
/// files).
struct InputSplit {
  /// Files the split reads. Row formats: exactly one. CIF: one per
  /// projected column plus the schema file.
  std::vector<std::string> paths;
  /// Byte range within paths[0] for row formats ([0, file size) for CIF).
  uint64_t offset = 0;
  uint64_t length = 0;
  /// Nodes on which every path of the split is fully local. Used by the
  /// scheduler for locality-aware assignment; may be empty (Fig. 3a).
  std::vector<NodeId> locations;
};

/// Iterates the records of one split. The Next()/record() protocol mirrors
/// Hadoop's RecordReader: the Record reference stays valid until the next
/// call to Next().
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Advances to the next record. Returns false at end of split or on
  /// error; check status() to distinguish.
  virtual bool Next() = 0;

  /// The current record. Only valid after Next() returned true.
  virtual Record& record() = 0;

  /// OK unless iteration stopped due to an error.
  virtual Status status() const = 0;

  // ---- Batch protocol (DESIGN.md §10) ----
  // The engine drives every reader batch-at-a-time, up to
  // JobConfig::batch_rows rows: FillBatch makes up to max_rows records
  // resident, RecordAt addresses them. The base implementation adapts a
  // Next()/record() reader as one-row batches, so row formats participate
  // without changes; CIF overrides both to decode columns in bulk, and
  // serves its own Next()/record() as one-row batches.

  /// Makes up to max_rows records resident and returns how many (0 = end
  /// of split or error; check status()). Invalidates the previous batch,
  /// including every Record obtained through RecordAt — the batched form
  /// of Hadoop's record-reuse contract.
  virtual uint64_t FillBatch(uint64_t max_rows) {
    (void)max_rows;
    return Next() ? 1 : 0;
  }

  /// The i'th resident record, i < the last FillBatch return value.
  virtual Record& RecordAt(uint64_t i) {
    (void)i;
    return record();
  }

  /// Selection over the current batch (DESIGN.md §13): when non-null, the
  /// reader has already evaluated the job predicate and the engine must
  /// map exactly the rows whose indices appear here (ascending, each <
  /// the last FillBatch return value), skipping the rest. Null (the
  /// default) means the reader made no selection and the engine filters
  /// rows itself. Valid until the next FillBatch call.
  virtual const std::vector<uint32_t>* selection() const { return nullptr; }
};

/// The central Hadoop extensibility point the paper builds on (Section 2):
/// generates splits for the scheduler and turns a split into typed records
/// for the map function.
class InputFormat {
 public:
  virtual ~InputFormat() = default;

  virtual std::string name() const = 0;

  /// Enumerates the splits of the job's input paths. The read context
  /// carries the metrics/trace sinks of the job doing the planning, so
  /// footer and schema reads account to the job rather than the process.
  virtual Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                           const ReadContext& context,
                           std::vector<InputSplit>* splits) = 0;

  /// Convenience overload for context-free callers (tests, tools).
  /// Derived classes re-expose it with `using InputFormat::GetSplits`.
  Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                   std::vector<InputSplit>* splits) {
    return GetSplits(fs, config, ReadContext{}, splits);
  }

  /// Opens a reader over one split in the given read context (the node the
  /// map task was scheduled on, plus its IoStats sink).
  virtual Status CreateRecordReader(
      MiniHdfs* fs, const JobConfig& config, const InputSplit& split,
      const ReadContext& context,
      std::unique_ptr<RecordReader>* reader) = 0;
};

/// Expands a path to the files beneath it: a file path yields itself; a
/// directory yields all (recursive) files under it, sorted.
Status ExpandInputPaths(MiniHdfs* fs, const std::vector<std::string>& paths,
                        std::vector<std::string>* files);

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_INPUT_FORMAT_H_
