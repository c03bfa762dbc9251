#ifndef COLMR_MAPREDUCE_MAP_LOOP_H_
#define COLMR_MAPREDUCE_MAP_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapreduce/input_format.h"
#include "serde/predicate.h"

namespace colmr {

/// The map loop, shared by the engine and the scan benchmarks: drives
/// `reader` to the end of its split and calls `map(record)` for every row
/// the predicate admits, counting those rows into *mapped.
///
/// Predicate filter (DESIGN.md §13): a row is mapped only when `predicate`
/// (may be null) is TRUE. The format may have evaluated it already
/// (selection()); otherwise it is evaluated row-wise here, so output is
/// identical with pushdown on or off. The reader is driven through
/// FillBatch/RecordAt, batch_rows rows at a time (DESIGN.md §10); 0 and 1
/// both mean one-row batches.
///
/// `poll()` returns a non-OK Status to stop the loop (deadline, superseded
/// attempt, failed spill). It runs once per batch. Returns the stop reason
/// — a poll's, or the first predicate evaluation error — or OK when the
/// reader ran dry; the caller still checks reader->status().
template <typename Poll, typename Map>
Status ForEachMappedRecord(RecordReader* reader, uint64_t batch_rows,
                           const Predicate* predicate, Poll&& poll, Map&& map,
                           uint64_t* mapped) {
  Status eval;
  uint64_t filled;
  while ((filled = reader->FillBatch(std::max<uint64_t>(batch_rows, 1))) > 0) {
    COLMR_RETURN_IF_ERROR(poll());
    if (const std::vector<uint32_t>* selection = reader->selection()) {
      for (const uint32_t r : *selection) map(reader->RecordAt(r));
      *mapped += selection->size();
    } else if (predicate != nullptr) {
      for (uint64_t r = 0; r < filled; ++r) {
        Record& record = reader->RecordAt(r);
        const Tri pass = EvalPredicateRow(*predicate, record, &eval);
        if (!eval.ok()) return eval;
        if (pass != Tri::kTrue) continue;
        map(record);
        ++*mapped;
      }
    } else {
      for (uint64_t r = 0; r < filled; ++r) map(reader->RecordAt(r));
      *mapped += filled;
    }
  }
  return Status::OK();
}

}  // namespace colmr

#endif  // COLMR_MAPREDUCE_MAP_LOOP_H_
