#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Outside-in timers for the traced run. They wrap the job's public
// objects — InputFormat, RecordReader, mapper, reducer, Emitter and the
// Record the mapper reads — and never touch the library's internals, so
// the untraced run executes exactly the plain objects and the traced run
// differs from it only by these wrappers and the engine's own spans.
//
// Per-call timings accumulate in per-thread slots (no locks, no shared
// cache lines). A call additionally becomes a "bench.*" trace span when it
// did I/O the engine records its own spans for (an HDFS read, a spill);
// the trace analysis then subtracts those engine spans from the call's
// time, giving each layer its self time.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mapreduce/input_format.h"
#include "mapreduce/job.h"
#include "obs/trace.h"

namespace perfbench {

enum Probe : int {
  kPlan = 0,   // InputFormat::GetSplits
  kOpen,       // InputFormat::CreateRecordReader
  kFill,       // RecordReader::FillBatch / Next
  kMapFn,      // the user map function, inclusive
  kGet,        // Record::Get inside the map function
  kEmit,       // Emitter::Emit from the map function
  kReduceFn,   // the user reduce function
  kNumProbes,
};

struct ProbeTotals {
  std::array<uint64_t, kNumProbes> ns{};
};

/// The timers of one traced job. Create before Run, read Sum() after Run
/// returned (the engine has joined its workers by then).
class Probes {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Probes(colmr::TraceCollector* trace);
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  void Add(Probe probe, Clock::time_point start, Clock::time_point end);
  /// Records [start, end) as a bench span on the calling thread's track.
  void Span(Probe probe, Clock::time_point start, Clock::time_point end);
  ProbeTotals Sum() const;

 private:
  struct alignas(64) Slot {
    ProbeTotals totals;
  };
  Slot* ThreadSlot();

  colmr::TraceCollector* trace_;
  /// steady_clock instant of the collector's time zero.
  Clock::time_point epoch_;
  uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
};

/// Wraps `inner` so planning, reader opening and batch filling are timed.
std::shared_ptr<colmr::InputFormat> TraceInputFormat(
    std::shared_ptr<colmr::InputFormat> inner, Probes* probes);

/// Wraps the map function: times it, the pairs it emits and, when
/// `time_gets` (lazy records, whose Get decodes), its Record::Get calls.
/// An eager Get is a field lookup; timing it would cost more than it does.
colmr::MapFn TraceMapper(colmr::MapFn inner, Probes* probes, bool time_gets);

/// Wraps the reduce function.
colmr::ReduceFn TraceReducer(colmr::ReduceFn inner, Probes* probes);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
