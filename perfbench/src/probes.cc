#include "probes.h"

#include <atomic>
#include <string>
#include <utility>

#include "mapreduce/spill.h"

namespace perfbench {

using namespace colmr;

namespace {

using Clock = Probes::Clock;

std::atomic<uint64_t> next_probes_id{1};

/// Span name of each probe; only plan, open, fill and emit calls are ever
/// recorded as spans.
constexpr const char* kSpanNames[kNumProbes] = {
    "bench.plan", "bench.open", "bench.fill",     "bench.map_fn",
    "bench.get",  "bench.emit", "bench.reduce_fn"};

struct ThreadState {
  uint64_t owner = 0;  // Probes id the slot belongs to
  void* slot = nullptr;
  /// The last Emitter a map call received, and its spill-buffer view.
  const Emitter* last_out = nullptr;
  const MapOutputBuffer* last_buffer = nullptr;
};
thread_local ThreadState tls;

uint64_t Reads(const IoStats* io) { return io == nullptr ? 0 : io->reads; }

class TracedRecordReader final : public RecordReader {
 public:
  TracedRecordReader(std::unique_ptr<RecordReader> inner, Probes* probes,
                     const IoStats* io)
      : inner_(std::move(inner)), probes_(probes), io_(io) {}

  bool Next() override {
    const uint64_t reads = Reads(io_);
    const Clock::time_point start = Clock::now();
    const bool more = inner_->Next();
    Finish(start, reads, 1);
    return more;
  }

  uint64_t FillBatch(uint64_t max_rows) override {
    const uint64_t reads = Reads(io_);
    const Clock::time_point start = Clock::now();
    const uint64_t rows = inner_->FillBatch(max_rows);
    Finish(start, reads, rows);
    return rows;
  }

  Record& record() override { return inner_->record(); }
  Record& RecordAt(uint64_t i) override { return inner_->RecordAt(i); }
  Status status() const override { return inner_->status(); }
  const std::vector<uint32_t>* selection() const override {
    return inner_->selection();
  }

 private:
  void Finish(Clock::time_point start, uint64_t reads_before, uint64_t rows) {
    const Clock::time_point end = Clock::now();
    probes_->Add(kFill, start, end);
    // Multi-row fills decode columns under their own engine spans; any
    // fill that read from HDFS has hdfs.read spans inside it.
    if (rows > 1 || Reads(io_) != reads_before) {
      probes_->Span(kFill, start, end);
    }
  }

  std::unique_ptr<RecordReader> inner_;
  Probes* probes_;
  const IoStats* io_;
};

class TracedInputFormat final : public InputFormat {
 public:
  TracedInputFormat(std::shared_ptr<InputFormat> inner, Probes* probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::string name() const override { return inner_->name(); }

  using InputFormat::GetSplits;
  Status GetSplits(MiniHdfs* fs, const JobConfig& config,
                   const ReadContext& context,
                   std::vector<InputSplit>* splits) override {
    const Clock::time_point start = Clock::now();
    Status s = inner_->GetSplits(fs, config, context, splits);
    const Clock::time_point end = Clock::now();
    probes_->Add(kPlan, start, end);
    probes_->Span(kPlan, start, end);
    return s;
  }

  Status CreateRecordReader(MiniHdfs* fs, const JobConfig& config,
                            const InputSplit& split,
                            const ReadContext& context,
                            std::unique_ptr<RecordReader>* reader) override {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<RecordReader> inner;
    Status s = inner_->CreateRecordReader(fs, config, split, context, &inner);
    const Clock::time_point end = Clock::now();
    probes_->Add(kOpen, start, end);
    probes_->Span(kOpen, start, end);
    if (s.ok()) {
      *reader = std::make_unique<TracedRecordReader>(std::move(inner),
                                                     probes_, context.stats);
    }
    return s;
  }

 private:
  std::shared_ptr<InputFormat> inner_;
  Probes* probes_;
};

class TimedRecord final : public Record {
 public:
  TimedRecord(Record* inner, Probes* probes) : inner_(inner), probes_(probes) {}

  const Schema& schema() const override { return inner_->schema(); }

  Status Get(std::string_view name, const Value** value) override {
    const Clock::time_point start = Clock::now();
    Status s = inner_->Get(name, value);
    probes_->Add(kGet, start, Clock::now());
    return s;
  }

 private:
  Record* inner_;
  Probes* probes_;
};

class TimedEmitter final : public Emitter {
 public:
  TimedEmitter(Emitter* inner, Probes* probes) : inner_(inner), probes_(probes) {
    if (tls.last_out != inner_) {
      tls.last_out = inner_;
      tls.last_buffer = dynamic_cast<const MapOutputBuffer*>(inner_);
    }
    buffer_ = tls.last_buffer;
  }

  void Emit(Value key, Value value) override {
    const uint64_t spills = buffer_ == nullptr ? 0 : buffer_->spills();
    const Clock::time_point start = Clock::now();
    inner_->Emit(std::move(key), std::move(value));
    const Clock::time_point end = Clock::now();
    probes_->Add(kEmit, start, end);
    if (buffer_ != nullptr && buffer_->spills() != spills) {
      probes_->Span(kEmit, start, end);
    }
  }

 private:
  Emitter* inner_;
  Probes* probes_;
  const MapOutputBuffer* buffer_ = nullptr;
};

}  // namespace

Probes::Probes(TraceCollector* trace)
    : trace_(trace), id_(next_probes_id.fetch_add(1)) {
  const uint64_t now_us = trace_->NowMicros();
  epoch_ = Clock::now() - std::chrono::microseconds(now_us);
}

Probes::Slot* Probes::ThreadSlot() {
  if (tls.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::make_unique<Slot>());
    tls.owner = id_;
    tls.slot = slots_.back().get();
  }
  return static_cast<Slot*>(tls.slot);
}

void Probes::Add(Probe probe, Clock::time_point start, Clock::time_point end) {
  Slot* slot = ThreadSlot();
  slot->totals.ns[probe] += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

void Probes::Span(Probe probe, Clock::time_point start, Clock::time_point end) {
  // Widened by 1 us on each side so the engine spans inside the call nest
  // under it despite the microsecond rounding of both clocks.
  const int64_t start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start - epoch_)
          .count();
  const int64_t dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count();
  const uint64_t ts = start_us > 0 ? static_cast<uint64_t>(start_us - 1) : 0;
  trace_->AddComplete(kSpanNames[probe], "bench", ts,
                      static_cast<uint64_t>(dur_us) + 3, {});
}

ProbeTotals Probes::Sum() const {
  ProbeTotals sum;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slot : slots_) {
    for (int p = 0; p < kNumProbes; ++p) {
      sum.ns[p] += slot->totals.ns[p];
    }
  }
  return sum;
}

std::shared_ptr<InputFormat> TraceInputFormat(std::shared_ptr<InputFormat> inner,
                                              Probes* probes) {
  return std::make_shared<TracedInputFormat>(std::move(inner), probes);
}

MapFn TraceMapper(MapFn inner, Probes* probes, bool time_gets) {
  return [inner = std::move(inner), probes, time_gets](Record& record,
                                                       Emitter* out) {
    const Clock::time_point start = Clock::now();
    TimedRecord timed_record(&record, probes);
    TimedEmitter timed_out(out, probes);
    inner(time_gets ? timed_record : record, &timed_out);
    probes->Add(kMapFn, start, Clock::now());
  };
}

ReduceFn TraceReducer(ReduceFn inner, Probes* probes) {
  return [inner = std::move(inner), probes](const Value& key,
                                            const std::vector<Value>& values,
                                            Emitter* out) {
    const Clock::time_point start = Clock::now();
    inner(key, values, out);
    probes->Add(kReduceFn, start, Clock::now());
  };
}

}  // namespace perfbench
