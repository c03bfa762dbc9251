#ifndef COLMR_OBS_METRICS_H_
#define COLMR_OBS_METRICS_H_

// Cross-layer metrics: named counters, gauges, and log-bucketed
// histograms behind a thread-safe registry.
//
// Design constraints (see DESIGN.md §8):
//  * The hot path is a single relaxed atomic RMW.  Callers resolve a
//    metric once (registry lookup under a mutex) and cache the pointer;
//    metric objects are heap-allocated and never move or die for the
//    registry's lifetime, so cached pointers stay valid.
//  * Code that counts once per value or per row counts into a plain
//    CounterTally and publishes it once per call: an atomic every map
//    thread bumps per value costs more than the work it counts.
//  * Snapshot() is wait-free with respect to writers: it reads the
//    atomics with relaxed loads, so a snapshot taken mid-job is a
//    consistent-enough view for reporting, not a linearizable cut.
//  * Snapshots subtract (Diff) so benches and `colmr stats` can report
//    the delta attributable to one job even on the shared default
//    registry.
//
// Naming scheme: `<layer>.<subject>.<aspect>` with layers
// hdfs / cif / serde / mr, e.g. "hdfs.read.remote_bytes",
// "cif.scan.skip_blocks", "mr.task.retries".

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace colmr {

// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A single-threaded tally in front of a shared Counter, for paths that
// count once per value: Add() is a plain add, and Publish() moves the
// tally into the counter with one relaxed atomic and zeroes it.  The
// owner publishes when each counting call returns, so totals are
// complete once the call is.
class CounterTally {
 public:
  CounterTally() = default;
  explicit CounterTally(Counter* counter) : counter_(counter) {}

  void Add(uint64_t n = 1) { pending_ += n; }
  void Publish() {
    if (pending_ != 0) {
      counter_->Increment(pending_);
      pending_ = 0;
    }
  }

 private:
  Counter* counter_ = nullptr;
  uint64_t pending_ = 0;
};

// Instantaneous level (e.g. occupied map slots).  Tracks the maximum
// level ever set so peaks survive into snapshots.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    BumpMax(v);
  }
  // Returns the post-add value.
  int64_t Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    BumpMax(now);
    return now;
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void BumpMax(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

// Log-bucketed histogram of uint64 samples.  Bucket b counts samples
// whose bit width is b (bucket 0 counts zeros), i.e. bucket b covers
// [2^(b-1), 2^b).  65 buckets cover the full uint64 range; quantiles
// are exact to bucket bounds and linearly interpolated inside a bucket.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  static int BucketOf(uint64_t v) {
    int width = 0;
    while (v != 0) {
      v >>= 1;
      ++width;
    }
    return width;
  }
  // Inclusive lower / exclusive upper value bound of bucket b.
  static uint64_t BucketLower(int b) {
    return b == 0 ? 0 : (b == 1 ? 1 : uint64_t{1} << (b - 1));
  }
  static uint64_t BucketUpper(int b) {
    return b == 0 ? 1 : (b >= 64 ? ~uint64_t{0} : uint64_t{1} << b);
  }

  void Observe(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

// Point-in-time copy of every metric in a registry, detached from the
// live atomics.  Supports subtraction, text rendering, and JSON export.
struct MetricsSnapshot {
  struct HistogramData {
    std::array<uint64_t, Histogram::kNumBuckets> buckets{};
    uint64_t sum = 0;
    uint64_t count() const;
    // Quantile q in [0,1]; interpolated within the containing bucket.
    double Quantile(double q) const;
  };
  struct GaugeData {
    int64_t value = 0;
    int64_t max = 0;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, GaugeData> gauges;
  std::map<std::string, HistogramData> histograms;

  // this - before: counters and histogram buckets subtract (clamped at
  // zero if the registry was reset in between); gauges keep the current
  // level from `this` since levels are not cumulative.
  MetricsSnapshot Diff(const MetricsSnapshot& before) const;

  // Drops zero-valued counters and empty histograms (gauges at 0 with
  // max 0 are dropped too).  Makes diffed reports readable.
  MetricsSnapshot NonZero() const;

  // "name value" lines, one metric per line, sorted by name.
  std::string ToText() const;
  // {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
  // Streams the same object into an open writer (for embedding into a
  // larger document, e.g. BENCH_*.json).
  void WriteJson(class JsonWriter* writer) const;
};

// Thread-safe name -> metric registry.  Metrics are created on first
// lookup and live until the registry dies; lookups of the same name
// return the same object.  Counter/gauge/histogram namespaces are
// separate (the same name may exist in each, though the naming scheme
// avoids that).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry.  Layers fall back to this when no registry
  // is supplied via ReadContext / JobConfig.
  static MetricsRegistry& Default();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  // Zeroes every registered metric (objects stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace colmr

#endif  // COLMR_OBS_METRICS_H_
