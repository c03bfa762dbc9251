#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three job workloads of the benchmark. Each owns a fresh MiniHdfs
// holding its dataset, a reference oracle computed row by row from the
// generator's in-memory records (no storage involved), and a deck of job
// variants the closed loop cycles through.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"

namespace perfbench {

/// What one set-up measured.
struct SetupStats {
  double setup_seconds = 0;
  /// Time inside the writers' WriteRecord + Close (the load path).
  double write_seconds = 0;
  /// Tagged-encoding bytes of the generated records (the "user" bytes).
  uint64_t user_bytes = 0;
  /// Bytes of one replica of the stored dataset.
  uint64_t stored_bytes = 0;
};

/// The settings every job of a workload runs with, for the result stamp.
struct WorkloadShape {
  std::string format;
  /// Logical input rows of every job, before any pruning.
  uint64_t rows = 0;
  uint64_t files = 0;
  uint64_t cache_bytes = 0;
  uint64_t sort_buffer_bytes = 0;
  std::string spill_codec = "none";
  uint64_t deck = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the dataset from `seed`, loads it into a fresh filesystem
  /// and computes the reference outputs of every deck entry.
  virtual colmr::Status Setup(uint64_t seed, SetupStats* stats) = 0;

  /// Job for the index-th submission (cycles through the deck). The
  /// caller sets parallelism, metrics and trace.
  virtual colmr::Job MakeJob(uint64_t index) = 0;

  /// True when `report.output` equals the reference for `index`.
  virtual bool Check(uint64_t index, const colmr::JobReport& report) = 0;

  /// Removes what the job left behind (committed output). Its own
  /// returned status is a failed job.
  virtual colmr::Status Cleanup(uint64_t index) {
    (void)index;
    return colmr::Status::OK();
  }

  /// Bytes the job committed to HDFS (0 for jobs without output).
  virtual uint64_t OutputBytes(uint64_t index) {
    (void)index;
    return 0;
  }

  virtual WorkloadShape Shape() const = 0;

  colmr::MiniHdfs* fs() const { return fs_.get(); }
  /// Registry the filesystem-wide block cache counts into (the cache
  /// outlives jobs, so its counters cannot be job-scoped).
  colmr::MetricsRegistry* cache_metrics() { return &cache_metrics_; }

 protected:
  // Declared before fs_ so it outlives the cache the filesystem owns.
  colmr::MetricsRegistry cache_metrics_;
  std::unique_ptr<colmr::MiniHdfs> fs_;
};

/// "crawl-distinct", "weblog-window" or "wordcount-spill"; null otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
