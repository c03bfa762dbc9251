#ifndef COLMR_BENCH_BENCH_UTIL_H_
#define COLMR_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "hdfs/cost_model.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job.h"
#include "mapreduce/map_loop.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace colmr {
namespace bench {

/// Paper-faithful cluster parameters (Section 6.1), with the HDFS block
/// size scaled down 16x so laptop-scale datasets still span many blocks
/// while keeping the paper's block : row-group : io-buffer geometry.
inline ClusterConfig PaperCluster() {
  ClusterConfig config;
  config.num_nodes = 40;
  config.map_slots_per_node = 6;
  config.reduce_slots_per_node = 1;
  config.replication = 3;
  config.block_size = 4ull << 20;
  config.io_buffer_size = 128 * 1024;  // the io.file.buffer.size they set
  return config;
}

/// Multiplies default record counts; set COLMR_BENCH_SCALE to run bigger
/// or smaller experiments (e.g. 0.1 for a smoke run, 10 for a long one).
inline double Scale() {
  const char* env = std::getenv("COLMR_BENCH_SCALE");
  return env == nullptr ? 1.0 : std::atof(env);
}

inline uint64_t ScaledCount(uint64_t base) {
  const double scaled = static_cast<double>(base) * Scale();
  return scaled < 1 ? 1 : static_cast<uint64_t>(scaled);
}

/// Result of scanning one dataset single-threaded (the Section 6.2
/// single-node microbenchmark setting).
struct ScanResult {
  double cpu_seconds = 0;
  IoStats io;
  uint64_t records = 0;
  /// CPU + modelled single-disk I/O — the scan-time analogue.
  double sim_seconds = 0;
};

inline void Die(const Status& s, const char* what);

/// Scans an entire dataset through an InputFormat, feeding every record to
/// `consume`. All I/O is counted; time is measured around the scan loop.
inline ScanResult ScanDataset(MiniHdfs* fs, InputFormat* format,
                              JobConfig config,
                              const std::function<void(Record&)>& consume) {
  ScanResult result;
  std::vector<InputSplit> splits;
  Status s = format->GetSplits(fs, config, &splits);
  if (!s.ok()) {
    std::fprintf(stderr, "GetSplits: %s\n", s.ToString().c_str());
    std::abort();
  }
  Stopwatch watch;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    s = format->CreateRecordReader(fs, config, split,
                                   ReadContext{kAnyNode, &result.io},
                                   &reader);
    if (!s.ok()) {
      std::fprintf(stderr, "CreateRecordReader: %s\n", s.ToString().c_str());
      std::abort();
    }
    // The engine's own map loop, so ScanDataset measures the identical
    // record stream; a predicate error aborts.
    Die(ForEachMappedRecord(
            reader.get(), config.batch_rows, config.predicate.get(),
            [] { return Status::OK(); }, consume, &result.records),
        "predicate");
    Die(reader->status(), "scan");
  }
  result.cpu_seconds = watch.ElapsedSeconds();
  CostModel model(fs->config());
  result.sim_seconds = model.TaskSeconds({result.cpu_seconds, result.io});
  return result;
}

/// Total size of all files under a dataset directory.
inline uint64_t DatasetBytes(MiniHdfs* fs, const std::string& path) {
  std::vector<std::string> files;
  Status s = ExpandInputPaths(fs, {path}, &files);
  if (!s.ok()) return 0;
  uint64_t total = 0;
  for (const std::string& file : files) {
    uint64_t size = 0;
    fs->GetFileSize(file, &size);
    total += size;
  }
  return total;
}

inline void Die(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

inline std::string Mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", bytes / 1e6);
  return buf;
}

/// Machine-readable bench output (DESIGN.md §8). Every bench binary
/// builds one Report alongside its human-readable table and Write()s it
/// as `BENCH_<name>.json` into ${COLMR_BENCH_OUT:-.}. The document
/// carries the bench config, one row per printed table line, the wall
/// time, and the process-wide metrics delta accumulated over the
/// Report's lifetime — so a run's raw numbers can be diffed, plotted, or
/// gated in CI without scraping stdout.
///
/// Document shape:
///   { "bench": "<name>", "schema_version": 1, "scale": <float>,
///     "config": {...}, "rows": [{...}, ...], "wall_seconds": <float>,
///     "metrics": {"counters": {...}, "gauges": {...},
///                 "histograms": {...}} }
class Report {
 public:
  explicit Report(std::string name)
      : name_(std::move(name)),
        start_metrics_(MetricsRegistry::Default().Snapshot()) {}

  /// One flat object of run parameters (record counts, seeds, sizes).
  void Config(std::string key, std::string_view v) {
    config_.emplace_back(std::move(key), Render(v));
  }
  void Config(std::string key, const char* v) {
    Config(std::move(key), std::string_view(v));
  }
  void Config(std::string key, uint64_t v) {
    config_.emplace_back(std::move(key), std::to_string(v));
  }
  void Config(std::string key, int v) {
    config_.emplace_back(std::move(key), std::to_string(v));
  }
  void Config(std::string key, double v) {
    config_.emplace_back(std::move(key), Render(v));
  }
  void Config(std::string key, bool v) {
    config_.emplace_back(std::move(key), v ? "true" : "false");
  }

  /// One table line. Values are rendered at Set() time; Set returns the
  /// row so cells chain.
  class Row {
   public:
    Row& Set(std::string key, std::string_view v) {
      fields_.emplace_back(std::move(key), Render(v));
      return *this;
    }
    Row& Set(std::string key, const char* v) {
      return Set(std::move(key), std::string_view(v));
    }
    Row& Set(std::string key, uint64_t v) {
      fields_.emplace_back(std::move(key), std::to_string(v));
      return *this;
    }
    Row& Set(std::string key, int v) {
      fields_.emplace_back(std::move(key), std::to_string(v));
      return *this;
    }
    Row& Set(std::string key, double v) {
      fields_.emplace_back(std::move(key), Render(v));
      return *this;
    }
    Row& Set(std::string key, bool v) {
      fields_.emplace_back(std::move(key), v ? "true" : "false");
      return *this;
    }

   private:
    friend class Report;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  // deque: callers hold Row& across later AddRow() calls.
  Row& AddRow() { return rows_.emplace_back(); }

  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", name_);
    w.Field("schema_version", uint64_t{1});
    w.Field("scale", Scale());
    w.BeginObject("config");
    for (const auto& [key, value] : config_) w.FieldRaw(key, value);
    w.EndObject();
    w.BeginArray("rows");
    for (const Row& row : rows_) {
      w.BeginObject();
      for (const auto& [key, value] : row.fields_) w.FieldRaw(key, value);
      w.EndObject();
    }
    w.EndArray();
    w.Field("wall_seconds", watch_.ElapsedSeconds());
    w.BeginObject("metrics");
    MetricsRegistry::Default()
        .Snapshot()
        .Diff(start_metrics_)
        .NonZero()
        .WriteJson(&w);
    w.EndObject();
    w.EndObject();
    return w.Take();
  }

  /// Writes BENCH_<name>.json into ${COLMR_BENCH_OUT:-.} after
  /// re-validating the rendered document. Returns the path written, or
  /// "" on failure (diagnostic on stderr) — benches report but do not
  /// abort, so a read-only CWD cannot fail a perf run.
  std::string Write() const {
    const std::string document = ToJson();
    std::string error;
    if (!ValidateJson(document, &error)) {
      std::fprintf(stderr, "BENCH_%s.json: invalid JSON produced: %s\n",
                   name_.c_str(), error.c_str());
      return "";
    }
    const char* dir = std::getenv("COLMR_BENCH_OUT");
    std::string path = (dir == nullptr || dir[0] == '\0') ? "." : dir;
    path += "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "BENCH_%s.json: cannot open %s\n", name_.c_str(),
                   path.c_str());
      return "";
    }
    const size_t written = std::fwrite(document.data(), 1, document.size(), f);
    const bool ok = written == document.size() && std::fclose(f) == 0;
    if (!ok) {
      std::fprintf(stderr, "BENCH_%s.json: short write to %s\n", name_.c_str(),
                   path.c_str());
      return "";
    }
    std::fprintf(stderr, "bench report: %s\n", path.c_str());
    return path;
  }

 private:
  static std::string Render(std::string_view v) {
    std::string out;
    out.reserve(v.size() + 2);
    out.push_back('"');
    out += JsonWriter::Escape(v);
    out.push_back('"');
    return out;
  }
  static std::string Render(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  Stopwatch watch_;
  std::string name_;
  MetricsSnapshot start_metrics_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::deque<Row> rows_;
};

}  // namespace bench
}  // namespace colmr

#endif  // COLMR_BENCH_BENCH_UTIL_H_
