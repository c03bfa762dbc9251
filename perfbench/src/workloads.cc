#include "workloads.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "cif/cif.h"
#include "cif/cof.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "formats/text/text_format.h"
#include "serde/encoding.h"
#include "serde/predicate.h"
#include "workload/crawl.h"
#include "workload/weblog.h"

namespace perfbench {

using namespace colmr;

namespace {

/// Paper cluster shape (40 nodes, 6 map slots and 1 reduce slot per node,
/// 3 replicas); the engine's own thread count is set per job.
std::unique_ptr<MiniHdfs> NewFilesystem() {
  return std::make_unique<MiniHdfs>(ClusterConfig{},
                                    std::make_unique<ColumnPlacementPolicy>());
}

uint64_t TreeBytes(MiniHdfs* fs, const std::string& path) {
  std::vector<std::string> files;
  if (!ExpandInputPaths(fs, {path}, &files).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& file : files) {
    uint64_t size = 0;
    if (fs->GetFileSize(file, &size).ok()) total += size;
  }
  return total;
}

/// Streams records into a writer, timing only the writer's calls.
class TimedLoad {
 public:
  explicit TimedLoad(SetupStats* stats) : stats_(stats) {}

  Status Write(DatasetWriter* writer, const Value& record) {
    stats_->user_bytes += TaggedEncodedSize(record);
    Stopwatch watch;
    Status s = writer->WriteRecord(record);
    stats_->write_seconds += watch.ElapsedSeconds();
    return s;
  }

  Status Close(DatasetWriter* writer) {
    Stopwatch watch;
    Status s = writer->Close();
    stats_->write_seconds += watch.ElapsedSeconds();
    return s;
  }

 private:
  SetupStats* stats_;
};

// ---- crawl-distinct -------------------------------------------------------
// The paper's Fig. 1 / Table 1 job: distinct content-types of ibm.com/jp
// pages over CIF with a DCSL metadata column and lazy records. Light page
// content keeps the stored set small while the projected {url, metadata}
// bytes still dominate, so decode + HDFS reads carry the job.

constexpr uint64_t kCrawlRows = 100000;
constexpr uint64_t kCrawlSites = 8;
// Well below the ~50 MB the projection reads per job, so the cache churns.
constexpr uint64_t kCrawlCacheBytes = 16ull << 20;

class CrawlDistinct final : public Workload {
 public:
  Status Setup(uint64_t seed, SetupStats* stats) override {
    fs_ = NewFilesystem();
    fs_->EnsureBlockCache(kCrawlCacheBytes, &cache_metrics_);
    CofOptions options;
    options.default_column.layout = ColumnLayout::kSkipList;
    options.column_overrides["metadata"] = {ColumnLayout::kDictSkipList,
                                            CodecType::kNone, 0};
    std::unique_ptr<CofWriter> writer;
    COLMR_RETURN_IF_ERROR(
        CofWriter::Open(fs_.get(), kPath, CrawlSchema(), options, &writer));
    CrawlGeneratorOptions gen_options;
    gen_options.metadata_entries = 12;
    gen_options.metadata_value_words = 5;
    gen_options.min_content_bytes = 50;
    gen_options.max_content_bytes = 150;
    // The crawl is the union of kCrawlSites independently seeded crawls:
    // each generator draws its own vocabulary, whose word lengths set
    // the row width, so averaging over several keeps the dataset size
    // (and with it the job's cost) nearly the same from seed to seed.
    std::vector<CrawlGenerator> sites;
    for (uint64_t k = 0; k < kCrawlSites; ++k) {
      sites.emplace_back(seed * kCrawlSites + k, gen_options);
    }
    TimedLoad load(stats);
    expected_.clear();
    for (uint64_t i = 0; i < kCrawlRows; ++i) {
      const Value record = sites[i % kCrawlSites].Next();
      // Reference: field 0 is url, field 4 the metadata map.
      if (record.elements()[0].string_value().find(kCrawlFilterPattern) !=
          std::string::npos) {
        const Value* type =
            record.elements()[4].FindMapEntry(kContentTypeKey);
        if (type != nullptr) expected_.insert(type->string_value());
      }
      COLMR_RETURN_IF_ERROR(load.Write(writer.get(), record));
    }
    COLMR_RETURN_IF_ERROR(load.Close(writer.get()));
    files_ = static_cast<uint64_t>(writer->split_count());
    stats->stored_bytes = TreeBytes(fs_.get(), kPath);
    return Status::OK();
  }

  Job MakeJob(uint64_t) override {
    Job job;
    job.config.input_paths = {kPath};
    job.config.projection = {"url", "metadata"};
    job.config.lazy_records = true;
    job.config.cache_bytes = kCrawlCacheBytes;
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      const Value* url = nullptr;
      if (!record.Get("url", &url).ok()) return;
      if (url->string_value().find(kCrawlFilterPattern) == std::string::npos) {
        return;
      }
      const Value* metadata = nullptr;
      if (!record.Get("metadata", &metadata).ok()) return;
      const Value* type = metadata->FindMapEntry(kContentTypeKey);
      if (type != nullptr) {
        out->Emit(Value::String(type->string_value()), Value::Null());
      }
    };
    job.reducer = [](const Value& key, const std::vector<Value>&,
                     Emitter* out) { out->Emit(key, Value::Null()); };
    return job;
  }

  bool Check(uint64_t, const JobReport& report) override {
    std::set<std::string> got;
    for (const auto& [key, value] : report.output) {
      if (key.kind() != TypeKind::kString || value.kind() != TypeKind::kNull) {
        return false;
      }
      if (!got.insert(key.string_value()).second) return false;
    }
    return got == expected_;
  }

  WorkloadShape Shape() const override {
    WorkloadShape shape;
    shape.format = "cif (skip lists, DCSL metadata, lazy records)";
    shape.rows = kCrawlRows;
    shape.files = files_;
    shape.cache_bytes = kCrawlCacheBytes;
    return shape;
  }

 private:
  static constexpr char kPath[] = "/crawl/2011-01-01";
  std::set<std::string> expected_;
  uint64_t files_ = 0;
};

// ---- weblog-window --------------------------------------------------------
// Nightly-report job over web logs: bytes per URL inside a time window the
// zone maps prune to. The deck's windows are stratified over 0.1-5% of the
// log's time span so every run sees the same mix of window widths.

constexpr uint64_t kWeblogRows = 500000;
constexpr uint64_t kWeblogDeck = 64;
constexpr double kMinWindow = 0.001;
constexpr double kMaxWindow = 0.05;
// Holds the whole projected store: after the warm-up deck pass every
// block a window touches is resident.
constexpr uint64_t kWeblogCacheBytes = 256ull << 20;

class WeblogWindow final : public Workload {
 public:
  Status Setup(uint64_t seed, SetupStats* stats) override {
    fs_ = NewFilesystem();
    fs_->EnsureBlockCache(kWeblogCacheBytes, &cache_metrics_);
    CofOptions options;
    options.default_column.layout = ColumnLayout::kSkipList;
    std::unique_ptr<CofWriter> writer;
    COLMR_RETURN_IF_ERROR(
        CofWriter::Open(fs_.get(), kPath, WeblogSchema(), options, &writer));
    WeblogGenerator gen(seed);
    TimedLoad load(stats);
    ts_.clear();
    url_id_.clear();
    bytes_.clear();
    urls_.clear();
    std::map<std::string, uint32_t> url_ids;
    for (uint64_t i = 0; i < kWeblogRows; ++i) {
      const Value record = gen.Next();
      // Reference columns: ts (1), url (3), bytes (5).
      const std::vector<Value>& f = record.elements();
      auto [it, fresh] = url_ids.emplace(f[3].string_value(),
                                         static_cast<uint32_t>(urls_.size()));
      if (fresh) urls_.push_back(f[3].string_value());
      ts_.push_back(f[1].int64_value());
      url_id_.push_back(it->second);
      bytes_.push_back(f[5].int32_value());
      COLMR_RETURN_IF_ERROR(load.Write(writer.get(), record));
    }
    COLMR_RETURN_IF_ERROR(load.Close(writer.get()));
    files_ = static_cast<uint64_t>(writer->split_count());
    stats->stored_bytes = TreeBytes(fs_.get(), kPath);
    if (!std::is_sorted(ts_.begin(), ts_.end())) {
      return Status::InvalidArgument("weblog ts is not monotone");
    }
    BuildDeck(seed);
    return Status::OK();
  }

  Job MakeJob(uint64_t index) override {
    const Window& w = deck_[index % deck_.size()];
    Job job;
    job.config.input_paths = {kPath};
    job.config.projection = {"ts", "url", "bytes"};
    job.config.cache_bytes = kWeblogCacheBytes;
    job.config.predicate = std::make_shared<Predicate>(Predicate::And(
        {Predicate::Cmp(Predicate::Op::kGe, "ts", Value::Int64(w.from)),
         Predicate::Cmp(Predicate::Op::kLt, "ts", Value::Int64(w.to))}));
    job.input_format = std::make_shared<ColumnInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      const Value* url = nullptr;
      const Value* bytes = nullptr;
      if (!record.Get("url", &url).ok() || !record.Get("bytes", &bytes).ok()) {
        return;
      }
      out->Emit(*url, Value::Int64(bytes->int32_value()));
    };
    job.reducer = [](const Value& key, const std::vector<Value>& values,
                     Emitter* out) {
      int64_t total = 0;
      for (const Value& v : values) total += v.int64_value();
      out->Emit(key, Value::Int64(total));
    };
    return job;
  }

  bool Check(uint64_t index, const JobReport& report) override {
    const Window& w = deck_[index % deck_.size()];
    if (report.output.size() != w.expected.size()) return false;
    std::vector<std::pair<std::string, int64_t>> got;
    got.reserve(report.output.size());
    for (const auto& [key, value] : report.output) {
      if (key.kind() != TypeKind::kString ||
          value.kind() != TypeKind::kInt64) {
        return false;
      }
      got.emplace_back(key.string_value(), value.int64_value());
    }
    std::sort(got.begin(), got.end());
    return got == w.expected;
  }

  WorkloadShape Shape() const override {
    WorkloadShape shape;
    shape.format = "cif (skip lists, zone maps, eager records)";
    shape.rows = kWeblogRows;
    shape.files = files_;
    shape.cache_bytes = kWeblogCacheBytes;
    shape.deck = kWeblogDeck;
    return shape;
  }

 private:
  struct Window {
    int64_t from = 0;
    int64_t to = 0;
    /// Reference output, sorted by URL.
    std::vector<std::pair<std::string, int64_t>> expected;
  };

  void BuildDeck(uint64_t seed) {
    Random rng(seed ^ 0x3E6B10C);
    const int64_t first = ts_.front();
    const int64_t span = ts_.back() + 1 - first;
    deck_.assign(kWeblogDeck, Window{});
    std::vector<int64_t> sums(urls_.size());
    for (uint64_t i = 0; i < kWeblogDeck; ++i) {
      // Stratified widths: window i covers the midpoint share of the i-th
      // of kWeblogDeck equal slices of [kMinWindow, kMaxWindow]; the seed
      // places the windows.
      const double share =
          kMinWindow + (kMaxWindow - kMinWindow) *
                           (static_cast<double>(i) + 0.5) /
                           static_cast<double>(kWeblogDeck);
      const int64_t width =
          std::max<int64_t>(1, static_cast<int64_t>(share * span));
      const int64_t start =
          first + static_cast<int64_t>(rng.Uniform(
                      static_cast<uint64_t>(span - width + 1)));
      Window& w = deck_[i];
      w.from = start;
      w.to = start + width;
      std::fill(sums.begin(), sums.end(), 0);
      std::vector<char> seen(urls_.size(), 0);
      const auto lo = std::lower_bound(ts_.begin(), ts_.end(), w.from);
      const auto hi = std::lower_bound(ts_.begin(), ts_.end(), w.to);
      for (auto it = lo; it != hi; ++it) {
        const size_t row = static_cast<size_t>(it - ts_.begin());
        sums[url_id_[row]] += bytes_[row];
        seen[url_id_[row]] = 1;
      }
      for (size_t u = 0; u < urls_.size(); ++u) {
        if (seen[u]) w.expected.emplace_back(urls_[u], sums[u]);
      }
      std::sort(w.expected.begin(), w.expected.end());
    }
    // Interleave narrow and wide windows so any prefix of the deck mixes
    // widths.
    std::vector<Window> shuffled;
    shuffled.reserve(deck_.size());
    std::vector<size_t> order(deck_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (size_t i : order) shuffled.push_back(std::move(deck_[i]));
    deck_ = std::move(shuffled);
  }

  static constexpr char kPath[] = "/logs/day1";
  std::vector<int64_t> ts_;
  std::vector<uint32_t> url_id_;
  std::vector<int32_t> bytes_;
  std::vector<std::string> urls_;
  std::vector<Window> deck_;
  uint64_t files_ = 0;
};

// ---- wordcount-spill ------------------------------------------------------
// Word count over text files with no combiner, a sort buffer small enough
// for several spills per task and LZF-compressed spill runs; output is
// committed to a fresh path per job. Bypasses cif entirely.

constexpr uint64_t kSentences = 40000;
constexpr int kTextFiles = 16;
constexpr uint64_t kVocabulary = 20000;
// ~6 spills per map task, so intermediate merge passes happen too.
constexpr uint64_t kSortBufferBytes = 64 * 1024;

Schema::Ptr SentenceSchema() {
  return Schema::Record("Sentence", {{"line", Schema::String()}});
}

class WordcountSpill final : public Workload {
 public:
  Status Setup(uint64_t seed, SetupStats* stats) override {
    fs_ = NewFilesystem();
    Random rng(seed);
    Random vocab_rng(seed ^ 0x70CAB);
    std::vector<std::string> vocabulary;
    vocabulary.reserve(kVocabulary);
    // Word length follows the Zipf rank, so only the letters depend on
    // the seed and the text volume stays the same from seed to seed.
    for (uint64_t i = 0; i < kVocabulary; ++i) {
      vocabulary.push_back(vocab_rng.NextWord(2 + i % 9));
    }
    Zipf picker(kVocabulary, 0.9, seed ^ 0x21FF);
    std::vector<std::unique_ptr<TextWriter>> writers(kTextFiles);
    for (int f = 0; f < kTextFiles; ++f) {
      char dir[32];
      std::snprintf(dir, sizeof(dir), "%s/d%02d", kPath, f);
      COLMR_RETURN_IF_ERROR(
          TextWriter::Open(fs_.get(), dir, SentenceSchema(), &writers[f]));
    }
    TimedLoad load(stats);
    std::map<std::string, int64_t> counts;
    for (uint64_t i = 0; i < kSentences; ++i) {
      const int words = 6 + static_cast<int>(rng.Uniform(9));
      std::string line;
      for (int w = 0; w < words; ++w) {
        const std::string& word = vocabulary[picker.Next()];
        if (w > 0) line += ' ';
        line += word;
        counts[word] += 1;
      }
      const Value record = Value::Record({Value::String(std::move(line))});
      COLMR_RETURN_IF_ERROR(
          load.Write(writers[i % kTextFiles].get(), record));
    }
    for (auto& writer : writers) {
      COLMR_RETURN_IF_ERROR(load.Close(writer.get()));
    }
    expected_.assign(counts.begin(), counts.end());
    stats->stored_bytes = TreeBytes(fs_.get(), kPath);
    return Status::OK();
  }

  Job MakeJob(uint64_t index) override {
    Job job;
    job.config.input_paths = {kPath};
    job.config.output_path = OutputPath(index);
    job.config.sort_buffer_bytes = kSortBufferBytes;
    job.config.spill_codec = CodecType::kLzf;
    job.input_format = std::make_shared<TextInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      const Value* line = nullptr;
      if (!record.Get("line", &line).ok()) return;
      const std::string& text = line->string_value();
      size_t start = 0;
      while (start < text.size()) {
        size_t end = text.find(' ', start);
        if (end == std::string::npos) end = text.size();
        if (end > start) {
          out->Emit(Value::String(text.substr(start, end - start)),
                    Value::Int64(1));
        }
        start = end + 1;
      }
    };
    job.reducer = [](const Value& key, const std::vector<Value>& values,
                     Emitter* out) {
      int64_t total = 0;
      for (const Value& v : values) total += v.int64_value();
      out->Emit(key, Value::Int64(total));
    };
    return job;
  }

  bool Check(uint64_t index, const JobReport& report) override {
    if (report.output.size() != expected_.size()) return false;
    if (!fs_->Exists(OutputPath(index) + "/_SUCCESS")) return false;
    std::vector<std::pair<std::string, int64_t>> got;
    got.reserve(report.output.size());
    for (const auto& [key, value] : report.output) {
      if (key.kind() != TypeKind::kString ||
          value.kind() != TypeKind::kInt64) {
        return false;
      }
      got.emplace_back(key.string_value(), value.int64_value());
    }
    std::sort(got.begin(), got.end());
    return got == expected_;
  }

  Status Cleanup(uint64_t index) override {
    return fs_->DeleteRecursive(OutputPath(index));
  }

  uint64_t OutputBytes(uint64_t index) override {
    return TreeBytes(fs_.get(), OutputPath(index));
  }

  WorkloadShape Shape() const override {
    WorkloadShape shape;
    shape.format = "txt";
    shape.rows = kSentences;
    shape.files = kTextFiles;
    shape.sort_buffer_bytes = kSortBufferBytes;
    shape.spill_codec = "lzf";
    return shape;
  }

 private:
  static std::string OutputPath(uint64_t index) {
    return "/out/wordcount-" + std::to_string(index);
  }

  static constexpr char kPath[] = "/text";
  std::vector<std::pair<std::string, int64_t>> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "crawl-distinct") return std::make_unique<CrawlDistinct>();
  if (name == "weblog-window") return std::make_unique<WeblogWindow>();
  if (name == "wordcount-spill") return std::make_unique<WordcountSpill>();
  return nullptr;
}

}  // namespace perfbench
