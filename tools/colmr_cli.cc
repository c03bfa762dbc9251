// colmr — command-line companion for the library. Operates on a persisted
// MiniHdfs image file, so datasets survive across invocations:
//
//   colmr init  <image> [num_nodes]             create an empty filesystem
//   colmr gen   <image> <path> <kind> <n> [sel] generate a dataset
//                 kind: crawl | weblog | micro | zoned  (written as CIF;
//                 zoned has a monotone `seq` key, so zone maps prune it)
//   colmr ls    <image> [path]                  list a directory
//   colmr stat  <image>                         cluster and space summary
//   colmr schema <image> <dataset>              print the dataset schema
//   colmr head  <image> <dataset> [n]           print the first n records
//   colmr convert <image> <src> <dst> <fmt>     copy between formats
//                 fmt: txt | seq | seq-block | rcfile | rcfile-zlite |
//                      cif | cif-sl | cif-dcsl
//   colmr kill  <image> <node>                  fail a datanode
//   colmr rerep <image>                         re-replicate lost replicas
//   colmr corrupt <image> <file> <block> <replica>
//                                               flip a bit in one replica
//   colmr scan  <image> <dataset> [p] [--batch-rows=N] [--out=PATH]
//               [--where=EXPR] [--no-pushdown]
//               [--speculative] [--task-timeout-ms=N]
//               [--sort-buffer-kb=N] [--merge-factor=N] [--spill-codec=C]
//               [--write-error-p=P] [--task-commit-error-p=P]
//               [--job-commit-error-p=P] [--slow-write-node=N]
//               [--slow-write-ms=MS] [--write-death-node=N]
//                                               run a scan job; with p > 0,
//                                               inject transient read
//                                               errors with probability p
//                                               (--batch-rows=1 decodes
//                                               one-row batches).
//                                               --out turns the scan into a
//                                               record-count MapReduce job
//                                               whose output commits
//                                               atomically to PATH
//                                               (DESIGN.md §11); the
//                                               remaining flags inject
//                                               write/commit faults and
//                                               enable the straggler
//                                               defenses.
//                                               --sort-buffer-kb > 0 bounds
//                                               the shuffle's sort buffer,
//                                               so map output spills runs
//                                               (DESIGN.md §12); codec C is
//                                               none | lzf | zlite
//   colmr stats <image> <dataset> [--json] [--lazy] [--project=c1,c2]
//               [--cache-mb=N] [--prefetch-depth=N]
//               [--batch-rows=N] [--where=EXPR] [--no-pushdown]
//                                               print the per-column
//                                               zone-map summary of a CIF
//                                               dataset, then run a scan
//                                               job and dump the metrics
//                                               delta it produced
//                                               (cache/prefetch knobs:
//                                               DESIGN.md §9; predicate
//                                               pushdown: DESIGN.md §13.
//                                               --where filters the scan,
//                                               e.g. --where='seq < 100';
//                                               --no-pushdown keeps the
//                                               filter in the map loop)
//   colmr trace <image> <dataset> <out.json> [--lazy] [--project=c1,c2]
//               [--cache-mb=N] [--prefetch-depth=N]
//               [--batch-rows=N]
//                                               run a scan job and write its
//                                               span timeline as Chrome
//                                               trace_event JSON (open at
//                                               https://ui.perfetto.dev)
//
// Example session:
//   colmr init /tmp/fs.img 8
//   colmr gen /tmp/fs.img /crawl crawl 20000
//   colmr schema /tmp/fs.img /crawl
//   colmr head /tmp/fs.img /crawl 3
//   colmr convert /tmp/fs.img /crawl /crawl-seq seq
//   colmr stat /tmp/fs.img

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cif/cof.h"
#include "cif/column_format.h"
#include "cif/column_stats.h"
#include "cif/loader.h"
#include "formats/detect.h"
#include "formats/rcfile/rcfile.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/engine.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/predicate.h"
#include "workload/crawl.h"
#include "workload/synthetic.h"
#include "workload/weblog.h"

namespace colmr {
namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: colmr <init|gen|ls|stat|schema|head|convert|kill|"
               "rerep|corrupt|scan|stats|trace> <image> [args...]\n(see the "
               "header of tools/colmr_cli.cc for details)\n");
  return 2;
}

/// Parses --where=EXPR into JobConfig::predicate (DESIGN.md §13).
Status SetWhere(const std::string& where, bool pushdown, JobConfig* config) {
  if (where.empty()) return Status::OK();
  Predicate predicate;
  COLMR_RETURN_IF_ERROR(ParsePredicate(where, &predicate));
  config->predicate = std::make_shared<const Predicate>(std::move(predicate));
  config->predicate_pushdown = pushdown;
  return Status::OK();
}

std::unique_ptr<MiniHdfs> LoadFs(const std::string& image, Status* status) {
  auto fs = std::make_unique<MiniHdfs>(
      ClusterConfig{}, std::make_unique<ColumnPlacementPolicy>());
  *status = fs->LoadImage(image);
  return fs;
}

int CmdInit(const std::string& image, int argc, char** argv) {
  ClusterConfig config;
  if (argc > 0) config.num_nodes = std::atoi(argv[0]);
  MiniHdfs fs(config, std::make_unique<ColumnPlacementPolicy>());
  Status s = fs.SaveImage(image);
  if (!s.ok()) return Fail(s);
  std::printf("created %s: %d nodes, %d-way replication, %llu-byte blocks\n",
              image.c_str(), config.num_nodes, config.replication,
              static_cast<unsigned long long>(config.block_size));
  return 0;
}

int CmdGen(const std::string& image, int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string path = argv[0];
  const std::string kind = argv[1];
  const uint64_t n = std::strtoull(argv[2], nullptr, 10);
  const double selectivity = argc > 3 ? std::atof(argv[3]) : 0.06;

  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);

  Schema::Ptr schema;
  std::function<Value()> next;
  std::shared_ptr<void> keepalive;
  if (kind == "crawl") {
    schema = CrawlSchema();
    CrawlGeneratorOptions options;
    options.jp_selectivity = selectivity;
    auto gen = std::make_shared<CrawlGenerator>(42, options);
    keepalive = gen;
    next = [gen] { return gen->Next(); };
  } else if (kind == "weblog") {
    schema = WeblogSchema();
    auto gen = std::make_shared<WeblogGenerator>(42);
    keepalive = gen;
    next = [gen] { return gen->Next(); };
  } else if (kind == "micro") {
    schema = MicrobenchSchema();
    auto gen = std::make_shared<MicrobenchGenerator>(42, selectivity);
    keepalive = gen;
    next = [gen] { return gen->Next(); };
  } else if (kind == "zoned") {
    // Monotone `seq` key: zone maps on it actually prune, so this is the
    // dataset to demo `--where='seq < N'` / `colmr stats` against.
    schema = ZonedSchema();
    auto gen = std::make_shared<ZonedGenerator>(42);
    keepalive = gen;
    next = [gen] { return gen->Next(); };
  } else {
    return Usage();
  }

  CofOptions options;
  options.default_column.layout = ColumnLayout::kSkipList;
  std::unique_ptr<CofWriter> writer;
  s = CofWriter::Open(fs.get(), path, schema, options, &writer);
  if (!s.ok()) return Fail(s);
  for (uint64_t i = 0; i < n; ++i) {
    s = writer->WriteRecord(next());
    if (!s.ok()) return Fail(s);
  }
  s = writer->Close();
  if (!s.ok()) return Fail(s);
  s = fs->SaveImage(image);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %llu %s records to %s (%d split-directories)\n",
              static_cast<unsigned long long>(n), kind.c_str(), path.c_str(),
              writer->split_count());
  return 0;
}

int CmdLs(const std::string& image, int argc, char** argv) {
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  const std::string path = argc > 0 ? argv[0] : "/";
  std::vector<std::string> children;
  s = fs->ListDir(path, &children);
  if (!s.ok()) return Fail(s);
  for (const std::string& child : children) {
    const std::string full = (path == "/" ? "" : path) + "/" + child;
    uint64_t size = 0;
    if (fs->GetFileSize(full, &size).ok()) {
      std::printf("%12llu  %s\n", static_cast<unsigned long long>(size),
                  child.c_str());
    } else {
      std::printf("%12s  %s/\n", "-", child.c_str());
    }
  }
  return 0;
}

int CmdStat(const std::string& image) {
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  std::printf("nodes: %d (%zu dead)\nreplication: %d\nblock size: %llu\n"
              "stored bytes (pre-replication): %llu\nunder-replicated "
              "blocks: %llu\nlost blocks: %llu\n",
              fs->config().num_nodes, fs->dead_nodes().size(),
              fs->config().replication,
              static_cast<unsigned long long>(fs->config().block_size),
              static_cast<unsigned long long>(fs->TotalStoredBytes()),
              static_cast<unsigned long long>(fs->UnderReplicatedBlockCount()),
              static_cast<unsigned long long>(fs->LostBlockCount()));
  return 0;
}

int CmdSchema(const std::string& image, int argc, char** argv) {
  if (argc < 1) return Usage();
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  // CIF keeps the schema per split-directory; row formats at the root.
  Schema::Ptr schema;
  s = ReadDatasetSchema(fs.get(), argv[0], &schema);
  if (s.ok()) {
    std::printf("%s\n", schema->ToString().c_str());
    return 0;
  }
  std::vector<std::string> children;
  Status list_status = fs->ListDir(argv[0], &children);
  if (!list_status.ok()) return Fail(list_status);
  for (const std::string& child : children) {
    if (ReadDatasetSchema(fs.get(), std::string(argv[0]) + "/" + child,
                          &schema)
            .ok()) {
      std::printf("%s\n", schema->ToString().c_str());
      return 0;
    }
  }
  return Fail(Status::NotFound("no schema under that path"));
}

int CmdHead(const std::string& image, int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string path = argv[0];
  const uint64_t limit = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10;
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);

  std::shared_ptr<InputFormat> format;
  std::string name;
  s = DetectInputFormat(fs.get(), path, &format, &name);
  if (!s.ok()) return Fail(s);
  std::fprintf(stderr, "(format: %s)\n", name.c_str());

  JobConfig config;
  config.input_paths = {path};
  std::vector<InputSplit> splits;
  s = format->GetSplits(fs.get(), config, &splits);
  if (!s.ok()) return Fail(s);
  uint64_t printed = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    s = format->CreateRecordReader(fs.get(), config, split, ReadContext{},
                                   &reader);
    if (!s.ok()) return Fail(s);
    while (printed < limit && reader->Next()) {
      Value record;
      s = MaterializeRecord(&reader->record(), &record);
      if (!s.ok()) return Fail(s);
      std::printf("%s\n", record.ToString().c_str());
      ++printed;
    }
    if (!reader->status().ok()) return Fail(reader->status());
    if (printed >= limit) break;
  }
  return 0;
}

int CmdConvert(const std::string& image, int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string src = argv[0];
  const std::string dst = argv[1];
  const std::string fmt = argv[2];
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);

  std::shared_ptr<InputFormat> input;
  s = DetectInputFormat(fs.get(), src, &input, nullptr);
  if (!s.ok()) return Fail(s);

  // Schema of the source: per split-directory for CIF, at the root
  // otherwise.
  Schema::Ptr schema;
  if (!ReadDatasetSchema(fs.get(), src, &schema).ok()) {
    std::vector<std::string> children;
    s = fs->ListDir(src, &children);
    if (!s.ok()) return Fail(s);
    bool found = false;
    for (const std::string& child : children) {
      if (ReadDatasetSchema(fs.get(), src + "/" + child, &schema).ok()) {
        found = true;
        break;
      }
    }
    if (!found) return Fail(Status::NotFound("source schema"));
  }

  std::unique_ptr<DatasetWriter> writer;
  if (fmt == "txt") {
    std::unique_ptr<TextWriter> w;
    s = TextWriter::Open(fs.get(), dst, schema, &w);
    writer = std::move(w);
  } else if (fmt == "seq" || fmt == "seq-block") {
    SeqWriterOptions options;
    if (fmt == "seq-block") options.compression = SeqCompression::kBlock;
    std::unique_ptr<SeqWriter> w;
    s = SeqWriter::Open(fs.get(), dst, schema, options, &w);
    writer = std::move(w);
  } else if (fmt == "rcfile" || fmt == "rcfile-zlite") {
    RcFileWriterOptions options;
    if (fmt == "rcfile-zlite") options.codec = CodecType::kZlite;
    std::unique_ptr<RcFileWriter> w;
    s = RcFileWriter::Open(fs.get(), dst, schema, options, &w);
    writer = std::move(w);
  } else if (fmt == "cif" || fmt == "cif-sl" || fmt == "cif-dcsl") {
    CofOptions options;
    if (fmt != "cif") {
      options.default_column.layout = ColumnLayout::kSkipList;
    }
    if (fmt == "cif-dcsl") {
      for (const auto& field : schema->fields()) {
        if (field.type->kind() == TypeKind::kMap) {
          options.column_overrides[field.name] = {
              ColumnLayout::kDictSkipList, CodecType::kNone, 0};
        }
      }
    }
    std::unique_ptr<CofWriter> w;
    s = CofWriter::Open(fs.get(), dst, schema, options, &w);
    writer = std::move(w);
  } else {
    return Usage();
  }
  if (!s.ok()) return Fail(s);

  s = CopyDataset(fs.get(), input.get(), {src}, writer.get());
  if (!s.ok()) return Fail(s);
  s = writer->Close();
  if (!s.ok()) return Fail(s);
  s = fs->SaveImage(image);
  if (!s.ok()) return Fail(s);
  std::printf("converted %s -> %s (%s, %llu records)\n", src.c_str(),
              dst.c_str(), fmt.c_str(),
              static_cast<unsigned long long>(writer->record_count()));
  return 0;
}

int CmdKill(const std::string& image, int argc, char** argv) {
  if (argc < 1) return Usage();
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  s = fs->KillNode(std::atoi(argv[0]));
  if (!s.ok()) return Fail(s);
  s = fs->SaveImage(image);
  if (!s.ok()) return Fail(s);
  std::printf("node %s is dead; %llu blocks under-replicated\n", argv[0],
              static_cast<unsigned long long>(
                  fs->UnderReplicatedBlockCount()));
  return 0;
}

int CmdRerep(const std::string& image) {
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  const uint64_t before = fs->UnderReplicatedBlockCount();
  s = fs->ReReplicate();
  if (!s.ok()) return Fail(s);
  s = fs->SaveImage(image);
  if (!s.ok()) return Fail(s);
  std::printf("re-replicated %llu blocks; %llu remain under-replicated\n",
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(
                  fs->UnderReplicatedBlockCount()));
  return 0;
}

int CmdCorrupt(const std::string& image, int argc, char** argv) {
  if (argc < 3) return Usage();
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  NodeId node = kAnyNode;
  s = fs->CorruptReplica(argv[0], std::strtoull(argv[1], nullptr, 10),
                         std::strtoull(argv[2], nullptr, 10), &node);
  if (!s.ok()) return Fail(s);
  s = fs->SaveImage(image);
  if (!s.ok()) return Fail(s);
  std::printf("corrupted block %s of %s on node %d\n", argv[1], argv[0],
              node);
  return 0;
}

int CmdScan(const std::string& image, int argc, char** argv) {
  uint64_t batch_rows = 0;
  std::string out_path;
  std::string where;
  bool pushdown = true;
  bool speculative = false;
  int task_timeout_ms = 0;
  uint64_t sort_buffer_kb = 0;
  int merge_factor = 0;
  std::string spill_codec;
  FaultConfig faults;
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--batch-rows=", 0) == 0) {
      batch_rows = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--where=", 0) == 0) {
      where = arg.substr(8);
    } else if (arg == "--no-pushdown") {
      pushdown = false;
    } else if (arg == "--speculative") {
      speculative = true;
    } else if (arg.rfind("--task-timeout-ms=", 0) == 0) {
      task_timeout_ms = std::atoi(arg.c_str() + 18);
    } else if (arg.rfind("--sort-buffer-kb=", 0) == 0) {
      sort_buffer_kb = std::strtoull(arg.c_str() + 17, nullptr, 10);
    } else if (arg.rfind("--merge-factor=", 0) == 0) {
      merge_factor = std::atoi(arg.c_str() + 15);
    } else if (arg.rfind("--spill-codec=", 0) == 0) {
      spill_codec = arg.substr(14);
    } else if (arg.rfind("--write-error-p=", 0) == 0) {
      faults.write_error_p = std::atof(arg.c_str() + 16);
    } else if (arg.rfind("--task-commit-error-p=", 0) == 0) {
      faults.task_commit_error_p = std::atof(arg.c_str() + 22);
    } else if (arg.rfind("--job-commit-error-p=", 0) == 0) {
      faults.job_commit_error_p = std::atof(arg.c_str() + 21);
    } else if (arg.rfind("--slow-write-node=", 0) == 0) {
      faults.slow_write_nodes.insert(std::atoi(arg.c_str() + 18));
    } else if (arg.rfind("--slow-write-ms=", 0) == 0) {
      faults.slow_write_latency_ms = std::atof(arg.c_str() + 16);
    } else if (arg.rfind("--write-death-node=", 0) == 0) {
      faults.write_death_nodes.insert(std::atoi(arg.c_str() + 19));
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) return Usage();
  const std::string path = positional[0];
  const double p = positional.size() > 1 ? std::atof(positional[1].c_str()) : 0;
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);
  if (p > 0) faults.read_error_p = p;
  if (faults.active()) fs->SetFaultConfig(faults);

  // Up-front output guard (same rule the engine's committer enforces):
  // refuse to run a single task against an output path that already
  // exists, with an error that names the path.
  if (!out_path.empty()) {
    std::vector<std::string> children;
    if (fs->Exists(out_path) || fs->ListDir(out_path, &children).ok()) {
      return Fail(Status::InvalidArgument(
          "output path already exists: " + out_path +
          " (delete it or choose another --out)"));
    }
  }

  Job job;
  job.config.input_paths = {path};
  if (batch_rows > 0) job.config.batch_rows = batch_rows;
  s = SetWhere(where, pushdown, &job.config);
  if (!s.ok()) return Fail(s);
  job.config.task_timeout_ms = task_timeout_ms;
  job.config.speculative_execution = speculative;
  job.config.sort_buffer_bytes = sort_buffer_kb * 1024;
  if (merge_factor > 0) job.config.merge_factor = merge_factor;
  if (!spill_codec.empty()) {
    if (spill_codec == "none") {
      job.config.spill_codec = CodecType::kNone;
    } else if (spill_codec == "lzf") {
      job.config.spill_codec = CodecType::kLzf;
    } else if (spill_codec == "zlite") {
      job.config.spill_codec = CodecType::kZlite;
    } else {
      return Fail(Status::InvalidArgument("unknown --spill-codec: " +
                                          spill_codec));
    }
  }
  s = DetectInputFormat(fs.get(), path, &job.input_format, nullptr);
  if (!s.ok()) return Fail(s);
  if (out_path.empty()) {
    job.mapper = [](Record&, Emitter*) {};
  } else {
    // With --out the scan becomes a tiny MapReduce job — count records —
    // so the full commit protocol (attempt dirs, atomic task commit, job
    // commit, _SUCCESS) runs against the configured faults.
    job.config.output_path = out_path;
    job.mapper = [](Record&, Emitter* out) {
      out->Emit(Value::String("records"), Value::Int64(1));
    };
    job.reducer = [](const Value& key, const std::vector<Value>& values,
                     Emitter* out) {
      int64_t sum = 0;
      for (const Value& v : values) sum += v.int64_value();
      out->Emit(key, Value::Int64(sum));
    };
  }

  JobRunner runner(fs.get());
  JobReport report;
  s = runner.Run(job, &report);
  std::printf("records: %llu\nbytes read: %llu local, %llu remote\n"
              "map tasks: %zu (%d data-local)\nmap time (sim): %.2fs\n"
              "task retries: %llu\nchecksum failures: %llu\n"
              "failover reads: %llu\nblacklisted nodes:",
              static_cast<unsigned long long>(report.map_input_records),
              static_cast<unsigned long long>(report.bytes_read_local),
              static_cast<unsigned long long>(report.bytes_read_remote),
              report.map_tasks.size(), report.data_local_tasks,
              report.map_phase_seconds,
              static_cast<unsigned long long>(report.task_retries),
              static_cast<unsigned long long>(report.checksum_failures),
              static_cast<unsigned long long>(report.failover_reads));
  if (report.blacklisted_nodes.empty()) {
    std::printf(" none\n");
  } else {
    for (NodeId node : report.blacklisted_nodes) std::printf(" %d", node);
    std::printf("\n");
  }
  if (!out_path.empty()) {
    std::printf(
        "output commit: %llu tasks committed, %llu aborts, _SUCCESS %s\n"
        "write faults: %llu (%llu write retries)\n"
        "speculative: %llu launched, %llu won, %llu lost\n",
        static_cast<unsigned long long>(report.tasks_committed),
        static_cast<unsigned long long>(report.commit_aborts),
        fs->Exists(out_path + "/_SUCCESS") ? "present" : "absent",
        static_cast<unsigned long long>(report.write_faults),
        static_cast<unsigned long long>(report.write_retries),
        static_cast<unsigned long long>(report.speculative_launched),
        static_cast<unsigned long long>(report.speculative_won),
        static_cast<unsigned long long>(report.speculative_lost));
    if (sort_buffer_kb > 0) {
      std::printf(
          "shuffle: %llu spills (%llu bytes), %llu merge passes, "
          "%llu segments merged, peak buffer %llu bytes\n",
          static_cast<unsigned long long>(report.spill_count),
          static_cast<unsigned long long>(report.spill_bytes),
          static_cast<unsigned long long>(report.merge_passes),
          static_cast<unsigned long long>(report.merge_segments),
          static_cast<unsigned long long>(report.peak_spill_buffer_bytes));
    }
  }
  if (!s.ok()) return Fail(s);
  // Persist replica-health marks the scan reported, so a following
  // `colmr stat` / `colmr rerep` sees and repairs them.
  s = fs->SaveImage(image);
  if (!s.ok()) return Fail(s);
  return 0;
}

/// Shared flag parsing for the stats/trace job commands: consumes
/// --lazy / --project from argv, leaving positional args in place.
struct ScanJobFlags {
  bool json = false;
  bool lazy = false;
  std::vector<std::string> projection;
  std::vector<std::string> positional;
  // Predicate pushdown (DESIGN.md §13).
  std::string where;
  bool pushdown = true;
  // Block cache / prefetch knobs (DESIGN.md §9).
  uint64_t cache_mb = 0;
  int prefetch_depth = 0;
  // Map-loop batch size (DESIGN.md §10); 0 keeps the JobConfig default.
  uint64_t batch_rows = 0;
};

ScanJobFlags ParseScanJobFlags(int argc, char** argv) {
  ScanJobFlags flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--lazy") {
      flags.lazy = true;
    } else if (arg.rfind("--where=", 0) == 0) {
      flags.where = arg.substr(8);
    } else if (arg == "--no-pushdown") {
      flags.pushdown = false;
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      flags.cache_mb = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--prefetch-depth=", 0) == 0) {
      flags.prefetch_depth = std::atoi(arg.c_str() + 17);
    } else if (arg.rfind("--batch-rows=", 0) == 0) {
      flags.batch_rows = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--project=", 0) == 0) {
      std::string cols = arg.substr(10);
      size_t start = 0;
      while (start <= cols.size()) {
        size_t comma = cols.find(',', start);
        if (comma == std::string::npos) comma = cols.size();
        if (comma > start) {
          flags.projection.push_back(cols.substr(start, comma - start));
        }
        start = comma + 1;
      }
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

/// Builds and runs the count-records scan job both commands share.
Status RunScanJob(MiniHdfs* fs, const std::string& path,
                  const ScanJobFlags& flags, const std::string& trace_path,
                  JobReport* report) {
  Job job;
  job.config.input_paths = {path};
  job.config.lazy_records = flags.lazy;
  job.config.projection = flags.projection;
  job.config.trace_path = trace_path;
  job.config.cache_bytes = flags.cache_mb << 20;
  job.config.prefetch_depth = flags.prefetch_depth;
  if (flags.batch_rows > 0) job.config.batch_rows = flags.batch_rows;
  COLMR_RETURN_IF_ERROR(SetWhere(flags.where, flags.pushdown, &job.config));
  COLMR_RETURN_IF_ERROR(
      DetectInputFormat(fs, path, &job.input_format, nullptr));
  job.mapper = [](Record&, Emitter*) {};
  JobRunner runner(fs);
  return runner.Run(job, report);
}

/// Prints the per-column zone-map summary of a CIF dataset (DESIGN.md
/// §13): per column, how many rowgroups its stats footers cover, how many
/// carry both bounds (prune-capable groups), the null count, and the
/// dataset-wide [min .. max] range. Prints nothing for row-format
/// datasets; columns written before the stats footer existed show
/// "no stats footer".
void PrintZoneMaps(MiniHdfs* fs, const std::string& dataset) {
  std::vector<std::string> children;
  if (!fs->ListDir(dataset, &children).ok()) return;
  Schema::Ptr schema;
  std::vector<std::string> dirs;
  for (const std::string& child : children) {
    const std::string dir = dataset + "/" + child;
    Schema::Ptr dir_schema;
    if (ReadDatasetSchema(fs, dir, &dir_schema).ok()) {
      if (schema == nullptr) schema = dir_schema;
      dirs.push_back(dir);
    }
  }
  if (schema == nullptr) return;  // not a CIF dataset
  std::printf("zone maps: %zu split-directories, %llu-row groups\n",
              dirs.size(),
              static_cast<unsigned long long>(kCifStatsRowGroup));
  std::printf("  %-12s %-10s %8s %8s %10s  %s\n", "column", "type", "groups",
              "bounded", "nulls", "range");
  for (const auto& field : schema->fields()) {
    uint64_t groups = 0, bounded = 0, nulls = 0;
    bool any_footer = false;
    // Dataset-wide bounds exist only when every split-directory's footer
    // carries the file-level bound (same conservative rule pruning uses).
    bool all_min = true, all_max = true;
    Value min, max;
    bool have_min = false, have_max = false;
    for (const std::string& dir : dirs) {
      ColumnFileStats stats;
      bool present = false;
      if (!ReadColumnStats(fs, dir + "/" + field.name + ".col", ReadContext{},
                           &stats, &present)
               .ok() ||
          !present) {
        all_min = all_max = false;
        continue;
      }
      any_footer = true;
      groups += stats.groups.size();
      for (const ColumnStats& g : stats.groups) {
        if (g.has_min && g.has_max) ++bounded;
      }
      nulls += stats.file.nulls;
      if (stats.file.values > stats.file.nulls) {
        if (!stats.file.has_min) all_min = false;
        if (!stats.file.has_max) all_max = false;
      }
      if (stats.file.has_min &&
          (!have_min || PrimitiveLess(stats.file.min, min))) {
        min = stats.file.min;
        have_min = true;
      }
      if (stats.file.has_max &&
          (!have_max || PrimitiveLess(max, stats.file.max))) {
        max = stats.file.max;
        have_max = true;
      }
    }
    std::string range;
    if (!any_footer) {
      range = "no stats footer";
    } else if (all_min && all_max && have_min && have_max) {
      range = "[" + min.ToString() + " .. " + max.ToString() + "]";
    } else {
      range = "-";  // counts-only column (container, all-null, or NaN)
    }
    std::printf("  %-12s %-10s %8llu %8llu %10llu  %s\n", field.name.c_str(),
                field.type->ToString().c_str(),
                static_cast<unsigned long long>(groups),
                static_cast<unsigned long long>(bounded),
                static_cast<unsigned long long>(nulls), range.c_str());
  }
  std::printf("\n");
}

int CmdStats(const std::string& image, int argc, char** argv) {
  const ScanJobFlags flags = ParseScanJobFlags(argc, argv);
  if (flags.positional.size() != 1) return Usage();
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);

  if (!flags.json) PrintZoneMaps(fs.get(), flags.positional[0]);

  // Diff the process-wide registry around the job: the delta is exactly
  // what this scan did, across every layer (hdfs, cif, serde, mr).
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  JobReport report;
  s = RunScanJob(fs.get(), flags.positional[0], flags, "", &report);
  if (!s.ok()) return Fail(s);
  const MetricsSnapshot delta =
      MetricsRegistry::Default().Snapshot().Diff(before).NonZero();
  if (flags.json) {
    std::printf("%s\n", delta.ToJson().c_str());
  } else {
    std::printf("%s", delta.ToText().c_str());
  }
  return 0;
}

int CmdTrace(const std::string& image, int argc, char** argv) {
  const ScanJobFlags flags = ParseScanJobFlags(argc, argv);
  if (flags.positional.size() != 2) return Usage();
  const std::string& path = flags.positional[0];
  const std::string& out_path = flags.positional[1];
  Status s;
  auto fs = LoadFs(image, &s);
  if (!s.ok()) return Fail(s);

  JobReport report;
  s = RunScanJob(fs.get(), path, flags, out_path, &report);
  if (!s.ok()) return Fail(s);
  std::printf("scanned %llu records in %zu map tasks\n"
              "trace written to %s — open it at https://ui.perfetto.dev\n",
              static_cast<unsigned long long>(report.map_input_records),
              report.map_tasks.size(), out_path.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string image = argv[2];
  argc -= 3;
  argv += 3;
  if (command == "init") return CmdInit(image, argc, argv);
  if (command == "gen") return CmdGen(image, argc, argv);
  if (command == "ls") return CmdLs(image, argc, argv);
  if (command == "stat") return CmdStat(image);
  if (command == "schema") return CmdSchema(image, argc, argv);
  if (command == "head") return CmdHead(image, argc, argv);
  if (command == "convert") return CmdConvert(image, argc, argv);
  if (command == "kill") return CmdKill(image, argc, argv);
  if (command == "rerep") return CmdRerep(image);
  if (command == "corrupt") return CmdCorrupt(image, argc, argv);
  if (command == "scan") return CmdScan(image, argc, argv);
  if (command == "stats") return CmdStats(image, argc, argv);
  if (command == "trace") return CmdTrace(image, argc, argv);
  return Usage();
}

}  // namespace
}  // namespace colmr

int main(int argc, char** argv) { return colmr::Run(argc, argv); }
