// Sort-merge shuffle (DESIGN.md §12): a word-count job whose map output is
// several times the sort buffer, run with an unbounded buffer (resident
// runs, the baseline) and with bounded buffers that spill, at a few sizes
// and codecs. The claims gated in CI:
//
//   * every bounded arm spills (spill_count > 0) and, at the 4x+ arms,
//     spills at least twice per map task;
//   * buffer occupancy stays bounded — peak is never more than one record
//     past sort_buffer_bytes, no matter how big the map output is;
//   * output is byte-identical to the unbounded baseline in every arm.
//
// The interesting row is wall time vs. peak memory: a bounded buffer pays
// spill and merge I/O for a map-side footprint that no longer grows with
// the input.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "formats/text/text_format.h"
#include "mapreduce/engine.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseSentences = 60000;
constexpr int kFiles = 4;
// One record past the cap is legal (the record that tips the buffer over
// is buffered before the spill); word-count records are ~20 tagged bytes.
constexpr uint64_t kRecordSlack = 64;

void WriteWords(MiniHdfs* fs, const std::string& dir, uint64_t sentences) {
  Schema::Ptr schema;
  Die(Schema::Parse("record S { text: string }", &schema), "schema");
  uint64_t next = 0;
  for (int f = 0; f < kFiles; ++f) {
    std::unique_ptr<TextWriter> writer;
    Die(TextWriter::Open(fs, dir + "/f" + std::to_string(f), schema,
                         &writer),
        "open");
    for (uint64_t w = 0; w < sentences / kFiles; ++w) {
      std::string sentence =
          "word" + std::to_string(next % 2039) + " common tail" +
          std::to_string(next % 17);
      ++next;
      Die(writer->WriteRecord(Value::Record({Value::String(sentence)})),
          "write");
    }
    Die(writer->Close(), "close");
  }
}

Job WordCountJob() {
  Job job;
  job.config.input_paths = {"/in"};
  job.input_format = std::make_shared<TextInputFormat>();
  job.mapper = [](Record& record, Emitter* emit) {
    std::istringstream words(record.GetOrDie("text").string_value());
    std::string word;
    while (words >> word) emit->Emit(Value::String(word), Value::Int32(1));
  };
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* emit) {
    int64_t sum = 0;
    for (const Value& v : values) {
      sum += v.kind() == TypeKind::kInt32 ? v.int32_value()
                                          : v.int64_value();
    }
    emit->Emit(key, Value::Int64(sum));
  };
  return job;
}

bool SameOutput(const std::vector<std::pair<Value, Value>>& a,
                const std::vector<std::pair<Value, Value>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first.Compare(b[i].first) != 0 ||
        a[i].second.Compare(b[i].second) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t sentences = bench::ScaledCount(kBaseSentences);

  ClusterConfig cluster = bench::PaperCluster();
  cluster.num_nodes = 4;
  auto fs = std::make_unique<MiniHdfs>(
      cluster, std::make_unique<ColumnPlacementPolicy>(bench::kDatasetSeed));
  WriteWords(fs.get(), "/in", sentences);
  std::fprintf(stderr, "shuffle: %llu sentences, %s MB on HDFS\n",
               static_cast<unsigned long long>(sentences),
               bench::Mb(fs->TotalStoredBytes()).c_str());

  JobRunner runner(fs.get());
  Job job = WordCountJob();

  // Baseline: the unbounded buffer (resident runs) everything must
  // byte-match.
  JobReport baseline;
  Die(runner.Run(job, &baseline), "baseline");
  const size_t tasks = baseline.map_tasks.size();
  const uint64_t per_task = baseline.map_output_bytes / (tasks ? tasks : 1);

  bench::Report bench_report("shuffle");
  bench_report.Config("sentences", sentences);
  bench_report.Config("map_tasks", static_cast<uint64_t>(tasks));
  bench_report.Config("map_output_bytes", baseline.map_output_bytes);
  bench_report.Config("per_task_output_bytes", per_task);

  struct Arm {
    const char* label;
    uint64_t sort_buffer;  // 0 = unbounded
    CodecType codec;
    int merge_factor;
  };
  const Arm arms[] = {
      {"unbounded", 0, CodecType::kNone, 10},
      // Per-task output is >= 4x the buffer: the acceptance scenario.
      {"external-4x", per_task / 4, CodecType::kNone, 10},
      // >= 16x plus a small merge factor to force intermediate passes.
      {"external-16x-mf4", per_task / 16, CodecType::kNone, 4},
      {"external-4x-lzf", per_task / 4, CodecType::kLzf, 10},
  };

  std::printf("=== External sort-merge shuffle: word count, %zu tasks ===\n",
              tasks);
  std::printf("%-18s %12s %8s %12s %8s %10s %12s %8s\n", "arm", "buffer(B)",
              "spills", "spill MB", "merges", "wall(s)", "peak buf(B)",
              "output");

  for (const Arm& arm : arms) {
    job.config.sort_buffer_bytes = arm.sort_buffer;
    job.config.spill_codec = arm.codec;
    job.config.merge_factor = arm.merge_factor;
    JobReport report;
    Die(runner.Run(job, &report), arm.label);

    const bool identical = SameOutput(report.output, baseline.output);
    const bool bounded =
        arm.sort_buffer == 0 ||
        report.peak_spill_buffer_bytes <= arm.sort_buffer + kRecordSlack;
    const bool spilled_enough =
        arm.sort_buffer == 0 || report.spill_count >= 2 * tasks;
    std::printf("%-18s %12llu %8llu %12s %8llu %10.3f %12llu %8s%s%s\n",
                arm.label,
                static_cast<unsigned long long>(arm.sort_buffer),
                static_cast<unsigned long long>(report.spill_count),
                bench::Mb(report.spill_bytes).c_str(),
                static_cast<unsigned long long>(report.merge_passes),
                report.wall_seconds,
                static_cast<unsigned long long>(
                    report.peak_spill_buffer_bytes),
                identical ? "same" : "DIFFERS",
                bounded ? "" : "  <-- BUFFER NOT BOUNDED",
                spilled_enough ? "" : "  <-- TOO FEW SPILLS");
    bench_report.AddRow()
        .Set("arm", arm.label)
        .Set("sort_buffer_bytes", arm.sort_buffer)
        .Set("spill_count", report.spill_count)
        .Set("spill_bytes", report.spill_bytes)
        .Set("merge_passes", report.merge_passes)
        .Set("merge_segments", report.merge_segments)
        .Set("shuffle_bytes", report.shuffle_bytes)
        .Set("peak_spill_buffer_bytes", report.peak_spill_buffer_bytes)
        .Set("wall_seconds", report.wall_seconds)
        .Set("output_matches_baseline", identical)
        .Set("buffer_bounded", bounded)
        .Set("spilled_twice_per_task", spilled_enough);
  }
  bench_report.Write();
  std::printf(
      "\nbounded = peak buffer never exceeds sort_buffer_bytes + one\n"
      "record; bounded output is byte-identical to unbounded by the\n"
      "merge's (key, sequence) tie-break (DESIGN.md §12).\n");
  return 0;
}
