// Ablation for the Section 5.2 design choice: how much do skip lists,
// compressed blocks, and DCSL save when the reader touches 1-in-N rows of
// a map column? Sweeps the access stride across every column layout and
// reports bytes fetched and scan time — the data behind choosing skip
// blocks at 10/100/1000 records.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/column_reader.h"
#include "cif/column_writer.h"
#include "common/stopwatch.h"
#include "workload/crawl.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseRows = 60000;

struct Result {
  double seconds;
  uint64_t bytes;
};

Result Sweep(MiniHdfs* fs, const std::string& path, uint64_t rows,
             uint64_t stride) {
  IoStats stats;
  std::unique_ptr<ColumnFileReader> reader;
  Die(ColumnFileReader::Open(fs, path, ReadContext{kAnyNode, &stats},
                             &reader),
      "open");
  uint64_t sink = 0;
  Stopwatch watch;
  uint64_t row = 0;
  ColumnBatch batch;
  while (row + stride <= rows) {
    Die(reader->SkipRows(stride - 1), "skip");
    Die(reader->NextBatch(1, &batch), "read");
    sink += batch.BoxedAt(0)->map_entries().size();
    row += stride;
  }
  const double cpu = watch.ElapsedSeconds();
  (void)sink;
  CostModel model(fs->config());
  return {model.TaskSeconds({cpu, stats}), stats.TotalBytes()};
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t rows = bench::ScaledCount(kBaseRows);
  auto fs = std::make_unique<MiniHdfs>(
      bench::PaperCluster(), std::make_unique<ColumnPlacementPolicy>(13));
  Schema::Ptr type = Schema::Map(Schema::String());

  // One heavy map column (~HTTP headers) per layout.
  const std::vector<std::pair<std::string, ColumnOptions>> layouts = {
      {"plain", {ColumnLayout::kPlain, CodecType::kNone, 0}},
      {"skiplist", {ColumnLayout::kSkipList, CodecType::kNone, 0}},
      {"blocks-lzf", {ColumnLayout::kCompressedBlocks, CodecType::kLzf,
                      64 * 1024}},
      {"blocks-zlite", {ColumnLayout::kCompressedBlocks, CodecType::kZlite,
                        64 * 1024}},
      {"dcsl", {ColumnLayout::kDictSkipList, CodecType::kNone, 0}},
  };

  std::fprintf(stderr, "skiplist ablation: %llu rows x %zu layouts...\n",
               static_cast<unsigned long long>(rows), layouts.size());
  for (const auto& [name, options] : layouts) {
    std::unique_ptr<ColumnFileWriter> writer;
    Die(ColumnFileWriter::Create(fs.get(), "/" + name, type, options,
                                 &writer),
        "create");
    // Wide-map profile: heavy map values (~1.2 KB/row) so 1000-row skips
    // jump ~1 MB — big enough that a seek beats reading through, as in
    // the paper's datasets.
    CrawlGenerator gen =
        bench::MakeCrawlGenerator(bench::CrawlProfile::kWideMap);
    for (uint64_t i = 0; i < rows; ++i) {
      // Reuse the crawl metadata map as the column value.
      Die(writer->Append(gen.Next().elements()[4]), "append");
    }
    Die(writer->Close(), "close");
  }

  bench::Report report("skiplist");
  report.Config("rows", rows);
  report.Config("workload", "crawl/wide-map");

  std::printf("=== Skip-list ablation: read 1-in-N rows of a map column ===\n");
  std::printf("%-14s", "Layout");
  const std::vector<uint64_t> strides = {1, 10, 100, 1000, 10000};
  for (uint64_t stride : strides) std::printf("     1-in-%-6llu",
                                              (unsigned long long)stride);
  std::printf("\n");
  for (const auto& [name, options] : layouts) {
    std::printf("%-14s", name.c_str());
    for (uint64_t stride : strides) {
      Result r = Sweep(fs.get(), "/" + name, rows, stride);
      std::printf(" %6.3fs(%4sMB)", r.seconds, bench::Mb(r.bytes).c_str());
      report.AddRow()
          .Set("layout", name)
          .Set("stride", stride)
          .Set("seconds", r.seconds)
          .Set("bytes_read", r.bytes);
    }
    std::printf("\n");
  }
  report.Write();
  std::printf(
      "\nexpected: plain pays full decode cost at every stride; skiplist "
      "and dcsl fetch\nless as the stride grows; compressed blocks help "
      "only once whole blocks are\nskipped (stride >> rows-per-block).\n");
  return 0;
}
