// Codec ablation for the Section 5.3 trade-off: the LZO stand-in (Lzf)
// versus the ZLIB stand-in (Zlite) on page-like text, map-key material,
// and incompressible binary. Shows the ratio-vs-decompression-CPU
// trade-off the paper exploits: Zlite compresses tighter, Lzf decompresses
// several times faster — and dictionary coding of map keys beats both on
// access cost. Also times the block CRC every first read of a block pays.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "common/buffer.h"
#include "common/crc32.h"
#include "common/random.h"
#include "compress/codec.h"
#include "compress/dictionary.h"

namespace colmr {
namespace {

std::string MakePayload(int kind, size_t size) {
  Random rng(bench::kDatasetSeed + kind * 101 + 7);
  std::string data;
  data.reserve(size);
  if (kind == 0) {  // page-like text
    std::vector<std::string> vocab;
    for (int i = 0; i < 512; ++i) vocab.push_back(rng.NextWord(3 + i % 9));
    Zipf zipf(vocab.size(), 0.8, 17);
    while (data.size() < size) {
      data += "<p>" + vocab[zipf.Next()] + " " + vocab[zipf.Next()] + "</p>";
    }
  } else if (kind == 1) {  // serialized map keys (small universe)
    const char* const keys[] = {"content-type", "server", "charset",
                                "language", "encoding", "etag"};
    while (data.size() < size) {
      data += keys[rng.Uniform(6)];
      data += '\0';
    }
  } else {  // incompressible binary
    while (data.size() < size) {
      data.push_back(static_cast<char>(rng.Next() & 0xff));
    }
  }
  data.resize(size);
  return data;
}

const char* PayloadName(int kind) {
  return kind == 0 ? "text" : kind == 1 ? "mapkeys" : "binary";
}

void BM_Compress(benchmark::State& state) {
  const CodecType type = static_cast<CodecType>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  const std::string payload = MakePayload(kind, 256 * 1024);
  const Codec* codec = GetCodec(type);
  Buffer out;
  for (auto _ : state) {
    out.Clear();
    Status s = codec->Compress(payload, &out);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.counters["ratio"] =
      static_cast<double>(payload.size()) / static_cast<double>(out.size());
  state.SetLabel(std::string(codec->name()) + "/" + PayloadName(kind));
}

void BM_Decompress(benchmark::State& state) {
  const CodecType type = static_cast<CodecType>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  const std::string payload = MakePayload(kind, 256 * 1024);
  const Codec* codec = GetCodec(type);
  Buffer compressed;
  Status s = codec->Compress(payload, &compressed);
  if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  Buffer out;
  for (auto _ : state) {
    out.Clear();
    s = codec->Decompress(compressed.AsSlice(), &out);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.SetLabel(std::string(codec->name()) + "/" + PayloadName(kind));
}

void CodecArgs(benchmark::internal::Benchmark* bench) {
  for (int codec : {static_cast<int>(CodecType::kLzf),
                    static_cast<int>(CodecType::kZlite)}) {
    for (int kind : {0, 1, 2}) {
      bench->Args({codec, kind});
    }
  }
}

BENCHMARK(BM_Compress)->Apply(CodecArgs);
BENCHMARK(BM_Decompress)->Apply(CodecArgs);

// Dictionary access cost: decoding one map value by dictionary lookup,
// the DCSL fast path (no block decompression at all).
void BM_DictionaryLookup(benchmark::State& state) {
  StringDictionary dict;
  Random rng(3);
  std::vector<uint32_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(dict.Intern(rng.NextWord(10)));
  }
  uint64_t sum = 0;
  for (auto _ : state) {
    for (uint32_t id : ids) {
      benchmark::DoNotOptimize(sum += dict.Lookup(id).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}

BENCHMARK(BM_DictionaryLookup);

// Block CRC (DESIGN.md §7). One 4 MiB block folded again and again stays
// in cache; 64 MiB of distinct 4 MiB blocks, folded in turn, come from
// DRAM, as a job's first read of each block does.
void BM_Crc32(benchmark::State& state) {
  constexpr size_t kBlockBytes = 4 << 20;
  const size_t n_blocks = static_cast<size_t>(state.range(0)) / kBlockBytes;
  Random rng(bench::kDatasetSeed + 11);
  std::vector<std::string> blocks(n_blocks, std::string(kBlockBytes, '\0'));
  for (std::string& block : blocks) {
    for (size_t i = 0; i < kBlockBytes; i += 8) {
      const uint64_t word = rng.Next();
      memcpy(&block[i], &word, 8);
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(Slice(blocks[next])));
    next = next + 1 == n_blocks ? 0 : next + 1;
  }
  state.SetBytesProcessed(state.iterations() * kBlockBytes);
  state.SetLabel(n_blocks == 1 ? "one block (in cache)"
                               : "distinct blocks (DRAM)");
}

BENCHMARK(BM_Crc32)->Arg(4 << 20)->Arg(64 << 20);

// Forwards to the console output while mirroring every run into the
// BENCH_codecs.json report (google-benchmark's own JSON reporter can't
// append our config/metrics sections).
class ReportingConsoleReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingConsoleReporter(bench::Report* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      bench::Report::Row& row = report_->AddRow();
      row.Set("name", run.benchmark_name())
          .Set("label", run.report_label)
          .Set("iterations", static_cast<uint64_t>(run.iterations))
          .Set("real_seconds", run.real_accumulated_time)
          .Set("cpu_seconds", run.cpu_accumulated_time);
      for (const auto& [name, counter] : run.counters) {
        row.Set(name, static_cast<double>(counter));
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::Report* report_;
};

}  // namespace
}  // namespace colmr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  colmr::bench::Report report("codecs");
  report.Config("payload_bytes", static_cast<uint64_t>(256 * 1024));
  colmr::ReportingConsoleReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.Write();
  return 0;
}
