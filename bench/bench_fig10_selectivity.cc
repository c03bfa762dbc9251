// Reproduces Figure 10 (Appendix B.4): benefits of lazy materialization
// and skip lists as the map-function predicate's selectivity varies. The
// job aggregates a value from the map-typed column for records whose
// string column matches a prefix; selectivity is swept from ~0% to 100%.
//
// Paper shape: at low selectivity CIF-SL clearly beats CIF (it never
// deserializes the map column for non-matching records); the two converge
// as selectivity approaches 100%, where CIF-SL's overhead over CIF is
// minor. Each CIF-SL row also reports decoded_per_touch, the column values
// the lazy scan decoded per value the map function read: 1.0 when only
// touched rows decode.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/datasets.h"
#include "cif/cif.h"
#include "cif/cof.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

using bench::Die;

constexpr uint64_t kBaseRecords = 150000;

/// One pushdown-sweep arm over the zoned dataset: aggregates int0 for
/// rows with seq < cutoff, either by pushing `seq < cutoff` into the
/// format (zone-map pruning + selection vectors) or by checking it inside
/// the map function over a full scan. Returns the scan's time and I/O;
/// *sum and *matches receive the aggregate for the outputs_match check.
bench::ScanResult RunZonedScan(MiniHdfs* fs, const std::string& path,
                               int64_t cutoff, bool pushdown, uint64_t* sum,
                               uint64_t* matches) {
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {path};
  config.projection = {"seq", "int0"};
  if (pushdown) {
    Predicate predicate;
    Die(ParsePredicate("seq < " + std::to_string(cutoff), &predicate),
        "parse");
    config.predicate = std::make_shared<const Predicate>(std::move(predicate));
    config.predicate_pushdown = true;
  }
  *sum = 0;
  *matches = 0;
  return bench::ScanDataset(fs, &format, config, [&](Record& record) {
    if (!pushdown && record.GetOrDie("seq").int64_value() >= cutoff) {
      return;
    }
    *sum += static_cast<uint64_t>(record.GetOrDie("int0").int32_value());
    ++*matches;
  });
}

double RunScan(MiniHdfs* fs, const std::string& path, bool lazy) {
  ColumnInputFormat format;
  JobConfig config;
  config.input_paths = {path};
  config.projection = {"str0", "map0"};
  config.lazy_records = lazy;
  uint64_t sum = 0;
  uint64_t matches = 0;
  bench::ScanResult result =
      bench::ScanDataset(fs, &format, config, [&](Record& record) {
        const std::string& s = record.GetOrDie("str0").string_value();
        if (s.rfind(kMicrobenchMatchPrefix, 0) == 0) {
          // Aggregate the map values of matching records (the paper's
          // aggregation under a given key).
          for (const auto& [key, value] : record.GetOrDie("map0").map_entries()) {
            sum += static_cast<uint64_t>(value.int32_value());
          }
          ++matches;
        }
      });
  (void)sum;
  (void)matches;
  return result.sim_seconds;
}

}  // namespace
}  // namespace colmr

int main() {
  using namespace colmr;
  const uint64_t records = bench::ScaledCount(kBaseRecords);
  bench::Report report("fig10_selectivity");
  report.Config("records", records);
  report.Config("workload", "microbench");
  std::printf("=== Figure 10: lazy materialization vs selectivity ===\n");
  std::printf("%12s %12s %12s %10s %12s\n", "Selectivity", "CIF(s)",
              "CIF-SL(s)", "speedup", "decoded/touch");
  // Scan counters of the default registry (ScanDataset passes no
  // registry), diffed around each CIF-SL scan.
  Counter* values_read =
      MetricsRegistry::Default().counter("cif.scan.values_read");
  Counter* field_reads =
      MetricsRegistry::Default().counter("cif.lazy.field_reads");

  for (double selectivity : {0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 1.0}) {
    // Fresh dataset per point so the hit fraction is exact.
    auto fs = std::make_unique<MiniHdfs>(
        bench::PaperCluster(), std::make_unique<ColumnPlacementPolicy>(10));
    Schema::Ptr schema = MicrobenchSchema();
    CofOptions plain_options;
    plain_options.split_target_bytes = 8ull << 20;
    CofOptions sl_options = plain_options;
    sl_options.default_column.layout = ColumnLayout::kSkipList;
    sl_options.column_overrides["str0"] = ColumnOptions{};  // always read

    std::unique_ptr<CofWriter> plain, sl;
    Die(CofWriter::Open(fs.get(), "/plain", schema, plain_options, &plain),
        "plain");
    Die(CofWriter::Open(fs.get(), "/sl", schema, sl_options, &sl), "sl");
    MicrobenchGenerator gen = bench::MakeMicrobenchGenerator(selectivity);
    bench::FillWriters(gen, records, {plain.get(), sl.get()});

    const double cif_seconds = RunScan(fs.get(), "/plain", false);
    const uint64_t read_before = values_read->value();
    const uint64_t gets_before = field_reads->value();
    const double sl_seconds = RunScan(fs.get(), "/sl", true);
    const double decoded_per_touch =
        static_cast<double>(values_read->value() - read_before) /
        static_cast<double>(field_reads->value() - gets_before);
    std::printf("%11.1f%% %12.3f %12.3f %9.2fx %12.3f\n", selectivity * 100,
                cif_seconds, sl_seconds, cif_seconds / sl_seconds,
                decoded_per_touch);
    report.AddRow()
        .Set("selectivity", selectivity)
        .Set("cif_seconds", cif_seconds)
        .Set("cif_sl_seconds", sl_seconds)
        .Set("speedup", cif_seconds / sl_seconds)
        .Set("decoded_per_touch", decoded_per_touch);
  }
  // ---- Predicate-pushdown arm (DESIGN.md §13) ----
  // Zoned dataset: monotone seq, so zone maps on seq prune ~(1 - s) of
  // the rowgroups for `seq < cutoff`. The comparison arm runs the same
  // filter inside the map function over a full scan.
  std::printf("\n=== Pushdown: seq < cutoff vs filter-in-map ===\n");
  std::printf("%12s %15s %12s %10s %10s %12s %12s %10s\n", "Selectivity",
              "filter-map(s)", "pushdown(s)", "speedup", "pruned_rg",
              "map_bytes", "push_bytes", "wall_x");
  auto zfs = std::make_unique<MiniHdfs>(
      bench::PaperCluster(), std::make_unique<ColumnPlacementPolicy>(10));
  {
    CofOptions zoned_options;
    zoned_options.split_target_bytes = 8ull << 20;
    zoned_options.default_column.layout = ColumnLayout::kSkipList;
    std::unique_ptr<CofWriter> zoned;
    Die(CofWriter::Open(zfs.get(), "/zoned", ZonedSchema(), zoned_options,
                        &zoned),
        "zoned");
    ZonedGenerator gen = bench::MakeZonedGenerator();
    bench::FillWriters(gen, records, {zoned.get()});
  }
  Counter* pruned_rowgroups =
      MetricsRegistry::Default().counter("cif.prune.rowgroups");
  for (double selectivity : {0.001, 0.01, 0.05, 0.2, 0.5, 1.0}) {
    const int64_t cutoff =
        static_cast<int64_t>(selectivity * static_cast<double>(records));
    uint64_t map_sum = 0, map_matches = 0;
    const bench::ScanResult filter_map = RunZonedScan(
        zfs.get(), "/zoned", cutoff, false, &map_sum, &map_matches);
    const uint64_t pruned_before = pruned_rowgroups->value();
    uint64_t push_sum = 0, push_matches = 0;
    const bench::ScanResult pushdown = RunZonedScan(
        zfs.get(), "/zoned", cutoff, true, &push_sum, &push_matches);
    const uint64_t pruned = pruned_rowgroups->value() - pruned_before;
    const bool outputs_match =
        map_sum == push_sum && map_matches == push_matches;
    // ScanDataset times the scan loop with a steady clock: wall seconds.
    const double wall_speedup = filter_map.cpu_seconds / pushdown.cpu_seconds;
    std::printf("%11.1f%% %15.3f %12.3f %9.2fx %10llu %12llu %12llu %9.2fx%s\n",
                selectivity * 100, filter_map.sim_seconds,
                pushdown.sim_seconds,
                filter_map.sim_seconds / pushdown.sim_seconds,
                static_cast<unsigned long long>(pruned),
                static_cast<unsigned long long>(filter_map.io.TotalBytes()),
                static_cast<unsigned long long>(pushdown.io.TotalBytes()),
                wall_speedup, outputs_match ? "" : "  OUTPUT MISMATCH");
    report.AddRow()
        .Set("arm", "pushdown")
        .Set("selectivity", selectivity)
        .Set("filter_in_map_seconds", filter_map.sim_seconds)
        .Set("pushdown_seconds", pushdown.sim_seconds)
        .Set("speedup", filter_map.sim_seconds / pushdown.sim_seconds)
        .Set("filter_in_map_wall_seconds", filter_map.cpu_seconds)
        .Set("pushdown_wall_seconds", pushdown.cpu_seconds)
        .Set("wall_speedup", wall_speedup)
        .Set("filter_in_map_bytes", filter_map.io.TotalBytes())
        .Set("pushdown_bytes", pushdown.io.TotalBytes())
        .Set("pruned_rowgroups", pruned)
        .Set("matches", push_matches)
        .Set("outputs_match", outputs_match);
  }

  report.Write();
  std::printf(
      "\npaper shape: CIF-SL wins at high selectivity (few matches) and "
      "converges to CIF\nnear 100%% with only minor overhead.\n");
  return 0;
}
