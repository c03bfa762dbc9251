#ifndef PERFBENCH_TRACE_STATS_H_
#define PERFBENCH_TRACE_STATS_H_

// Self-time accounting over one job's trace: the engine's spans plus the
// bench.* spans the probes add. A span's parent is the innermost span on
// the same thread whose interval covers it; its self time is its duration
// minus the durations of its direct children.

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace perfbench {

struct SpanSummary {
  /// Inclusive microseconds per span name.
  std::map<std::string, uint64_t> total_us;
  /// Duration minus direct children, per span name.
  std::map<std::string, uint64_t> self_us;
  /// Microseconds of direct children, per (parent name, child name). A
  /// span with no parent is keyed under parent "".
  std::map<std::pair<std::string, std::string>, uint64_t> child_us;

  uint64_t Total(const std::string& name) const;
  uint64_t Self(const std::string& name) const;
  uint64_t Child(const std::string& parent, const std::string& child) const;
  /// Direct-children time of `parent` from spans not named "bench.*".
  uint64_t EngineChildren(const std::string& parent) const;
};

/// Parses a TraceCollector::ToJson document and summarizes its complete
/// events. Returns false (with a reason) on a malformed document.
bool SummarizeTrace(const std::string& json, SpanSummary* out,
                    std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_STATS_H_
