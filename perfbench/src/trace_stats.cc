#include "trace_stats.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <vector>

namespace perfbench {

namespace {

struct Event {
  std::string name;
  uint64_t ts = 0;
  uint64_t dur = 0;
  int64_t tid = 0;
  uint64_t end() const { return ts + dur; }
};

/// Just enough JSON to walk the trace document: objects, arrays, strings,
/// numbers and literals; the complete ("X") events are collected.
class TraceParser {
 public:
  explicit TraceParser(const std::string& text) : s_(text) {}

  bool Parse(std::vector<Event>* events, std::string* error) {
    events_ = events;
    if (!Value(0) || (Ws(), pos_ != s_.size())) {
      *error = "malformed trace JSON near byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    Ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          if (pos_ + 4 > s_.size()) return false;
          pos_ += 4;
          out->push_back('?');
        } else {
          out->push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool Scalar(std::string* out) {
    Ws();
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']' && !std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    *out = s_.substr(start, pos_ - start);
    return pos_ > start;
  }

  // depth 0: the document; 2: an element of traceEvents.
  bool Value(int depth) {
    Ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (c == '[') {
      ++pos_;
      if (Eat(']')) return true;
      do {
        if (!Value(depth + 1)) return false;
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '{') {
      ++pos_;
      Event event;
      std::string phase;
      if (!Eat('}')) {
        do {
          std::string key;
          if (!String(&key) || !Eat(':')) return false;
          Ws();
          const bool scalar = pos_ < s_.size() && s_[pos_] != '{' &&
                              s_[pos_] != '[' && s_[pos_] != '"';
          if (depth == 2 && key == "name") {
            if (!String(&event.name)) return false;
          } else if (depth == 2 && key == "ph") {
            if (!String(&phase)) return false;
          } else if (depth == 2 && scalar &&
                     (key == "ts" || key == "dur" || key == "tid")) {
            std::string number;
            if (!Scalar(&number)) return false;
            const long long v = std::strtoll(number.c_str(), nullptr, 10);
            if (key == "ts") event.ts = static_cast<uint64_t>(v);
            if (key == "dur") event.dur = static_cast<uint64_t>(v);
            if (key == "tid") event.tid = v;
          } else if (!Value(depth + 1)) {
            return false;
          }
        } while (Eat(','));
        if (!Eat('}')) return false;
      }
      if (depth == 2 && phase == "X") events_->push_back(std::move(event));
      return true;
    }
    std::string ignored;
    return Scalar(&ignored);
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::vector<Event>* events_ = nullptr;
};

bool IsBench(const std::string& name) { return name.rfind("bench.", 0) == 0; }

}  // namespace

uint64_t SpanSummary::Total(const std::string& name) const {
  auto it = total_us.find(name);
  return it == total_us.end() ? 0 : it->second;
}

uint64_t SpanSummary::Self(const std::string& name) const {
  auto it = self_us.find(name);
  return it == self_us.end() ? 0 : it->second;
}

uint64_t SpanSummary::Child(const std::string& parent,
                            const std::string& child) const {
  auto it = child_us.find({parent, child});
  return it == child_us.end() ? 0 : it->second;
}

uint64_t SpanSummary::EngineChildren(const std::string& parent) const {
  uint64_t sum = 0;
  for (auto it = child_us.lower_bound({parent, ""});
       it != child_us.end() && it->first.first == parent; ++it) {
    if (!IsBench(it->first.second)) sum += it->second;
  }
  return sum;
}

bool SummarizeTrace(const std::string& json, SpanSummary* out,
                    std::string* error) {
  std::vector<Event> events;
  if (!TraceParser(json).Parse(&events, error)) return false;
  // Parents precede children: by thread, start, then longest first.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<uint64_t> children(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    // One microsecond of slack: the two clocks round independently.
    while (!stack.empty()) {
      const Event& top = events[stack.back()];
      if (top.tid == e.tid && e.ts >= top.ts && e.end() <= top.end() + 1) {
        break;
      }
      stack.pop_back();
    }
    const std::string parent =
        stack.empty() ? std::string() : events[stack.back()].name;
    if (!stack.empty()) children[stack.back()] += e.dur;
    out->child_us[{parent, e.name}] += e.dur;
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out->total_us[e.name] += e.dur;
    out->self_us[e.name] += e.dur > children[i] ? e.dur - children[i] : 0;
  }
  return true;
}

}  // namespace perfbench
