// The traced run's span recorder: spans live in memory and are written out
// once, as Chrome trace JSON, when the run ends.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>

#include "bench.h"

namespace perfbench {

namespace {

double now_us() { return since_start_s() * 1e6; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int Spans::open(const std::string& name, uint64_t request) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_us(), 0.0, parent, request});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Spans::close(int index) {
  spans_[index].end_us = now_us();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3);  // microseconds, to the ns
  os << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"request\":" << s.request
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

void Spans::print_table(FILE* out) const {
  struct Row {
    size_t count{0};
    double total_us{0.0};
    double self_us{0.0};
  };
  // Children of one span run sequentially on the harness thread, so the
  // part of a span they cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double dur = spans_[i].end_us - spans_[i].start_us;
    ++r.count;
    r.total_us += dur;
    r.self_us += dur - child_us[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.self_us > b.second.self_us; });
  std::fprintf(out, "%-24s %8s %14s %14s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, r] : sorted)
    std::fprintf(out, "%-24s %8zu %14.6f %14.6f\n", name.c_str(), r.count,
                 r.total_us * 1e-6, r.self_us * 1e-6);
}

}  // namespace perfbench
