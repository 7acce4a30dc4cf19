#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  if (dot == nullptr) return name;
  return std::string(name, static_cast<std::size_t>(dot - name));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s, hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo), b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[layer_of(spans[i].name)] += self[i];
  return out;
}

int Tracer::begin(const char* name, std::uint64_t id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  s.start_s = now_s();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Spans close in LIFO order; tolerate an out-of-order close by unwinding
  // to the closed span.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::record(const char* name, double start_s, double end_s, std::uint64_t id) {
  if (!enabled_) return;
  spans_.push_back({name, start_s, end_s, open_.empty() ? -1 : open_.back(), id});
}

double Tracer::mean_duration_s(const char* name) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      sum += s.end_s - s.start_s;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(), (s.start_s - t0) * 1e6,
                 (s.end_s - s.start_s) * 1e6, static_cast<unsigned long long>(s.id), s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
