#pragma once
/// \file trace.hpp
/// In-memory spans around the benchmark's calls into the library. A span
/// has a name `<layer>.<call>` (the layer is the `src/` module the call
/// enters), a start, an end, the span that was open when it began, and the
/// identifier of the window, point or run it belongs to. Spans are kept in
/// memory and written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string "<layer>.<call>"
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  std::uint64_t id = 0;   ///< window / point / run identifier
};

/// The layer of a span name: the text before the first '.'.
[[nodiscard]] std::string layer_of(const char* name);

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per layer.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Open a span (a no-op returning -1 while disabled).
  int begin(const char* name, std::uint64_t id);
  /// Close the span `begin` returned.
  void end(int index);

  /// Add a closed span, measured inside the library rather than around a
  /// call, as a child of the innermost open span (no-op while disabled).
  void record(const char* name, double start_s, double end_s, std::uint64_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), index_(tracer.begin(name, id)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Mean duration (s) of the spans called `name`; 0 if there are none.
  [[nodiscard]] double mean_duration_s(const char* name) const;

  /// Write the spans in the Chrome trace-event format (opens in
  /// chrome://tracing or Perfetto). Returns false if the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
