#pragma once
/// \file report.hpp
/// What one benchmark run reports: the correctness verdict, the operation
/// counts, the metrics (by registered name, with units), and the host
/// block that says where the numbers were measured.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics a user of the system sees, printed by every untraced run.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();

/// Single-layer metrics, printed by every traced run (0 where a workload
/// does not enter the layer).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< trace files and result records
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

class Result {
 public:
  /// Record a metric under a registered name (throws on an unknown name).
  void set(const std::string& name, double value);

  /// Record a correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what);

  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return gate_failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& gate_failures() const { return gate_failures_; }
  [[nodiscard]] const std::map<std::string, double>& values() const { return values_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with the
  /// end-to-end set (untraced) or the per-layer set (traced).
  [[nodiscard]] std::string json_line(bool traced) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> gate_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host block: CPU count and model, int8 kernel ISA tiers, compiler, build
/// type, source revision.
[[nodiscard]] std::string host_json(const Options& options);

/// Peak resident set size of this process (MiB).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
