// System benchmark entry point.
//
//   perfbench --workload <hub_saturation|fleet_population|sense_to_decision>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-rev <rev>] [--src-digest <sha256>]
//   perfbench --list-metrics
//
// Prints a host block line, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics when
// untraced, the per-layer metrics when traced. A traced run also writes its
// spans as a Chrome trace into the output directory. Exits 1 when a
// correctness gate fails, 2 on a usage or run error.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Records `trace.self_share.<layer>`: each layer's self time over the
/// summed self time of every span except the benchmark's own scaffolding.
void record_self_shares(const Tracer& tracer, Result& result) {
  const auto by_layer = self_time_by_layer(tracer.spans());
  double total = 0.0;
  for (const auto& [layer, s] : by_layer) {
    if (layer != "bench") total += s;
  }
  for (const auto& [layer, s] : by_layer) {
    if (layer != "bench" && total > 0.0) result.set("trace.self_share." + layer, s / total);
  }
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto* set : {&end_to_end_metrics(), &per_layer_metrics()}) {
        for (const MetricSpec& m : *set) std::cout << m.name << " " << m.unit << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = val;
    } else if (arg == "--git-rev") {
      o.git_rev = val;
    } else if (arg == "--src-digest") {
      o.src_digest = val;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  Tracer tracer(o.trace);
  Result result;
  try {
    std::filesystem::create_directories(o.out_dir);
    if (o.workload == "hub_saturation") {
      run_hub_saturation(o, tracer, result);
    } else if (o.workload == "fleet_population") {
      run_fleet_population(o, tracer, result);
    } else if (o.workload == "sense_to_decision") {
      run_sense_to_decision(o, tracer, result);
    } else {
      return usage("unknown workload " + o.workload);
    }
    result.set("peak_rss_mb", peak_rss_mb());
    if (o.trace) {
      record_self_shares(tracer, result);
      const std::string path =
          o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
      if (!tracer.write_chrome_trace(path)) return usage("cannot write " + path);
      std::cerr << "perfbench: wrote " << tracer.spans().size() << " spans to " << path << "\n";
    }
    for (const std::string& g : result.gate_failures()) {
      std::cerr << "perfbench: FAILED " << g << "\n";
    }
    std::cout << "{\"host\": " << host_json(o) << "}\n";
    std::cout << result.json_line(o.trace) << std::endl;
  } catch (const std::exception& e) {
    return usage(std::string("run failed: ") + e.what());
  }
  return result.correct() ? 0 : 1;
}
