#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},      {"items_per_s", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},    {"useful_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"nn.kernel_s", "s"},
        {"nn.kernel_f32_s", "s"},
        {"nn.kernel_int8_s", "s"},
        {"nn.kernel_share", "ratio"},
        {"nn.kws.f32.b32_items_per_s", "1/s"},
        {"nn.kws.int8.b32_items_per_s", "1/s"},
        {"nn.ecg.f32.b32_items_per_s", "1/s"},
        {"nn.ecg.int8.b32_items_per_s", "1/s"},
        {"nn.kws.f32.b1_us", "us"},
        {"nn.kws.int8.b1_us", "us"},
        {"nn.ecg.f32.b1_us", "us"},
        {"nn.ecg.int8.b1_us", "us"},
        {"nn.vww.f32.b1_us", "us"},
        {"nn.vww.int8.b1_us", "us"},
    };
    static const char* const kTypes[] = {
        // model.precision.type_us, the per-layer-type profile
        "nn.kws.f32.conv_us",    "nn.kws.f32.dwconv_us",  "nn.kws.f32.dense_us",
        "nn.kws.f32.other_us",   "nn.kws.int8.conv_us",   "nn.kws.int8.dwconv_us",
        "nn.kws.int8.dense_us",  "nn.kws.int8.other_us",  "nn.ecg.f32.conv_us",
        "nn.ecg.f32.dwconv_us",  "nn.ecg.f32.dense_us",   "nn.ecg.f32.other_us",
        "nn.ecg.int8.conv_us",   "nn.ecg.int8.dwconv_us", "nn.ecg.int8.dense_us",
        "nn.ecg.int8.other_us",  "nn.vww.f32.conv_us",    "nn.vww.f32.dwconv_us",
        "nn.vww.f32.dense_us",   "nn.vww.f32.other_us",   "nn.vww.int8.conv_us",
        "nn.vww.int8.dwconv_us", "nn.vww.int8.dense_us",  "nn.vww.int8.other_us",
    };
    for (const char* t : kTypes) s.push_back({t, "us"});
    const std::vector<MetricSpec> rest = {
        {"nn.split.prefix_us", "us"},
        {"nn.split.suffix_us", "us"},
        {"nn.split.wire_us", "us"},
        {"nn.split.wire_bytes", "B"},
        {"partition.split_pred_rel_err", "ratio"},
        {"net.hub.frames_received", "count"},
        {"net.hub.batched_passes", "count"},
        {"net.hub.items_per_pass", "count"},
        {"net.hub.executed", "count"},
        {"net.run_s", "s"},
        {"net.serial_non_kernel_s", "s"},
        {"net.run_us.clean", "us"},
        {"net.run_us.hostile", "us"},
        {"net.run_us.fault", "us"},
        {"net.us_per_frame", "us"},
        {"comm.bus_utilization", "ratio"},
        {"comm.frames_per_point", "count"},
        {"comm.retry_ratio", "ratio"},
        {"comm.drop_ratio", "ratio"},
        {"comm.airtime_ms", "ms"},
        {"core.build_us", "us"},
        {"core.spill_us", "us"},
        {"core.fold_us", "us"},
        {"core.spilled_bytes", "B"},
        {"core.parallel_efficiency", "ratio"},
        {"isa.bio.encode_us", "us"},
        {"isa.bio.decode_us", "us"},
        {"isa.bio.ratio", "ratio"},
        {"isa.adpcm.encode_us", "us"},
        {"isa.adpcm.decode_us", "us"},
        {"isa.adpcm.ratio", "ratio"},
        {"isa.mjpeg.encode_us", "us"},
        {"isa.mjpeg.decode_us", "us"},
        {"isa.mjpeg.ratio", "ratio"},
        {"isa.mfcc_us", "us"},
        {"workload.ecg.gen_us", "us"},
        {"workload.audio.gen_us", "us"},
        {"workload.video.gen_us", "us"},
        {"trace.overhead", "ratio"},
        {"trace.self_share.sim", "ratio"},
        {"trace.self_share.phy", "ratio"},
        {"trace.self_share.comm", "ratio"},
        {"trace.self_share.energy", "ratio"},
        {"trace.self_share.nn", "ratio"},
        {"trace.self_share.isa", "ratio"},
        {"trace.self_share.workload", "ratio"},
        {"trace.self_share.partition", "ratio"},
        {"trace.self_share.net", "ratio"},
        {"trace.self_share.core", "ratio"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* set : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *set) {
      if (name == m.name) return &m;
    }
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

void Result::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr) throw std::logic_error("unregistered metric " + name);
  values_[name] = value;
}

void Result::gate(bool ok, const std::string& what) {
  if (!ok) gate_failures_.push_back(what);
}

std::string Result::json_line(bool traced) const {
  std::string metrics;
  for (const MetricSpec& m : traced ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !traced) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") + m.name);
    }
    // A traced run reports 0 for a layer its workload never enters.
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) + ", \"failed\": " +
         std::to_string(failed_) + ", \"metrics\": {" + metrics + "}}";
}

std::string host_json(const Options& options) {
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool avx512bw = __builtin_cpu_supports("avx512bw") != 0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return std::string("{\"cpus\": ") + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"avx2\": " + (avx2 ? "true" : "false") +
         ", \"avx512bw\": " + (avx512bw ? "true" : "false") +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"git_rev\": " + json_string(options.git_rev) +
         ", \"src_sha256\": " + json_string(options.src_digest) + "}";
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
