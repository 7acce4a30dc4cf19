// fleet_population: a population of 8-leaf wearers streamed through
// `core::Fleet::run_streaming` on a 4-thread `SweepRunner`, spilling binary
// shards. Each wearer has audio, bio and IMU leaves and an analytic
// batched hub (no model executes), and runs 4 simulated s. The grid crosses
// {no fault, combined faults} x {clean, gym SIR} x {still, running} with a
// block of seeds drawn from the workload seed. Host time goes to the
// simulator stack: event queue, TDMA/ARQ, channel dynamics, node and energy
// ledgers, fold and spill.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/fleet.hpp"
#include "core/stream_sink.hpp"
#include "core/sweep_runner.hpp"
#include "phy/body_motion.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace iob;

namespace {

constexpr int kLeaves = 8;
constexpr std::size_t kSeedsPerCell = 1000;  // 8 regimes x 1000 = 8000 wearers a block
constexpr std::size_t kBlocks = 4;           // distinct seed blocks per run
constexpr std::size_t kSubGridSeeds = 4;     // 1-vs-4-thread identity sample
constexpr std::size_t kTracedSeeds = 16;     // serial traced sample
constexpr unsigned kThreads = 4;
constexpr double kSimSeconds = 4.0;

core::NodeClassSpec audio_class() {
  core::NodeClassSpec c;
  c.base.name = "audio";
  c.base.sense_power_w = 150e-6;
  c.base.isa_power_w = 1e-6;
  c.base.output_rate_bps = 64e3;
  c.base.frame_bytes = 240;
  c.base.slot_weight = 2;
  c.share = 1;
  net::SessionConfig kws;
  kws.macs_per_inference = 2'500'000;  // KWS DS-CNN-class pass, analytic only
  kws.bytes_per_inference = 16'000;  // one 2 s audio window
  kws.model = "kws-dscnn";
  kws.weight_bytes = 22'604;
  c.session = kws;
  return c;
}

core::NodeClassSpec bio_class() {
  core::NodeClassSpec c;
  c.base.name = "bio";
  c.base.sense_power_w = 8e-6;
  c.base.isa_power_w = 1e-6;
  c.base.output_rate_bps = 5e3;
  c.base.frame_bytes = 240;
  c.share = 5;
  return c;
}

core::NodeClassSpec imu_class() {
  core::NodeClassSpec c;
  c.base.name = "imu";
  c.base.sense_power_w = 60e-6;
  c.base.isa_power_w = 2e-6;
  c.base.output_rate_bps = 20e3;
  c.base.frame_bytes = 240;
  c.share = 2;
  return c;
}

/// The grid of seed block `block`: every regime crossed with `seeds`
/// consecutive seeds drawn from the workload seed.
core::FleetAxes make_axes(std::uint64_t seed, std::size_t block, std::size_t seeds) {
  core::FleetAxes axes;
  axes.node_counts = {kLeaves};
  core::NodeMix wearer{"wearer", {audio_class(), bio_class(), imu_class()}};
  // A 40 mAh cell puts the one-year perpetual line near the bio leaves'
  // draw, so the channel and fault regimes decide which side they land on.
  for (auto& c : wearer.classes) c.base.battery_mah = 40.0;
  axes.mixes = {wearer};
  axes.batch_windows = {2};
  axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kCombined};
  core::SirLevelVariant gym;
  gym.label = "gym";
  gym.level = {/*aggressors=*/2, /*duty_cycle=*/1.0, /*aggressor_sir_db=*/-5.3};
  axes.sir_levels = {core::SirLevelVariant{}, gym};
  core::MotionVariant running;
  running.label = "running";
  running.enabled = true;
  running.params = phy::running_profile();
  axes.motion = {core::MotionVariant{}, running};
  axes.seeds.clear();
  for (std::size_t i = 0; i < seeds; ++i) {
    axes.seeds.push_back(seed * 1'000'003ULL + block * kSeedsPerCell + i);
  }
  axes.duration_s = kSimSeconds;
  return axes;
}

/// Reads the binary spill shards back: the records in shard order.
std::vector<core::FleetStreamRecord> read_shards(const std::vector<std::string>& paths) {
  std::vector<core::FleetStreamRecord> out;
  for (const std::string& p : paths) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    if (f == nullptr) continue;
    core::FleetStreamRecord r;
    while (std::fread(&r, sizeof r, 1, f) == 1) out.push_back(r);
    std::fclose(f);
  }
  return out;
}

bool all_finite_or_inf(const core::FleetStreamRecord& r) {
  const double v[] = {r.drop_rate,  r.mean_latency_s, r.mean_leaf_power_w, r.min_life_days,
                      r.perpetual_fraction, r.hub_power_w, r.goodput_bps, r.bus_utilization,
                      r.elapsed_s};
  return std::none_of(std::begin(v), std::end(v), [](double x) { return std::isnan(x); });
}

/// Exact equality of two summaries: the rendered tables and the overall cell.
bool same_summary(const core::FleetSummary& a, const core::FleetSummary& b) {
  const core::AxisCell& x = a.overall;
  const core::AxisCell& y = b.overall;
  return a.to_string() == b.to_string() && a.total_points == b.total_points &&
         x.points == y.points && x.life_p10_days == y.life_p10_days &&
         x.life_p50_days == y.life_p50_days && x.life_p90_days == y.life_p90_days &&
         x.perpetual_fraction == y.perpetual_fraction &&
         x.mean_goodput_bps == y.mean_goodput_bps && x.mean_drop_rate == y.mean_drop_rate &&
         x.mean_latency_s == y.mean_latency_s &&
         x.mean_bus_utilization == y.mean_bus_utilization &&
         x.mean_availability == y.mean_availability;
}

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  core::FleetStreamResult result;
  std::vector<core::FleetStreamRecord> records;
};

Rep stream_once(std::uint64_t seed, std::size_t block, unsigned threads,
                const std::string& spill_dir, Tracer& tr) {
  Rep r;
  std::filesystem::remove_all(spill_dir);
  const double t0 = now_s();
  // Set-up: the grid declaration, the fleet and the worker pool.
  std::optional<core::Fleet> fleet;
  std::optional<core::SweepRunner> runner;
  {
    Tracer::Scope s(tr, "bench.setup", block);
    fleet.emplace(make_axes(seed, block, kSeedsPerCell));
    runner.emplace(threads);
  }
  core::FleetStreamConfig cfg;
  cfg.batch_points = 1024;
  cfg.spill = core::StreamSinkConfig{};
  cfg.spill->directory = spill_dir;
  cfg.spill->basename = "fleet";
  cfg.spill->format = core::StreamFormat::kBinary;
  const double t1 = now_s();
  {
    Tracer::Scope s(tr, "core.Fleet.run_streaming", block);
    r.result = fleet->run_streaming(*runner, cfg);
  }
  const double t2 = now_s();
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1;
  std::vector<std::string> shards;
  for (const auto& e : std::filesystem::directory_iterator(spill_dir)) {
    shards.push_back(e.path().string());
  }
  std::sort(shards.begin(), shards.end());
  r.records = read_shards(shards);
  std::filesystem::remove_all(spill_dir);
  return r;
}

/// Gate: the summary of a small sub-grid is identical at 1 and N threads.
bool subgrid_identical(std::uint64_t seed, unsigned threads) {
  const core::Fleet sub(make_axes(seed, 0, kSubGridSeeds));
  const core::FleetSummary one = sub.run_streaming(core::SweepRunner(1)).summary;
  const core::FleetSummary many = sub.run_streaming(core::SweepRunner(threads)).summary;
  return same_summary(one, many);
}

/// Serial pass over a sample of the grid with spans around each public
/// call: build, run, spill and fold.
struct SamplePass {
  double wall_s = 0.0;
  double run_us[3] = {0, 0, 0};  ///< clean, hostile, fault
  std::size_t runs[3] = {0, 0, 0};
  double frames = 0.0, retried = 0.0, dropped = 0.0, utilization = 0.0, run_total_us = 0.0;
  std::size_t points = 0;
};

SamplePass sample_pass(const core::Fleet& grid, const std::vector<core::FleetPointResult>& results,
                       const std::vector<std::size_t>& indices, const std::string& spill_dir,
                       Tracer& tr) {
  SamplePass p;
  std::filesystem::remove_all(spill_dir);
  core::StreamSinkConfig sc;
  sc.directory = spill_dir;
  sc.format = core::StreamFormat::kBinary;
  const double t0 = now_s();
  {
    core::StreamSink sink(sc);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const core::FleetPoint pt = grid.point_at(indices[j]);
      std::unique_ptr<net::NetworkSim> sim;
      {
        Tracer::Scope s(tr, "core.build_fleet_point", pt.index);
        sim = core::build_fleet_point(pt);
      }
      const double a = now_s();
      {
        Tracer::Scope s(tr, "net.NetworkSim.run", pt.index);
        (void)sim->run(pt.duration_s);
      }
      const double us = (now_s() - a) * 1e6;
      const int regime = pt.fault != core::FaultVariant::kNone ? 2
                         : (pt.sir.level.aggressors > 0 || pt.motion.enabled) ? 1
                                                                               : 0;
      p.run_us[regime] += us;
      ++p.runs[regime];
      p.run_total_us += us;
      const comm::MacStats& ms = sim->bus().stats();
      for (const auto& n : ms.nodes) {
        p.frames += static_cast<double>(n.frames_delivered + n.frames_dropped);
        p.retried += static_cast<double>(n.frames_retried);
        p.dropped += static_cast<double>(n.frames_dropped);
      }
      p.utilization += ms.utilization();
      {
        Tracer::Scope s(tr, "core.spill", pt.index);
        const core::FleetStreamRecord rec = core::fleet_stream_record(results[j]);
        sink.append(&rec, sizeof rec);
      }
    }
    Tracer::Scope s(tr, "core.StreamSink.finish", 0);
    sink.finish();
  }
  {
    Tracer::Scope s(tr, "core.Fleet.summarize", 0);
    (void)grid.summarize(results);
  }
  p.wall_s = now_s() - t0;
  p.points = indices.size();
  std::filesystem::remove_all(spill_dir);
  return p;
}

}  // namespace

void run_fleet_population(const Options& o, Tracer& tr, Result& res) {
  const unsigned threads = capped_threads(kThreads);
  const std::string spill_dir = o.out_dir + "/spill-" + std::to_string(::getpid());
  const bool traced = tr.enabled();
  tr.set_enabled(false);

  // Run each seed block once, then repeat blocks until the time is up;
  // a repeated block must reproduce its first summary exactly.
  std::vector<Rep> reps;
  double measured = 0.0;
  stream_once(o.seed, 0, threads, spill_dir, tr);  // untimed warm-up
  do {
    const std::size_t block = reps.size() % kBlocks;
    reps.push_back(stream_once(o.seed, block, threads, spill_dir, tr));
    measured += reps.back().run_s;
    const Rep& r = reps.back();
    const Rep& ref = reps[block];
    res.gate(r.result.spilled_rows == r.result.points && r.records.size() == r.result.points,
             "fleet_population: spilled rows must equal the point count");
    res.gate(same_summary(r.result.summary, ref.result.summary),
             "fleet_population: summary differs between repeated runs of a block");
    // Keep the records of each block's first run only, so memory does not
    // grow with the number of repeats.
    if (reps.size() > kBlocks) reps.back().records = {};
  } while (!traced && (measured < o.seconds || reps.size() < kBlocks + 1));

  std::uint64_t points = 0, bad = 0;
  bool ordered = true;
  double perpetual = 0.0;
  std::vector<double> latency_ms;
  for (std::size_t b = 0; b < std::min(kBlocks, reps.size()); ++b) {
    points += reps[b].result.points;
    perpetual += reps[b].result.summary.overall.perpetual_fraction;
    for (std::size_t i = 0; i < reps[b].records.size(); ++i) {
      const core::FleetStreamRecord& r = reps[b].records[i];
      ordered = ordered && r.index == i;
      if (!all_finite_or_inf(r)) ++bad;
      // Wearers whose leaves delivered nothing have no latency to report.
      if (r.mean_latency_s > 0.0) latency_ms.push_back(r.mean_latency_s * 1e3);
    }
  }
  const Rep& first = reps.front();
  res.gate(ordered, "fleet_population: spilled records must be in grid order");
  res.gate(subgrid_identical(o.seed, threads),
           "fleet_population: sub-grid summary differs between 1 and 4 threads");
  res.count(points, bad);

  std::vector<double> setup, rate;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.result.points) / r.run_s);
  }
  res.set("setup_s", median(setup));
  res.set("items_per_s", median(rate));
  res.set("latency_p50_ms", percentile(latency_ms, 50.0));
  res.set("latency_p99_ms", percentile(latency_ms, 99.0));
  res.set("useful_ratio", perpetual / static_cast<double>(std::min(kBlocks, reps.size())));
  if (!traced) return;

  // Serial throughput of the same grid, for the 4-thread efficiency.
  const Rep serial = stream_once(o.seed, 0, 1, spill_dir, tr);
  res.set("core.parallel_efficiency", serial.run_s / (threads * first.run_s));
  res.set("core.spilled_bytes", static_cast<double>(first.result.spilled_bytes));

  // Traced sample: every regime, a few seeds each, once without spans and
  // once with them.
  const core::Fleet grid(make_axes(o.seed, 0, kSeedsPerCell));
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i % kSeedsPerCell < kTracedSeeds) indices.push_back(i);
  }
  std::vector<core::FleetPointResult> results;
  for (const std::size_t i : indices) results.push_back(core::run_fleet_point(grid.point_at(i)));
  const SamplePass plain = sample_pass(grid, results, indices, spill_dir, tr);
  tr.set_enabled(true);
  const SamplePass p = sample_pass(grid, results, indices, spill_dir, tr);
  tr.set_enabled(false);
  res.set("trace.overhead", p.wall_s / plain.wall_s - 1.0);

  const double n = static_cast<double>(p.points);
  res.set("core.build_us", tr.mean_duration_s("core.build_fleet_point") * 1e6);
  res.set("core.spill_us", tr.mean_duration_s("core.spill") * 1e6);
  res.set("core.fold_us", tr.mean_duration_s("core.Fleet.summarize") * 1e6 / n);
  const char* const kRegimes[] = {"net.run_us.clean", "net.run_us.hostile", "net.run_us.fault"};
  for (int k = 0; k < 3; ++k) {
    res.set(kRegimes[k], p.runs[k] > 0 ? p.run_us[k] / static_cast<double>(p.runs[k]) : 0.0);
  }
  res.set("net.us_per_frame", p.run_total_us / std::max(1.0, p.frames));
  res.set("comm.bus_utilization", p.utilization / n);
  res.set("comm.frames_per_point", p.frames / n);
  res.set("comm.retry_ratio", p.retried / std::max(1.0, p.frames));
  res.set("comm.drop_ratio", p.dropped / std::max(1.0, p.frames));
}

}  // namespace perfbench
