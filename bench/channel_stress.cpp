// Hostile-channel stress sweep (docs/robustness.md): co-channel
// interference (`phy::InterferenceField`) and wearer body motion
// (`phy::BodyMotionProcess`) against a saturating audio population, with
// the closed-loop degradation ladder (`net::DegradationController`) armed
// and disarmed side by side. The headline claim: at every stressed SIR
// level the controller-on network delivers strictly more goodput than the
// controller-off one — full-size frames fall off the OOK waterfall cliff
// while the ladder's shrunken frames still land — and on the clean channel
// an armed-but-idle controller is bit-identical to no controller at all.
//
// The SIR levels park the collided-state SNIR on the steep part of the
// waterfall (~11-12 dB effective for Wi-R's 30 dB clean budget): full
// 240 B frames see FER ~0.99+ there, while the quarter-size frames of the
// deepest ladder rungs survive often enough to keep audio flowing. Duty
// cycle 1.0 models continuously-streaming aggressors (the worst case —
// any quiet gap is free goodput for the undegraded network).
//
// A separate deterministic recovery scenario (two-state still/occlusion
// motion chain with fixed sojourns) measures how long the ladder takes to
// walk back to normal after the channel heals — the
// `degradation_recovery_s` watched series.
//
// Set IOB_CHANNEL_SMOKE=1 (CI) to restrict the sweep to the clean and one
// stressed level with motion off, so both matrix legs exercise the
// dynamics overlay and the controller on every push without the full cost.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/expect.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "net/degradation.hpp"
#include "net/network_sim.hpp"
#include "phy/body_motion.hpp"
#include "phy/interference.hpp"

namespace {

using namespace iob;

constexpr int kNodes = 8;
constexpr double kDurationS = 10.0;

/// One sweep point: an interference level x a motion profile x whether the
/// degradation controller is armed.
struct StressSpec {
  std::string sir_label = "clean";
  phy::SirLevel sir{};
  std::string motion_label = "still";
  bool motion = false;
  phy::BodyMotionParams motion_params{};
  bool controller = false;
};

struct StressResult {
  StressSpec spec;
  double goodput_bps = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_arq = 0;
  std::uint64_t dropped_overflow_clean = 0;
  std::uint64_t dropped_shed = 0;
  std::uint64_t frames_dropped = 0;
  double mean_latency_s = 0.0;
  std::uint64_t max_step = 0;       ///< deepest ladder rung over nodes
  std::uint64_t transitions = 0;
  double time_degraded_s = 0.0;     ///< summed over nodes
};

/// One audio leaf: 150 kb/s keeps the 8-node bus at ~2/3 utilization on
/// the clean channel (no saturation — the armed-idle bit-identity point
/// must not brush the queue) while leaving the controller-off stressed
/// points deep in retry saturation.
net::NodeConfig audio_leaf(int i, bool controller) {
  net::NodeConfig c;
  c.name = "audio-" + std::to_string(i);
  c.stream = c.name;
  c.sense_power_w = 150e-6;
  c.output_rate_bps = 150e3;
  c.frame_bytes = 240;
  c.settle_period_s = 0.1;  ///< responsive closed-loop sampling
  c.phase_s = 1e-3 * i;
  c.degradation = controller;
  return c;
}

StressResult run_point(const StressSpec& spec, std::uint64_t seed) {
  net::NetworkConfig nc;
  nc.seed = seed;
  // A finite store bound: the controller-off stressed points queue far
  // faster than the saturated bus drains, so clean-path overflow (the
  // `dropped_overflow_clean` bucket) is part of what disarming costs.
  nc.mac.max_queue_frames = 128;
  if (spec.sir.aggressors > 0 && spec.sir.duty_cycle > 0.0) nc.dynamics.interference = spec.sir;
  if (spec.motion) nc.dynamics.motion = spec.motion_params;
  net::NetworkSim sim(core::make_bus_link(core::BusKind::kWiR), nc);
  for (int i = 0; i < kNodes; ++i) sim.add_node(audio_leaf(i, spec.controller));
  const net::NetworkReport report = sim.run(kDurationS);

  StressResult res;
  res.spec = spec;
  res.goodput_bps = report.aggregate_goodput_bps;
  double latency = 0.0;
  for (const net::NodeReport& n : report.nodes) {
    res.delivered += n.frames_delivered;
    res.dropped_arq += n.dropped_arq;
    res.dropped_overflow_clean += n.dropped_overflow_clean;
    res.dropped_shed += n.dropped_shed;
    res.frames_dropped += n.frames_dropped;
    latency += n.mean_latency_s;
    res.max_step = std::max(res.max_step, n.degradation_max_step);
    res.transitions += n.degradation_transitions;
    res.time_degraded_s += n.time_degraded_s;
  }
  res.mean_latency_s = latency / static_cast<double>(report.nodes.size());
  return res;
}

/// The interference axis. Per-aggressor SIR drops as the population grows
/// (closer/stronger radios), holding the collided-state SNIR on the 11-12
/// dB waterfall cliff where frame size decides survival.
std::vector<std::pair<std::string, phy::SirLevel>> sir_levels() {
  return {
      {"clean", {}},
      {"cafe", {/*aggressors=*/1, /*duty_cycle=*/1.0, /*aggressor_sir_db=*/-7.9}},
      {"gym", {/*aggressors=*/2, /*duty_cycle=*/1.0, /*aggressor_sir_db=*/-5.3}},
      {"subway", {/*aggressors=*/4, /*duty_cycle=*/1.0, /*aggressor_sir_db=*/-2.9}},
  };
}

std::vector<StressSpec> make_specs(bool smoke) {
  std::vector<std::pair<std::string, phy::SirLevel>> sirs = sir_levels();
  if (smoke) sirs = {sirs[0], sirs[2]};
  std::vector<StressSpec> specs;
  for (const auto& [sir_label, sir] : sirs) {
    for (int m = 0; m < (smoke ? 1 : 2); ++m) {
      for (bool controller : {false, true}) {
        StressSpec s;
        s.sir_label = sir_label;
        s.sir = sir;
        if (m == 1) {
          s.motion_label = "running";
          s.motion = true;
          s.motion_params = phy::running_profile();
        }
        s.controller = controller;
        specs.push_back(std::move(s));
      }
    }
  }
  return specs;
}

/// Deterministic recovery scenario: a fixed-sojourn two-state motion chain
/// occludes the link for exactly the first second of the run (deep enough
/// to drive the ladder down), then holds still for longer than the run;
/// the returned value is how long after the channel heals the controller
/// is back on rung 0. Pure function of the seed.
double measure_recovery_s() {
  constexpr double kOcclusionEndS = 1.0;
  phy::BodyMotionParams chain;
  chain.deterministic_sojourns = true;
  chain.initial = phy::MotionState::kOcclusion;
  auto& still = chain.states[static_cast<std::size_t>(phy::MotionState::kStill)];
  still.mean_sojourn_s = 10.0;  // outlives the run: exactly one occlusion
  still.gain_delta_db = 0.0;
  still.next = {0.0, 0.0, 0.0, 1.0};  // -> occlusion
  auto& occl = chain.states[static_cast<std::size_t>(phy::MotionState::kOcclusion)];
  occl.mean_sojourn_s = kOcclusionEndS;
  occl.gain_delta_db = -18.0;
  occl.next = {1.0, 0.0, 0.0, 0.0};  // -> still
  // Unreachable gait states still need valid rows for the ctor.
  for (phy::MotionState s : {phy::MotionState::kWalk, phy::MotionState::kRun}) {
    auto& p = chain.states[static_cast<std::size_t>(s)];
    p.mean_sojourn_s = 1.0;
    p.next = {1.0, 0.0, 0.0, 0.0};
  }

  net::NetworkConfig nc;
  nc.seed = 42;
  nc.dynamics.motion = chain;
  net::NetworkSim sim(core::make_bus_link(core::BusKind::kWiR), nc);
  for (int i = 0; i < 4; ++i) sim.add_node(audio_leaf(i, /*controller=*/true));
  const net::NetworkReport report = sim.run(8.0);

  double latest = 0.0;
  for (const net::NodeReport& n : report.nodes) {
    IOB_ENSURES(n.degradation_max_step > 0, "occlusion must drive the ladder down");
    IOB_ENSURES(n.degradation_step == 0, "every node must recover to rung 0");
    latest = std::max(latest, n.degradation_recovery_s);
  }
  IOB_ENSURES(latest > kOcclusionEndS, "recovery must postdate the occlusion");
  return latest - kOcclusionEndS;
}

void print_sweep() {
  const bool smoke = std::getenv("IOB_CHANNEL_SMOKE") != nullptr;
  const std::vector<StressSpec> specs = make_specs(smoke);
  common::print_banner("Channel stress — " + std::to_string(specs.size()) +
                       " NetworkSim points (" + std::to_string(kNodes) +
                       " leaves x SIR x motion x controller)" + (smoke ? " [smoke]" : ""));

  const core::SweepRunner runner;
  const double t0 = bench::wall_time_s();
  // Controller on/off pairs share a spec index parity; the whole sweep
  // shares one base seed per pair so each on/off comparison is apples to
  // apples (identical traffic phases and motion draws).
  const std::vector<StressResult> results = runner.map_over<StressResult, StressSpec>(
      specs, [](const StressSpec& s, std::size_t i) {
        return run_point(s, core::SweepRunner::point_seed(42, i / 2));
      });
  const double dt = bench::wall_time_s() - t0;

  // Clean-channel, motion-off baseline (controller off = index 0).
  const double baseline = results.front().goodput_bps;
  common::Table table({"sir", "motion", "ctrl", "goodput", "retained", "delivered",
                       "drops arq/ovfl/shed", "rung", "trans", "degraded"});
  for (const StressResult& r : results) {
    const double retained = baseline > 0.0 ? r.goodput_bps / baseline : 1.0;
    table.add_row({r.spec.sir_label, r.spec.motion_label, r.spec.controller ? "on" : "off",
                   common::fixed(r.goodput_bps / 1e3, 1) + " kb/s",
                   common::fixed(retained * 100.0, 1) + "%", std::to_string(r.delivered),
                   std::to_string(r.dropped_arq) + "/" +
                       std::to_string(r.dropped_overflow_clean) + "/" +
                       std::to_string(r.dropped_shed),
                   std::to_string(r.max_step), std::to_string(r.transitions),
                   common::fixed(r.time_degraded_s, 1) + " s"});
  }
  std::cout << table.to_string();

  // Acceptance: armed-but-idle is bit-identical on the clean channel, and
  // the controller wins goodput outright at every stressed SIR level.
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const StressResult& off = results[i];
    const StressResult& on = results[i + 1];
    if (off.spec.sir.aggressors == 0 && !off.spec.motion) {
      IOB_ENSURES(on.goodput_bps == off.goodput_bps &&
                      on.delivered == off.delivered &&
                      on.frames_dropped == off.frames_dropped &&
                      on.mean_latency_s == off.mean_latency_s,
                  "armed-but-idle controller must be bit-identical on the clean channel");
    }
    if (off.spec.sir.aggressors > 0) {
      IOB_ENSURES(on.goodput_bps > off.goodput_bps,
                  "controller-on must out-deliver controller-off under interference");
    }
  }

  const double recovery_s = measure_recovery_s();
  std::cout << "\n  ladder recovery after a 1 s occlusion: " << common::fixed(recovery_s, 2)
            << " s back to normal\n";
  common::print_note("'retained' is goodput vs the clean controller-off baseline; at every");
  common::print_note("stressed SIR level the armed ladder strictly out-delivers disarmed");
  std::cout << "\n  " << results.size() << " simulations in " << common::fixed(dt, 2)
            << " s (" << common::fixed(static_cast<double>(results.size()) / dt, 1)
            << " points/s on " << runner.threads() << " thread(s))\n";

  bench::JsonReporter json("channel_stress");
  json.add("channel_stress_points", static_cast<double>(results.size()));
  json.add("channel_stress_points_per_s", static_cast<double>(results.size()) / dt);
  json.add("degradation_recovery_s", recovery_s);
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const StressResult& off = results[i];
    const StressResult& on = results[i + 1];
    if (off.spec.motion) continue;  // watched keys come from the still rows
    const std::string k = off.spec.sir_label;
    json.add("channel_stress_goodput_off_" + k, off.goodput_bps);
    json.add("channel_stress_goodput_on_" + k, on.goodput_bps);
    // The headline watched series: controller-on goodput fraction at the
    // gym level (present in both smoke and full sweeps).
    if (k == "gym" && baseline > 0.0) {
      json.add("channel_stress_goodput_retained", on.goodput_bps / baseline);
    }
  }
  json.write();
}

void BM_ChannelPoint(benchmark::State& state) {
  std::vector<StressSpec> specs = make_specs(/*smoke=*/true);
  const StressSpec& spec = specs[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_point(spec, 42));
  }
}
BENCHMARK(BM_ChannelPoint)->Arg(0)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  return iob::bench::run_microbenchmarks(argc, argv);
}
