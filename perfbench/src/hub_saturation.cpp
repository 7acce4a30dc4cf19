// hub_saturation: one hub terminating ~1000 staged sessions at saturation.
//
// Half the sessions run the KWS DS-CNN and half the ECG CNN1D; within each
// model half run f32 and half int8. Every session's leaf sends a 60 B frame
// every 0.5 simulated s from a seeded phase (open-loop, de-phased arrivals).
// The hub stages two superframes per flush and executes every staged
// inference on the nn engine with four engine threads, so host time goes
// almost entirely to batched kernels.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/wir_link.hpp"
#include "net/network_sim.hpp"
#include "nn/model_zoo.hpp"
#include "nn/qmodel.hpp"
#include "nn_probe.hpp"
#include "sim/rng.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace iob;

namespace {

constexpr int kSessions = 1000;
constexpr std::uint32_t kFrameBytes = 60;
constexpr std::uint64_t kBytesPerInference = 20;  // three inferences per frame
constexpr double kFramePeriodS = 0.5;
constexpr double kSimSeconds = 10.0;
constexpr unsigned kBatchWindow = 2;
constexpr unsigned kEngineThreads = 4;
constexpr int kMeterBatch = 32;  // the hub's metered sub-batch cap

/// Everything one replay needs; models must outlive the simulation.
struct Replay {
  std::unique_ptr<nn::Model> kws, ecg;
  std::unique_ptr<net::NetworkSim> sim;
};

std::string stream_name(int i) { return ((i % 2) == 0 ? "kws-" : "ecg-") + std::to_string(i); }

/// Model build, int8 calibration (inside `add_session`) and sim construction.
Replay build_replay(const std::vector<double>& phases, std::uint64_t seed, unsigned threads,
                    Tracer& tr) {
  Replay r;
  {
    Tracer::Scope s(tr, "nn.make_kws_dscnn", 0);
    r.kws = std::make_unique<nn::Model>(nn::make_kws_dscnn());
  }
  {
    Tracer::Scope s(tr, "nn.make_ecg_cnn1d", 0);
    r.ecg = std::make_unique<nn::Model>(nn::make_ecg_cnn1d());
  }
  net::NetworkConfig nc;
  nc.seed = seed;
  nc.mac.slot_s = 0;  // auto-size the slot for the 60 B frames
  nc.mac.auto_slot_mtu_bytes = kFrameBytes;
  nc.hub.batch_window = kBatchWindow;
  nc.hub.execute_and_meter = true;
  nc.hub.engine_threads = threads;
  {
    Tracer::Scope s(tr, "net.NetworkSim.construct", 0);
    r.sim = std::make_unique<net::NetworkSim>(std::make_unique<comm::WiRLink>(), nc);
  }
  for (int i = 0; i < kSessions; ++i) {
    const bool is_kws = (i % 2) == 0;
    const nn::Model& m = is_kws ? *r.kws : *r.ecg;
    net::NodeConfig n;
    n.name = stream_name(i);
    n.stream = n.name;
    n.sense_power_w = 50e-6;
    n.output_rate_bps = static_cast<double>(kFrameBytes) * 8.0 / kFramePeriodS;
    n.frame_bytes = kFrameBytes;
    n.phase_s = phases[static_cast<std::size_t>(i)];
    net::SessionConfig sc;
    sc.stream = n.stream;
    sc.model = m.name();
    sc.net = &m;
    sc.macs_per_inference = m.total_macs();
    sc.weight_bytes = m.total_params();
    sc.bytes_per_inference = kBytesPerInference;
    sc.precision = (i % 4) < 2 ? nn::Precision::kF32 : nn::Precision::kInt8;
    {
      Tracer::Scope s(tr, "net.NetworkSim.add_node", static_cast<std::uint64_t>(i));
      r.sim->add_node(n);
    }
    {
      Tracer::Scope s(tr, "net.NetworkSim.add_session", static_cast<std::uint64_t>(i));
      r.sim->add_session(sc);
    }
  }
  return r;
}

/// Totals and the per-session counted-field fingerprint of one replay.
struct ReplayStats {
  std::vector<std::uint64_t> counted;  ///< every counted field, every session
  std::vector<double> queued_means_s;  ///< per-session mean staging delay
  std::uint64_t inferences = 0, executed = 0, frames_dropped = 0;
  std::uint64_t frames_received = 0, batched_passes = 0;
  double kernel_s = 0.0, kernel_f32_s = 0.0, kernel_int8_s = 0.0;
  double bus_utilization = 0.0;
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

ReplayStats collect(net::NetworkSim& sim) {
  ReplayStats s;
  for (int i = 0; i < kSessions; ++i) {
    const net::SessionStats& st = sim.hub().session(stream_name(i));
    // Counted fields and simulated-time statistics; kernel wall times and
    // the energies derived from them are host-dependent and left out.
    const std::uint64_t fields[] = {
        st.bytes_in, st.inferences, st.batched_inferences, st.batched_passes,
        st.executed_inferences, st.staged_frames_lost, st.staged_bytes_lost, st.fault_resyncs,
        st.leaf_inferences, st.activation_bytes_shipped, st.repartitions,
        st.repartition_dropped_bytes, st.degradation_transitions, st.frames_saved_by_shedding,
        st.queued_latency_s.count(),
        bits_of(st.queued_latency_s.count() > 0 ? st.queued_latency_s.mean() : 0.0),
        bits_of(st.analytic_compute_energy_j)};
    s.counted.insert(s.counted.end(), std::begin(fields), std::end(fields));
    if (st.queued_latency_s.count() > 0) s.queued_means_s.push_back(st.queued_latency_s.mean());
    s.inferences += st.inferences;
    s.executed += st.executed_inferences;
    s.kernel_s += st.kernel_time_s;
    s.kernel_f32_s += st.kernel_time_f32_s;
    s.kernel_int8_s += st.kernel_time_int8_s;
  }
  for (const auto& n : sim.bus().stats().nodes) s.frames_dropped += n.frames_dropped;
  s.frames_received = sim.hub().frames_received();
  s.batched_passes = sim.hub().batched_passes();
  s.bus_utilization = sim.bus().stats().utilization();
  return s;
}

struct Timed {
  double setup_s = 0.0;
  double run_s = 0.0;
  ReplayStats stats;
};

Timed replay_once(const std::vector<double>& phases, std::uint64_t seed, unsigned threads,
                  Tracer& tr, std::uint64_t rep) {
  Timed t;
  const double t0 = now_s();
  Replay r;
  {
    Tracer::Scope s(tr, "bench.setup", rep);
    r = build_replay(phases, seed, threads, tr);
  }
  const double t1 = now_s();
  {
    Tracer::Scope s(tr, "net.NetworkSim.run", rep);
    r.sim->run(kSimSeconds);
    t.run_s = now_s() - t1;
    t.stats = collect(*r.sim);
    // The hub meters its kernel passes; on one engine thread their summed
    // time is the nn share of the run.
    if (threads == 1) tr.record("nn.Hub.metered_kernels", t1, t1 + t.stats.kernel_s, rep);
  }
  t.setup_s = t1 - t0;
  return t;
}

}  // namespace

void run_hub_saturation(const Options& o, Tracer& tr, Result& res) {
  // Inputs: each session's frame phase, drawn from the seed.
  sim::Rng rng(o.seed);
  std::vector<double> phases(kSessions);
  for (double& p : phases) p = rng.uniform(0.0, kFramePeriodS);
  const unsigned threads = capped_threads(kEngineThreads);

  const bool traced = tr.enabled();
  tr.set_enabled(false);
  std::vector<Timed> reps;
  double measured = 0.0;
  // Untimed warm-up run lets the allocator and page cache settle.
  if (!traced) replay_once(phases, o.seed, threads, tr, 0);
  do {
    reps.push_back(replay_once(phases, o.seed, threads, tr, reps.size()));
    measured += reps.back().run_s;
  } while (!traced && (measured < o.seconds || reps.size() < 3));

  const ReplayStats& s = reps.front().stats;
  for (const Timed& t : reps) {
    res.gate(t.stats.counted == s.counted,
             "hub_saturation: counted SessionStats fields differ between repeated runs");
  }
  res.gate(s.queued_means_s.size() == static_cast<std::size_t>(kSessions),
           "hub_saturation: every session must see staged frames");
  res.gate(s.executed == s.inferences && s.frames_dropped == 0,
           "hub_saturation: every due inference executes and no frame drops");
  res.count(s.inferences, (s.inferences - std::min(s.inferences, s.executed)) + s.frames_dropped);

  std::vector<double> setup, rate;
  for (const Timed& t : reps) {
    setup.push_back(t.setup_s);
    rate.push_back(static_cast<double>(t.stats.executed) / t.run_s);
  }
  std::vector<double> queued_ms;
  for (const double q : s.queued_means_s) queued_ms.push_back(q * 1e3);
  res.set("setup_s", median(setup));
  res.set("items_per_s", median(rate));
  res.set("latency_p50_ms", percentile(queued_ms, 50.0));
  res.set("latency_p99_ms", percentile(queued_ms, 99.0));
  res.set("useful_ratio", static_cast<double>(s.executed) / static_cast<double>(s.inferences));
  if (!traced) return;

  // Traced: a 1-thread pass without spans, then the same pass with spans;
  // its counted fields must equal the 4-thread run's.
  const Timed plain = replay_once(phases, o.seed, 1, tr, 1);
  tr.set_enabled(true);
  const Timed serial = replay_once(phases, o.seed, 1, tr, 2);
  tr.set_enabled(false);
  res.gate(serial.stats.counted == s.counted,
           "hub_saturation: counted SessionStats fields differ between 4 threads and 1 thread");
  res.set("trace.overhead", (serial.setup_s + serial.run_s) / (plain.setup_s + plain.run_s) - 1.0);

  const ReplayStats& ss = serial.stats;
  res.set("nn.kernel_s", ss.kernel_s);
  res.set("nn.kernel_f32_s", ss.kernel_f32_s);
  res.set("nn.kernel_int8_s", ss.kernel_int8_s);
  res.set("nn.kernel_share", ss.kernel_s / serial.run_s);
  res.set("net.run_s", serial.run_s);
  res.set("net.serial_non_kernel_s", serial.run_s - ss.kernel_s);
  res.set("net.hub.frames_received", static_cast<double>(ss.frames_received));
  res.set("net.hub.batched_passes", static_cast<double>(ss.batched_passes));
  const std::uint64_t passes = std::max<std::uint64_t>(1, ss.batched_passes);
  res.set("net.hub.items_per_pass", static_cast<double>(ss.executed) / static_cast<double>(passes));
  res.set("net.hub.executed", static_cast<double>(ss.executed));
  res.set("comm.bus_utilization", ss.bus_utilization);

  // Batched engine at the hub's sub-batch cap, and the per-layer-type
  // profile at the same batch.
  const nn::Model kws = nn::make_kws_dscnn(), ecg = nn::make_ecg_cnn1d();
  const nn::QuantizedModel qkws(kws), qecg(ecg);
  const struct {
    const char* key;
    const nn::Model* m;
    const nn::QuantizedModel* qm;
  } variants[] = {{"kws.f32", &kws, nullptr},
                  {"kws.int8", &kws, &qkws},
                  {"ecg.f32", &ecg, nullptr},
                  {"ecg.int8", &ecg, &qecg}};
  for (const auto& v : variants) {
    const double us = model_pass_us(*v.m, v.qm, kMeterBatch, 0.25);
    res.set(std::string("nn.") + v.key + ".b32_items_per_s", kMeterBatch / (us * 1e-6));
    record_layer_type_profile(*v.m, v.qm, kMeterBatch, 0.01, std::string("nn.") + v.key, res);
  }
}

}  // namespace perfbench
