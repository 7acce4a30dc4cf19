// Ablation **A2**: MAC protocol comparison on the Wi-R body bus — hub-
// coordinated TDMA (leaves sleep between slots) vs CSMA/CA (leaves sense
// while backlogged) vs hub polling (leaves idle-listen). Periodic sensor
// traffic and bursty event traffic, from full discrete-event simulations.
// Quantifies why the artificial nervous system should be time-division
// coordinated, like its biological model.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "comm/csma.hpp"
#include "comm/polling.hpp"
#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace iob;
using namespace iob::units;

struct MacResult {
  double mean_latency_s = 0.0;
  double leaf_energy_j = 0.0;
  std::uint64_t delivered = 0;
  double utilization = 0.0;
};

constexpr int kNodes = 6;
constexpr double kDuration = 10.0;

template <typename SetupTraffic>
MacResult run_tdma(SetupTraffic&& setup) {
  sim::Simulator sim(7);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir, comm::TdmaConfig{});
  std::vector<comm::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) ids.push_back(bus.add_node("n" + std::to_string(i)));
  std::vector<std::unique_ptr<workload::PeriodicSource>> periodic;
  std::vector<std::unique_ptr<workload::PoissonSource>> poisson;
  setup(sim, ids, [&bus](comm::NodeId id, sim::Time t, std::uint32_t bytes) {
    comm::Frame f;
    f.payload_bytes = bytes;
    f.created_s = t;
    bus.enqueue(id, f);
  }, periodic, poisson);
  bus.start();
  sim.run_until(kDuration);
  bus.stop();

  MacResult r;
  double lat = 0.0;
  for (const auto& ns : bus.stats().nodes) {
    lat += ns.latency_s.mean();
    r.leaf_energy_j += ns.tx_energy_j + ns.rx_energy_j;
    r.delivered += ns.frames_delivered;
  }
  r.mean_latency_s = lat / kNodes;
  r.utilization = bus.stats().utilization();
  return r;
}

template <typename SetupTraffic>
MacResult run_polling(SetupTraffic&& setup) {
  sim::Simulator sim(7);
  comm::WiRLink wir;
  comm::PollingMac mac(sim, wir);
  std::vector<comm::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) ids.push_back(mac.add_node("n" + std::to_string(i)));
  std::vector<std::unique_ptr<workload::PeriodicSource>> periodic;
  std::vector<std::unique_ptr<workload::PoissonSource>> poisson;
  setup(sim, ids, [&mac](comm::NodeId id, sim::Time t, std::uint32_t bytes) {
    comm::Frame f;
    f.payload_bytes = bytes;
    f.created_s = t;
    mac.enqueue(id, f);
  }, periodic, poisson);
  mac.start();
  sim.run_until(kDuration);
  mac.stop();
  mac.settle_idle_energy();

  MacResult r;
  double lat = 0.0;
  for (const auto& ns : mac.stats().nodes) {
    lat += ns.latency_s.mean();
    r.leaf_energy_j += ns.tx_energy_j + ns.rx_energy_j;
    r.delivered += ns.frames_delivered;
  }
  r.mean_latency_s = lat / kNodes;
  r.utilization = mac.stats().utilization();
  return r;
}

template <typename SetupTraffic>
MacResult run_csma(SetupTraffic&& setup) {
  sim::Simulator sim(7);
  comm::WiRLink wir;
  comm::CsmaBus bus(sim, wir);
  std::vector<comm::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) ids.push_back(bus.add_node("n" + std::to_string(i)));
  std::vector<std::unique_ptr<workload::PeriodicSource>> periodic;
  std::vector<std::unique_ptr<workload::PoissonSource>> poisson;
  setup(sim, ids, [&bus](comm::NodeId id, sim::Time t, std::uint32_t bytes) {
    comm::Frame f;
    f.payload_bytes = bytes;
    f.created_s = t;
    bus.enqueue(id, f);
  }, periodic, poisson);
  bus.start();
  sim.run_until(kDuration);
  bus.stop();

  MacResult r;
  double lat = 0.0;
  for (const auto& ns : bus.stats().nodes) {
    lat += ns.latency_s.mean();
    r.leaf_energy_j += ns.tx_energy_j + ns.rx_energy_j;
    r.delivered += ns.frames_delivered;
  }
  r.mean_latency_s = lat / kNodes;
  r.utilization = bus.stats().utilization();
  return r;
}

/// Periodic: every node streams 240 B every 100 ms (~19.2 kb/s each).
auto periodic_traffic = [](sim::Simulator& sim, const std::vector<comm::NodeId>& ids,
                           auto enqueue,
                           std::vector<std::unique_ptr<workload::PeriodicSource>>& periodic,
                           std::vector<std::unique_ptr<workload::PoissonSource>>&) {
  for (const auto id : ids) {
    periodic.push_back(std::make_unique<workload::PeriodicSource>(
        sim, 0.1, 240, [enqueue, id](sim::Time t, std::uint32_t b) { enqueue(id, t, b); }));
  }
};

/// Bursty: Poisson events (mean 5/s per node) carrying 400 B bursts
/// (sized to fit a 1 ms TDMA slot at 4 Mb/s).
auto bursty_traffic = [](sim::Simulator& sim, const std::vector<comm::NodeId>& ids, auto enqueue,
                         std::vector<std::unique_ptr<workload::PeriodicSource>>&,
                         std::vector<std::unique_ptr<workload::PoissonSource>>& poisson) {
  for (const auto id : ids) {
    poisson.push_back(std::make_unique<workload::PoissonSource>(
        sim, 5.0, 400, [enqueue, id](sim::Time t, std::uint32_t b) { enqueue(id, t, b); }));
  }
};

void print_comparison() {
  common::print_banner("A2 — MAC ablation on the Wi-R body bus: TDMA vs CSMA vs polling");
  common::Table t({"traffic", "MAC", "delivered", "mean latency", "leaf energy (10 s)",
                   "mean leaf power", "bus util"});
  auto add = [&](const char* traffic, const char* mac, const MacResult& r) {
    t.add_row({traffic, mac, std::to_string(r.delivered),
               common::si_format(r.mean_latency_s, "s"),
               common::si_format(r.leaf_energy_j, "J"),
               common::si_format(r.leaf_energy_j / kDuration / kNodes, "W"),
               common::fixed(r.utilization * 100.0, 2) + "%"});
  };
  add("periodic", "TDMA", run_tdma(periodic_traffic));
  add("periodic", "CSMA/CA", run_csma(periodic_traffic));
  add("periodic", "polling", run_polling(periodic_traffic));
  add("bursty", "TDMA", run_tdma(bursty_traffic));
  add("bursty", "CSMA/CA", run_csma(bursty_traffic));
  add("bursty", "polling", run_polling(bursty_traffic));
  std::cout << t.to_string();
  common::print_note("polling keeps leaf receivers always listening; CSMA senses only while");
  common::print_note("backlogged (middle ground); TDMA leaves sleep outside their slots —");
  common::print_note("beacon-synchronized TDMA is the right ANS coordination discipline");
}

void BM_TdmaSuperframe(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_tdma(periodic_traffic));
  }
}
BENCHMARK(BM_TdmaSuperframe)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_comparison();
  return iob::bench::run_microbenchmarks(argc, argv);
}
