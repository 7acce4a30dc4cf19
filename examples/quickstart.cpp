// Quickstart: build a three-device human-inspired IoB network — an ECG
// patch and a smart-ring PPG node streaming over the Wi-R body bus to an
// on-body hub — simulate a minute of operation, and print the power /
// battery-life report. This is the 30-line tour of the public API.
//
//   $ ./quickstart

#include <iostream>

#include "comm/wir_link.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/report.hpp"
#include "net/network_sim.hpp"

int main() {
  using namespace iob;
  using namespace iob::units;

  // 1. The artificial nervous system: one Wi-R (EQS-HBC) body bus.
  comm::WiRLink wir;  // 4 Mb/s, ~100 pJ/bit, biophysical channel inside

  // 2. The network: hub ("wearable brain") + ULP leaf nodes.
  net::NetworkSim network(wir, net::NetworkConfig{/*seed=*/1});

  net::NodeConfig ecg;
  ecg.name = "ecg-patch";
  ecg.stream = "ecg";
  ecg.sense_power_w = 8.0 * uW;    // biopotential AFE
  ecg.isa_power_w = 1.0 * uW;      // delta+varint codec
  ecg.output_rate_bps = 4.0 * kbps;
  network.add_node(ecg);

  net::NodeConfig ring;
  ring.name = "smart-ring";
  ring.stream = "ppg";
  ring.sense_power_w = 40.0 * uW;  // PPG LEDs + IMU
  ring.output_rate_bps = 20.0 * kbps;
  network.add_node(ring);

  // 3. Edge intelligence at the hub: one arrhythmia inference per second
  //    of delivered ECG.
  net::SessionConfig session;
  session.stream = "ecg";
  session.macs_per_inference = 190'000;  // 1-D CNN beat classifier
  session.bytes_per_inference = 500;
  network.add_session(session);

  // 4. Run one simulated minute and report.
  const net::NetworkReport report = network.run(60.0);
  std::cout << core::render_network_report(report);

  std::cout << "\nhub ran " << network.hub().session("ecg").inferences
            << " ECG inferences for "
            << common::si_format(network.hub().session("ecg").compute_energy_j, "J") << "\n";
  return 0;
}
