// Tests for the extension feature set beyond the core reproduction:
// HBC safety limits (paper ref [19]), interference robustness (BodyWire
// -30 dB SIR, ref [20]), the sub-uW Wi-R profile (SubuWRComm, ref [21]),
// the TDMA downlink/actuation window, diurnal harvesting, and
// rate-proportional slot weights at the network level.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/units.hpp"
#include "energy/harvester.hpp"
#include "net/network_sim.hpp"
#include "phy/modulation.hpp"
#include "phy/safety.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

using namespace iob::units;

// ---- HBC safety (paper ref [19]) ----------------------------------------------

TEST(Safety, OneVoltSwingIsDeeplyCompliant) {
  // Maity et al. [19]: EQS-HBC at ~1 V sits orders of magnitude below the
  // ICNIRP limits across the EQS band.
  phy::HbcSafetyModel safety;
  for (const double f : {100.0 * kHz, 1.0 * MHz, 10.0 * MHz, 30.0 * MHz}) {
    EXPECT_GT(safety.compliance_margin_db(1.0, f), 20.0) << f;
  }
}

TEST(Safety, TissueCurrentIsMicroampClass) {
  phy::HbcSafetyModel safety;
  const double i = safety.tissue_current_a(1.0, 1.0 * MHz);
  EXPECT_LT(i, 100e-6);
  EXPECT_GT(i, 0.1e-6);
}

TEST(Safety, CurrentRisesWithFrequencyFieldLimitRisesToo) {
  // Coupling impedance falls with frequency -> more current; but the ICNIRP
  // field limit also scales with f, keeping HBC compliant across the band.
  phy::HbcSafetyModel safety;
  EXPECT_GT(safety.tissue_current_a(1.0, 10e6), safety.tissue_current_a(1.0, 1e6));
  EXPECT_GT(phy::HbcSafetyModel::icnirp_field_limit_v_per_m(10e6),
            phy::HbcSafetyModel::icnirp_field_limit_v_per_m(1e6));
}

TEST(Safety, ContactCurrentLimitShape) {
  EXPECT_DOUBLE_EQ(phy::HbcSafetyModel::contact_current_limit_a(1.0 * MHz), 20e-3);
  EXPECT_NEAR(phy::HbcSafetyModel::contact_current_limit_a(50.0 * kHz), 10e-3, 1e-9);
}

TEST(Safety, MaxSafeVoltageScalesLinearly) {
  phy::HbcSafetyModel safety;
  const double vmax = safety.max_safe_tx_voltage_v(1.0 * MHz);
  EXPECT_GT(vmax, 100.0);  // huge headroom above the 1 V operating point
  // At vmax the margin is ~0 dB.
  EXPECT_NEAR(safety.compliance_margin_db(vmax, 1.0 * MHz), 0.0, 0.1);
}

TEST(Safety, RejectsBadInputs) {
  phy::HbcSafetyModel safety;
  EXPECT_THROW((void)safety.tissue_current_a(-1.0, 1e6), std::invalid_argument);
  EXPECT_THROW((void)safety.tissue_current_a(1.0, 0.0), std::invalid_argument);
  phy::SafetyParams p;
  p.electrode_area_m2 = 0.0;
  EXPECT_THROW(phy::HbcSafetyModel{p}, std::invalid_argument);
}

// ---- Interference robustness (paper ref [20]) -----------------------------------

TEST(Interference, SnirCombinesHarmonically) {
  // Equal SNR and SIR halve the effective ratio.
  EXPECT_NEAR(phy::effective_snir(100.0, 100.0), 50.0, 1e-9);
  // Strong interference dominates.
  EXPECT_NEAR(phy::effective_snir(1e6, 10.0), 10.0, 0.1);
}

TEST(Interference, RejectionRestoresLink) {
  // BodyWire [20]: OOK at -30 dB SIR is hopeless without rejection but
  // works with time-domain interference rejection (modeled as +45 dB).
  const double snr_db = 23.0;  // Wi-R operating point
  const double sir_db = -30.0;
  const double naked = phy::effective_snir_db(snr_db, sir_db);
  const double rejected = phy::effective_snir_db(snr_db, sir_db, 45.0);
  EXPECT_LT(naked, -25.0);  // interference-limited, unusable
  const double ber_naked = phy::bit_error_rate(phy::Modulation::kOok, units::from_db(naked));
  const double ber_rej = phy::bit_error_rate(phy::Modulation::kOok, units::from_db(rejected));
  EXPECT_GT(ber_naked, 0.2);
  EXPECT_LT(ber_rej, 1e-3);
}

TEST(Interference, RejectionNeverHurts) {
  for (const double rej : {0.0, 10.0, 30.0, 60.0}) {
    EXPECT_GE(phy::effective_snir_db(20.0, 0.0, rej), phy::effective_snir_db(20.0, 0.0, 0.0));
  }
  EXPECT_THROW(phy::effective_snir(10.0, 10.0, -1.0), std::invalid_argument);
}

// ---- Sub-uW Wi-R profile (paper ref [21]) -----------------------------------------

TEST(UlpWiR, SubMicrowattAuthenticationNode) {
  // SubuWRComm [21]: 415 nW at 1-10 kb/s. The ULP profile streaming
  // 10 kb/s must land in the sub-uW class.
  comm::WiRLink ulp(comm::WiRLink::ulp_profile());
  const double p10k = ulp.stream_tx_power_w(10.0 * kbps);
  EXPECT_LT(p10k, 1.0 * uW);
  EXPECT_GT(p10k, 0.1 * uW);
  // And ~equal-or-better energy/bit than the full-rate profile.
  comm::WiRLink full;
  EXPECT_LE(ulp.effective_energy_per_app_bit_j(10.0 * kbps),
            full.effective_energy_per_app_bit_j(10.0 * kbps));
}

TEST(UlpWiR, LinkStillClosesAtLowSwing) {
  comm::WiRLink ulp(comm::WiRLink::ulp_profile());
  EXPECT_GT(ulp.computed_snr_db(), 15.0);
  EXPECT_LT(ulp.frame_error_rate(32), 1e-9);
}

// ---- TDMA downlink (actuation path) -------------------------------------------------

TEST(Downlink, DeliversActuationFrames) {
  sim::Simulator sim(21);
  comm::WiRLink wir;
  comm::TdmaConfig cfg;
  cfg.downlink_slot_s = 1e-3;
  comm::TdmaBus bus(sim, wir, cfg);
  const comm::NodeId ear = bus.add_node("earbud");

  int received = 0;
  bus.set_downlink_handler([&](const comm::Frame& f, sim::Time) {
    EXPECT_EQ(f.dst, ear);
    EXPECT_EQ(f.src, comm::kHubId);
    ++received;
  });
  for (int i = 0; i < 10; ++i) {
    comm::Frame f;
    f.payload_bytes = 200;
    f.created_s = 0.0;
    EXPECT_TRUE(bus.enqueue_downlink(ear, f));
  }
  bus.start();
  sim.run_until(0.1);
  bus.stop();
  EXPECT_EQ(received, 10);
  EXPECT_EQ(bus.stats().nodes[0].downlink_frames, 10u);
  EXPECT_EQ(bus.stats().nodes[0].downlink_bytes, 2000u);
}

TEST(Downlink, EnergyChargedToHubTxAndNodeRx) {
  sim::Simulator sim(22);
  comm::WiRLink wir;
  comm::TdmaConfig cfg;
  cfg.downlink_slot_s = 1e-3;
  comm::TdmaBus bus(sim, wir, cfg);
  const comm::NodeId a = bus.add_node("a");

  const double hub_tx_before = 0.0;
  comm::Frame f;
  f.payload_bytes = 100;
  bus.enqueue_downlink(a, f);
  bus.start();
  sim.run_until(0.01);
  bus.stop();
  const auto& st = bus.stats();
  // Hub TX includes beacons + the downlink frame; node RX includes beacons
  // + the downlink frame. Both strictly exceed the beacon-only baseline of
  // an uplink-only network with identical timing.
  EXPECT_GT(st.hub_tx_energy_j, hub_tx_before);
  EXPECT_GT(st.nodes[0].rx_energy_j, 0.0);
  EXPECT_EQ(st.nodes[0].downlink_frames, 1u);
}

TEST(Downlink, WindowExtendsSuperframe) {
  sim::Simulator sim(23);
  comm::WiRLink wir;
  comm::TdmaConfig plain;
  comm::TdmaConfig with_dl = plain;
  with_dl.downlink_slot_s = 2e-3;
  comm::TdmaBus bus_plain(sim, wir, plain);
  comm::TdmaBus bus_dl(sim, wir, with_dl);
  bus_plain.add_node("a");
  bus_dl.add_node("a");
  EXPECT_NEAR(bus_dl.superframe_duration_s() - bus_plain.superframe_duration_s(), 2e-3, 1e-12);
}

TEST(Downlink, RejectsMisuse) {
  sim::Simulator sim(24);
  comm::WiRLink wir;
  comm::TdmaBus no_dl(sim, wir, comm::TdmaConfig{});
  const comm::NodeId a = no_dl.add_node("a");
  comm::Frame f;
  f.payload_bytes = 10;
  EXPECT_THROW(no_dl.enqueue_downlink(a, f), std::invalid_argument);

  comm::TdmaConfig cfg;
  cfg.downlink_slot_s = 1e-4;
  comm::TdmaBus small(sim, wir, cfg);
  const comm::NodeId b = small.add_node("b");
  comm::Frame big;
  big.payload_bytes = 4000;  // exceeds the 100 us window
  EXPECT_THROW(small.enqueue_downlink(b, big), std::invalid_argument);
}

TEST(Downlink, FullDuplexSessionOverOneBus) {
  // Uplink sensing + downlink actuation share the same superframe.
  sim::Simulator sim(25);
  comm::WiRLink wir;
  comm::TdmaConfig cfg;
  cfg.downlink_slot_s = 1e-3;
  comm::TdmaBus bus(sim, wir, cfg);
  const comm::NodeId node = bus.add_node("earbud");

  int up = 0, down = 0;
  bus.set_delivery_handler([&](const comm::Frame&, sim::Time) { ++up; });
  bus.set_downlink_handler([&](const comm::Frame&, sim::Time) { ++down; });
  for (int i = 0; i < 20; ++i) {
    comm::Frame f;
    f.payload_bytes = 120;
    bus.enqueue(node, f);
    bus.enqueue_downlink(node, f);
  }
  bus.start();
  sim.run_until(0.2);
  bus.stop();
  EXPECT_EQ(up, 20);
  EXPECT_EQ(down, 20);
}

// ---- Diurnal harvesting ----------------------------------------------------------------

TEST(Diurnal, OfficeProfileShape) {
  const auto profile = energy::office_diurnal_profile();
  ASSERT_EQ(profile.size(), 24u);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);   // night
  EXPECT_DOUBLE_EQ(profile[12], 1.0);  // office hours
}

TEST(Diurnal, AverageIncludesProfileMean) {
  energy::HarvesterParams p;
  p.mean_power_w = 100.0 * uW;
  p.availability = 1.0;
  p.hourly_profile = energy::office_diurnal_profile();
  energy::Harvester h(p);
  double mean = 0.0;
  for (const double v : p.hourly_profile) mean += v;
  mean /= 24.0;
  EXPECT_NEAR(h.average_power_w(), 100.0 * uW * mean, 1e-12);
}

TEST(Diurnal, NightYieldsNothing) {
  energy::HarvesterParams p;
  p.mean_power_w = 100.0 * uW;
  p.availability = 1.0;
  p.relative_sigma = 0.0;
  p.hourly_profile = energy::office_diurnal_profile();
  energy::Harvester h(p);
  sim::Rng rng(1);
  // 03:00: zero; 12:00: full.
  EXPECT_DOUBLE_EQ(h.sample_power_w(rng, 3.0 * 3600.0), 0.0);
  EXPECT_NEAR(h.sample_power_w(rng, 12.0 * 3600.0), 100.0 * uW, 1e-12);
  // Wraps modulo 24 h.
  EXPECT_DOUBLE_EQ(h.profile_at(27.0 * 3600.0), h.profile_at(3.0 * 3600.0));
}

TEST(Diurnal, RejectsMalformedProfiles) {
  energy::HarvesterParams p;
  p.hourly_profile = {0.5, 0.5};  // wrong length
  EXPECT_THROW(energy::Harvester{p}, std::invalid_argument);
  p.hourly_profile.assign(24, 1.5);  // out of range
  EXPECT_THROW(energy::Harvester{p}, std::invalid_argument);
}

// ---- Rate-proportional slots at the network level -----------------------------------

TEST(SlotWeights, HeavyStreamGetsProportionalService) {
  comm::WiRLink wir;
  net::NetworkSim net(wir, net::NetworkConfig{26});

  net::NodeConfig audio;
  audio.name = "audio";
  audio.stream = "audio";
  audio.sense_power_w = 150.0 * uW;
  audio.output_rate_bps = 128.0 * kbps;
  audio.frame_bytes = 240;
  audio.slot_weight = 3;
  net.add_node(audio);

  net::NodeConfig ecg;
  ecg.name = "ecg";
  ecg.stream = "ecg";
  ecg.sense_power_w = 8.0 * uW;
  ecg.output_rate_bps = 6.0 * kbps;
  net.add_node(ecg);

  const net::NetworkReport rep = net.run(20.0);
  // Both streams fully served, no drops, despite the 20x rate asymmetry.
  for (const auto& n : rep.nodes) {
    EXPECT_EQ(n.frames_dropped, 0u) << n.name;
    EXPECT_LT(n.mean_latency_s, 0.05) << n.name;
  }
  const double offered = 128e3 + 6e3;
  EXPECT_NEAR(rep.aggregate_goodput_bps, offered, offered * 0.1);
}

}  // namespace
}  // namespace iob
