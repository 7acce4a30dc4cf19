// Tests for the third extension wave: the split controller's glide-path
// budget and interference-aware Wi-R links.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/wir_link.hpp"
#include "energy/battery.hpp"
#include "partition/adaptive_split.hpp"

namespace iob {
namespace {

// ---- Glide-path budget ------------------------------------------------------------

TEST(AdaptiveSplit, GlideMathExact) {
  energy::Battery b(1000.0, 3.0);  // 10800 J
  EXPECT_NEAR(partition::AdaptiveSplitController::glide_power_w(b, 0.0, 10800.0), 1.0, 1e-12);
  b.discharge(5400.0);
  EXPECT_NEAR(partition::AdaptiveSplitController::glide_power_w(b, 5400.0, 10800.0), 1.0, 1e-12);
  EXPECT_TRUE(std::isinf(
      partition::AdaptiveSplitController::glide_power_w(b, 20000.0, 10800.0)));
}

// ---- Interference-aware Wi-R link -----------------------------------------------------

TEST(WiRInterference, CleanBandMatchesDefault) {
  comm::WiRLink clean;
  comm::WiRLinkParams p;
  p.interference_sir_db = 300.0;
  comm::WiRLink explicit_clean(p);
  EXPECT_NEAR(clean.computed_snr_db(), explicit_clean.computed_snr_db(), 1e-9);
}

TEST(WiRInterference, BodyWireScenarioSurvivesMinus30dBSir) {
  // With time-domain rejection (45 dB), -30 dB SIR still yields a usable
  // link — the BodyWire demonstration [20] reports BER <= 1e-3 there; the
  // residual frame losses are ARQ-recoverable.
  comm::WiRLinkParams p;
  p.interference_sir_db = -30.0;
  p.interference_rejection_db = 45.0;
  comm::WiRLink link(p);
  EXPECT_GT(link.computed_snr_db(), 10.0);
  EXPECT_LT(link.bit_error_rate(), 1e-3);
  EXPECT_LT(link.frame_error_rate(240), 0.5);  // stop-and-wait still converges
}

TEST(WiRInterference, NoRejectionKillsTheLink) {
  comm::WiRLinkParams p;
  p.interference_sir_db = -30.0;
  p.interference_rejection_db = 0.0;
  comm::WiRLink link(p);
  EXPECT_LT(link.computed_snr_db(), -25.0);
  EXPECT_GT(link.frame_error_rate(240), 0.99);
}

TEST(WiRInterference, SnrDegradesMonotonicallyWithInterference) {
  double prev = 1e9;
  for (const double sir : {40.0, 20.0, 10.0, 0.0, -10.0, -30.0}) {
    comm::WiRLinkParams p;
    p.interference_sir_db = sir;
    p.interference_rejection_db = 20.0;
    comm::WiRLink link(p);
    EXPECT_LT(link.computed_snr_db(), prev);
    prev = link.computed_snr_db();
  }
}

}  // namespace
}  // namespace iob
