#include "net/device_library.hpp"

#include <stdexcept>

#include "common/units.hpp"

namespace iob::net {

double DeviceSpec::battery_energy_j() const {
  return units::battery_energy_j(battery_mah, battery_v);
}

double DeviceSpec::battery_life_s() const { return battery_energy_j() / platform_power_w; }

double DeviceSpec::battery_life_hours() const { return battery_life_s() / units::hour; }

const std::vector<DeviceSpec>& device_survey() {
  using namespace iob::units;
  static const std::vector<DeviceSpec> table = {
      // ---- Pre-2024 wearables (Fig. 2 left) --------------------------------
      {"smart ring", DeviceEra::kPre2024, 20.0, 3.7, 0.40 * mW, "all-week"},
      {"fitness tracker", DeviceEra::kPre2024, 125.0, 3.7, 2.6 * mW, "all-week"},
      {"earbuds", DeviceEra::kPre2024, 50.0, 3.7, 14.0 * mW, "all-day"},
      {"smartwatch", DeviceEra::kPre2024, 300.0, 3.85, 60.0 * mW, "all-day"},
      {"headphone", DeviceEra::kPre2024, 600.0, 3.7, 90.0 * mW, "all-day"},
      {"smartphone", DeviceEra::kPre2024, 4000.0, 3.85, 1.8 * W, "<10 hr"},
      // ---- 2024 wearable-AI boom (Fig. 2 right) ----------------------------
      {"AI pin", DeviceEra::kWearableAi2024, 1000.0, 3.85, 320.0 * mW, "all-day"},
      {"AI pocket assistant", DeviceEra::kWearableAi2024, 1000.0, 3.7, 300.0 * mW, "all-day"},
      {"AI necklace", DeviceEra::kWearableAi2024, 100.0, 3.7, 12.0 * mW, "all-day"},
      {"smart glasses", DeviceEra::kWearableAi2024, 154.0, 3.7, 140.0 * mW, "3-5 hr"},
      {"mixed reality headset", DeviceEra::kWearableAi2024, 5060.0, 3.85, 5.5 * W, "3-5 hr"},
  };
  return table;
}

const DeviceSpec& find_device(const std::string& name) {
  for (const auto& d : device_survey()) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("unknown device: " + name);
}

SuitePreset motion_heavy_suite() {
  using namespace iob::units;
  SuitePreset suite;
  suite.name = "motion-heavy (running wearer)";
  suite.motion = phy::running_profile();

  auto leaf = [](const char* name, const char* stream, double rate_bps, double sense_w,
                 double isa_w, double mah, double v) {
    NodeConfig n;
    n.name = name;
    n.stream = stream;
    n.output_rate_bps = rate_bps;
    n.sense_power_w = sense_w;
    n.isa_power_w = isa_w;
    n.battery_mah = mah;
    n.battery_v = v;
    // The controller samples channel health at every settle; a run/occlusion
    // sojourn lasts fractions of a second, so settle well inside it.
    n.settle_period_s = 0.1;
    n.degradation = true;
    return n;
  };

  const DeviceSpec& watch = find_device("smartwatch");
  const DeviceSpec& earbud = find_device("earbuds");
  // Watch streams fused PPG+IMU features; earbud streams coded in-ear audio
  // (the heavy flow the ladder has to protect); the chest patch is the
  // Sec. II-A 2-lead biopotential node on the Fig. 3 coin cell.
  suite.nodes = {
      leaf("watch", "vitals", 9.6 * kbps, 30.0 * uW, 1.5 * uW, watch.battery_mah,
           watch.battery_v),
      leaf("patch", "vitals", 4.0 * kbps, 8.0 * uW, 1.5 * uW, 1000.0, 3.0),
      leaf("earbud", "audio", 64.0 * kbps, 150.0 * uW, 2.0 * uW, earbud.battery_mah,
           earbud.battery_v),
  };
  return suite;
}

std::string to_string(DeviceEra era) {
  switch (era) {
    case DeviceEra::kPre2024: return "pre-2024";
    case DeviceEra::kWearableAi2024: return "2024 wearable-AI";
  }
  return "?";
}

}  // namespace iob::net
