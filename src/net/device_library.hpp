#pragma once
/// \file device_library.hpp
/// Survey of commercial wearable devices — the data behind the paper's
/// Fig. 2 ("Typical Battery Life for Wearable Technologies"). Each entry
/// carries the battery capacity and typical platform power of a device
/// class; `energy::battery_life_*` turns them into the figure's battery-life
/// buckets. Values are class-representative (public teardowns / spec
/// sheets), not endorsements of specific products.

#include <string>
#include <vector>

#include "net/node.hpp"
#include "phy/body_motion.hpp"

namespace iob::net {

enum class DeviceEra {
  kPre2024,        ///< Fig. 2 left column: established wearables
  kWearableAi2024, ///< Fig. 2 right column: the 2024 wearable-AI boom
};

struct DeviceSpec {
  std::string name;
  DeviceEra era;
  double battery_mah;
  double battery_v;
  double platform_power_w;     ///< typical active-use average
  std::string paper_battery_label;  ///< the bucket Fig. 2 prints for it

  [[nodiscard]] double battery_energy_j() const;
  [[nodiscard]] double battery_life_s() const;
  [[nodiscard]] double battery_life_hours() const;
};

/// The eleven device classes Fig. 2 shows, in figure order.
const std::vector<DeviceSpec>& device_survey();

/// Lookup by name; throws std::invalid_argument if absent.
const DeviceSpec& find_device(const std::string& name);

std::string to_string(DeviceEra era);

/// A ready-to-wire hostile-channel suite: the node configs plus the
/// body-motion profile they are meant to be run under (install via
/// `NetworkConfig::dynamics.motion`).
struct SuitePreset {
  std::string name;
  std::vector<NodeConfig> nodes;
  phy::BodyMotionParams motion;
};

/// The motion-heavy suite (docs/robustness.md): smartwatch + ECG chest
/// patch + earbud on a *running* wearer — short vigorous gait sojourns and
/// frequent arm-swing occlusions. Batteries come from the Fig. 2 survey
/// entries (the patch is the paper's Sec. II-A biopotential node, not a
/// Fig. 2 class); every leaf ships with the degradation ladder armed so the
/// session rides the run/occlusion episodes instead of collapsing.
SuitePreset motion_heavy_suite();

}  // namespace iob::net
