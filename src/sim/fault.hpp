#pragma once
/// \file fault.hpp
/// Declarative fault plans for the discrete-event simulation (the
/// robustness counterpart of the clean-path energy/traffic configs).
///
/// The paper's "perpetually operable" end state (Sec. V) is a *recovery*
/// property, not just an energy balance: a deployment is perpetual only if
/// nodes come back after brownout, the hub comes back after a crash, and
/// the channel's bad episodes end. A `FaultPlan` declares those processes;
/// `net::FaultInjector` executes them against one `net::NetworkSim`, with
/// every stochastic draw taken from an `Rng::fork`-derived stream so fault
/// traces are exactly as deterministic as the clean path (see
/// docs/determinism.md). A default-constructed plan (`any() == false`)
/// injects nothing and leaves every simulation byte-identical to the
/// pre-fault code path.

#include <cstdint>
#include <optional>

namespace iob::sim {

/// Node brownout/reboot lifecycle (threshold + hysteresis on battery SoC).
/// While browned out the node core is powered off: no sensing, no ISA, no
/// MAC activity (its queued frames are purged as fault drops), only an
/// optional sleep floor; the harvester keeps charging the battery. When the
/// SoC recovers past `on_soc` the node reboots, paying `reboot_energy_j`.
/// Configure `on_soc - off_soc` comfortably above the SoC cost of a reboot
/// or the node can oscillate at the threshold.
struct BrownoutPlan {
  double off_soc = 0.05;         ///< power off below this SoC
  double on_soc = 0.15;          ///< reboot at/above this SoC (hysteresis)
  double reboot_energy_j = 0.0;  ///< boot-time energy cost, paid on reboot
  double sleep_power_w = 0.0;    ///< residual draw while browned out
};

/// Hub crash/restart episodes. While the hub is down the TDMA bus emits no
/// beacons (leaves sleep and store frames in their bounded queues), staged
/// hub batches are dropped, and sessions re-sync on restart. Episode
/// durations are exponential with the given means, drawn from the fault
/// stream; `periodic == true` replaces the draws with exactly-periodic
/// episodes (up `mean_up_s`, down `mean_down_s`) for hand-computed tests.
struct HubFlapPlan {
  double mean_up_s = 2.0;    ///< mean time between restart and next crash
  double mean_down_s = 0.5;  ///< mean outage duration
  bool periodic = false;     ///< deterministic episode timing (tests)
};

/// Two-state Gilbert–Elliott burst-loss overlay on the body-bus channel.
/// The chain dwells exponentially in a good state (base frame error rate)
/// and a bad state where an extra loss probability `bad_loss` combines with
/// the base FER, so ARQ faces *correlated* loss episodes instead of the
/// clean i.i.d. channel.
struct BurstLossPlan {
  double mean_good_s = 0.5;    ///< mean dwell in the good state
  double mean_bad_s = 0.125;   ///< mean dwell in the bad (burst) state
  double bad_loss = 0.5;       ///< extra frame-loss probability while bad
};

/// The full fault schedule of one simulation. Each process is optional and
/// independently enabled; all of them draw from sub-streams of one fault
/// stream, so enabling one process never perturbs another's trace.
struct FaultPlan {
  std::optional<BrownoutPlan> brownout{};
  std::optional<HubFlapPlan> hub_flap{};
  std::optional<BurstLossPlan> burst_loss{};

  [[nodiscard]] bool any() const {
    return brownout.has_value() || hub_flap.has_value() || burst_loss.has_value();
  }
};

}  // namespace iob::sim
