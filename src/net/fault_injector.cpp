#include "net/fault_injector.hpp"

#include "common/expect.hpp"

namespace iob::net {

namespace {

/// Fork id of the fault processes' RNG streams (distinct from the MAC's
/// 0x7d0a and the per-node name-hash streams).
constexpr std::uint64_t kFaultStreamId = 0xFA017;

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, comm::TdmaBus& bus, Hub& hub,
                             sim::FaultPlan plan)
    : sim_(sim), bus_(bus), hub_(hub), plan_(plan), rng_(sim.rng().fork(kFaultStreamId)) {
  if (plan_.burst_loss) {
    const auto& b = *plan_.burst_loss;
    IOB_EXPECTS(b.mean_good_s > 0.0 && b.mean_bad_s > 0.0,
                "burst-loss sojourn means must be positive");
    // The overlay gets its own sub-stream so enabling hub flap never shifts
    // the channel's sojourn sequence (and vice versa).
    channel_ = std::make_unique<comm::GilbertElliott>(
        comm::GilbertElliottParams{b.mean_good_s, b.mean_bad_s, b.bad_loss}, rng_.fork(1));
    bus_.set_channel_fault(channel_.get());
  }
  if (plan_.hub_flap) {
    IOB_EXPECTS(plan_.hub_flap->mean_up_s > 0.0 && plan_.hub_flap->mean_down_s > 0.0,
                "hub-flap episode means must be positive");
    schedule_crash();
  }
}

void FaultInjector::attach_node(Node& node) {
  if (plan_.brownout) node.enable_brownout(*plan_.brownout);
}

void FaultInjector::schedule_crash() {
  const auto& f = *plan_.hub_flap;
  const double delay = f.periodic ? f.mean_up_s : rng_.exponential(f.mean_up_s);
  sim_.after(delay, [this] {
    hub_.on_hub_crash(sim_.now());  // also halts the bus superframes
    schedule_restart();
  });
}

void FaultInjector::schedule_restart() {
  const auto& f = *plan_.hub_flap;
  const double delay = f.periodic ? f.mean_down_s : rng_.exponential(f.mean_down_s);
  sim_.after(delay, [this] {
    hub_.on_hub_restart(sim_.now());
    schedule_crash();
  });
}

}  // namespace iob::net
