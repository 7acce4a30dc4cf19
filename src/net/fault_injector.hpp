#pragma once
/// \file fault_injector.hpp
/// Executes a `sim::FaultPlan` against one network: installs the
/// Gilbert–Elliott channel overlay on the bus, drives hub crash/restart
/// episodes, and arms the brownout lifecycle on attached nodes. All
/// stochastic draws come from a stream forked off the simulator's root RNG
/// at one fixed stream id, so fault traces obey the same serial ==
/// parallel determinism contract as everything else (docs/determinism.md).

#include <memory>

#include "comm/gilbert_elliott.hpp"
#include "comm/tdma.hpp"
#include "net/hub.hpp"
#include "net/node.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace iob::net {

class FaultInjector {
 public:
  /// Construct before the simulation runs (episode scheduling starts at the
  /// current sim time). The bus and hub must outlive the injector.
  FaultInjector(sim::Simulator& sim, comm::TdmaBus& bus, Hub& hub, sim::FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arm the plan's brownout lifecycle on a leaf node. No-op when the plan
  /// carries no brownout process.
  void attach_node(Node& node);

  [[nodiscard]] const sim::FaultPlan& plan() const { return plan_; }

  /// The installed burst-loss overlay, or nullptr when the plan has none.
  [[nodiscard]] const comm::GilbertElliott* channel() const { return channel_.get(); }

 private:
  void schedule_crash();
  void schedule_restart();

  sim::Simulator& sim_;
  comm::TdmaBus& bus_;
  Hub& hub_;
  sim::FaultPlan plan_;
  sim::Rng rng_;  ///< hub-flap episode stream
  std::unique_ptr<comm::GilbertElliott> channel_;
};

}  // namespace iob::net
