#pragma once
/// \file polling.hpp
/// Hub-driven polling MAC — the alternative coordination scheme contrasted
/// with TDMA in the A2 ablation. The hub polls each leaf in round-robin;
/// a leaf answers with a data frame or a short "nothing" reply. Latency for
/// sparse traffic is lower (no waiting for a fixed slot) but leaves must
/// keep their receivers listening for polls, which raises the leaf-side
/// energy floor — the trade the ablation quantifies.

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "comm/frame.hpp"
#include "comm/link.hpp"
#include "comm/mac_stats.hpp"
#include "sim/simulator.hpp"

namespace iob::comm {

/// The poll and empty-reply sizes, retry limit, queue bound and
/// idle-listening power factor are fixed; they are constants in polling.cpp.
class PollingMac {
 public:
  using DeliveryHandler = std::function<void(const Frame&, sim::Time)>;

  PollingMac(sim::Simulator& sim, const Link& link);

  NodeId add_node(std::string name);
  bool enqueue(NodeId node, Frame frame);
  void set_delivery_handler(DeliveryHandler handler) { on_delivery_ = std::move(handler); }

  void start(sim::Time t0 = 0.0);
  void stop() { running_ = false; }

  /// Finalize idle-listening energy up to the current sim time (also called
  /// implicitly by each poll round).
  void settle_idle_energy();

  [[nodiscard]] const MacStats& stats() const { return stats_; }

 private:
  struct NodeState {
    std::deque<Frame> queue;
    unsigned head_retries = 0;
  };

  void poll_next();

  sim::Simulator& sim_;
  const Link& link_;
  std::vector<NodeState> nodes_;
  MacStats stats_;
  DeliveryHandler on_delivery_;
  bool running_ = false;
  std::size_t next_node_ = 0;
  sim::Rng rng_;
  sim::Time started_at_ = 0.0;
  sim::Time idle_settled_until_ = 0.0;
};

}  // namespace iob::comm
