#pragma once
/// \file csma.hpp
/// Slotted CSMA/CA with binary exponential backoff on the shared body bus —
/// the contention-based alternative to hub-coordinated TDMA. The body is a
/// single broadcast medium with ~ns propagation, so carrier sensing is
/// effectively perfect and collisions happen only when two backoffs expire
/// in the same contention mini-slot. Backlogged nodes must keep their
/// receivers sensing (backoff countdown + busy medium), which puts CSMA's
/// leaf energy between TDMA's (sleep between slots) and polling's (always
/// listening) — quantified in the A2 ablation.

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "comm/frame.hpp"
#include "comm/link.hpp"
#include "comm/mac_stats.hpp"
#include "sim/simulator.hpp"

namespace iob::comm {

/// The mini-slot, contention-window bounds, retry limit and queue bound are
/// fixed; they are constants in csma.cpp.
class CsmaBus {
 public:
  using DeliveryHandler = std::function<void(const Frame&, sim::Time)>;

  CsmaBus(sim::Simulator& sim, const Link& link);

  NodeId add_node(std::string name);
  bool enqueue(NodeId node, Frame frame);
  void set_delivery_handler(DeliveryHandler handler) { on_delivery_ = std::move(handler); }

  void start(sim::Time t0 = 0.0);
  void stop() { running_ = false; }

  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

 private:
  struct NodeState {
    std::deque<Frame> queue;
    unsigned backoff = 0;    ///< mini-slots remaining
    unsigned cw = 8;
    unsigned attempts = 0;   ///< attempts on the head frame
  };

  void arm_round();
  void run_round();
  void draw_backoff(NodeState& node);
  [[nodiscard]] bool backlogged() const;

  sim::Simulator& sim_;
  const Link& link_;
  std::vector<NodeState> nodes_;
  MacStats stats_;
  DeliveryHandler on_delivery_;
  bool running_ = false;
  bool round_armed_ = false;
  std::uint64_t collisions_ = 0;
  sim::Rng rng_;
  sim::Time started_at_ = 0.0;
  sim::Time medium_free_at_ = 0.0;  ///< end of the in-flight transmission
};

}  // namespace iob::comm
