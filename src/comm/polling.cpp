#include "comm/polling.hpp"

#include <utility>

#include "common/expect.hpp"

namespace iob::comm {

namespace {

constexpr std::uint32_t kPollBytes = 4;     ///< hub poll frame payload
constexpr std::uint32_t kNothingBytes = 2;  ///< empty reply payload
constexpr unsigned kMaxRetries = 8;
constexpr std::size_t kMaxQueueFrames = 4096;
/// Fraction of RX active power a leaf pays while idle-listening for polls
/// (1.0 = full RX; <1 would model a wake-receiver assist).
constexpr double kIdleListenFactor = 1.0;

}  // namespace

PollingMac::PollingMac(sim::Simulator& sim, const Link& link)
    : sim_(sim), link_(link), rng_(sim.rng().fork(0x901d)) {}

NodeId PollingMac::add_node(std::string name) {
  IOB_EXPECTS(!running_, "cannot add nodes while the MAC is running");
  nodes_.push_back(NodeState{});
  MacNodeStats s;
  s.name = std::move(name);
  stats_.nodes.push_back(std::move(s));
  return static_cast<NodeId>(nodes_.size());
}

bool PollingMac::enqueue(NodeId node, Frame frame) {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  auto& st = nodes_[node - 1];
  if (st.queue.size() >= kMaxQueueFrames) {
    ++stats_.nodes[node - 1].queue_overflows;
    return false;
  }
  frame.src = node;
  frame.dst = kHubId;
  st.queue.push_back(std::move(frame));
  return true;
}

void PollingMac::start(sim::Time t0) {
  IOB_EXPECTS(!nodes_.empty(), "polling MAC needs at least one node");
  running_ = true;
  started_at_ = t0;
  idle_settled_until_ = t0;
  sim_.at(t0, [this] { poll_next(); });
}

void PollingMac::settle_idle_energy() {
  const sim::Time now = sim_.now();
  if (now <= idle_settled_until_) return;
  const double dt = now - idle_settled_until_;
  // Every leaf idle-listens between polls; charge kIdleListenFactor of RX
  // power for the elapsed wall time (airtime double-count is negligible at
  // the utilizations of interest, and conservative otherwise).
  const double w = link_.spec().rx_power_w * kIdleListenFactor;
  for (auto& ns : stats_.nodes) ns.rx_energy_j += w * dt;
  idle_settled_until_ = now;
  stats_.elapsed_s = now - started_at_;
}

void PollingMac::poll_next() {
  if (!running_) return;
  settle_idle_energy();

  const std::size_t idx = next_node_;
  next_node_ = (next_node_ + 1) % nodes_.size();
  auto& node = nodes_[idx];
  auto& ns = stats_.nodes[idx];

  // Hub poll; the polled leaf receives it (its idle listening already covers
  // the RX window energetically; the poll airtime occupies the medium).
  const double poll_air = link_.frame_time_s(kPollBytes);
  stats_.hub_tx_energy_j += link_.frame_tx_energy_j(kPollBytes);
  stats_.busy_airtime_s += poll_air;

  double reply_air = 0.0;
  if (node.queue.empty()) {
    reply_air = link_.frame_time_s(kNothingBytes);
    ns.tx_energy_j += link_.frame_tx_energy_j(kNothingBytes);
    stats_.hub_rx_energy_j += link_.frame_rx_energy_j(kNothingBytes);
  } else {
    Frame& head = node.queue.front();
    reply_air = link_.frame_time_s(head.payload_bytes);
    ns.tx_energy_j += link_.frame_tx_energy_j(head.payload_bytes);
    stats_.hub_rx_energy_j += link_.frame_rx_energy_j(head.payload_bytes);

    const bool lost = rng_.bernoulli(link_.frame_error_rate(head.payload_bytes));
    if (lost) {
      ++ns.frames_retried;
      if (++node.head_retries > kMaxRetries) {
        ++ns.frames_dropped;
        node.queue.pop_front();
        node.head_retries = 0;
      }
    } else {
      const sim::Time delivered_at = sim_.now() + poll_air + reply_air;
      ++ns.frames_delivered;
      ns.bytes_delivered += head.payload_bytes;
      ns.latency_s.add(delivered_at - head.created_s);
      if (on_delivery_) on_delivery_(head, delivered_at);
      node.queue.pop_front();
      node.head_retries = 0;
    }
  }
  stats_.busy_airtime_s += reply_air;

  sim_.after(poll_air + reply_air, [this] { poll_next(); });
}

}  // namespace iob::comm
