#include "net/degradation.hpp"

#include <algorithm>

namespace iob::net {

namespace {

// Step-down triggers: any metric exceeding its limit is channel stress.
constexpr double kMaxLoss = 0.10;
constexpr double kMaxRetryRate = 0.50;
constexpr std::size_t kMaxQueueDepth = 64;
// Step-up hysteresis: recovery requires every metric under limit/kHysteresis
// (the sticky band; the same x1.15 as AdaptiveSplitController).
constexpr double kHysteresis = 1.15;
// Minimum dwell on a rung before the next transition (either direction), so
// one settle period of noise cannot double-step.
constexpr double kMinDwellS = 0.5;

}  // namespace

std::vector<DegradationStep> default_degradation_ladder() {
  return {
      {"normal", 1.0, 1, false, false},
      {"codec-half", 0.5, 1, false, false},
      {"shed-2", 0.5, 2, false, false},
      {"int8-quarter", 0.25, 2, true, false},
      {"hub-retreat", 0.25, 4, true, true},
  };
}

DegradationController::DegradationController() : ladder_(default_degradation_ladder()) {}

double DegradationController::time_degraded_s(double now) const {
  return degraded_accum_s_ + (current_ > 0 ? std::max(0.0, now - last_update_t_) : 0.0);
}

std::size_t DegradationController::update(const ChannelHealth& health, double now) {
  // Attribute the elapsed interval to the rung we stood on through it.
  if (current_ > 0 && now > last_update_t_) degraded_accum_s_ += now - last_update_t_;
  last_update_t_ = now;

  const bool stressed = health.loss > kMaxLoss || health.retry_rate > kMaxRetryRate ||
                        health.queue_depth > kMaxQueueDepth;
  // Recovery needs every metric comfortably inside the limit — the
  // limit/hysteresis band in between is sticky by construction, which is
  // what makes a boundary-riding channel hold its rung instead of
  // oscillating.
  const bool healthy =
      health.loss <= kMaxLoss / kHysteresis && health.retry_rate <= kMaxRetryRate / kHysteresis &&
      static_cast<double>(health.queue_depth) <=
          static_cast<double>(kMaxQueueDepth) / kHysteresis;

  if (ever_transitioned_ && now - last_transition_t_ < kMinDwellS) return current_;

  if (stressed && current_ + 1 < ladder_.size()) {
    ++current_;
    ++transitions_;
    max_step_ = std::max(max_step_, current_);
    last_transition_t_ = now;
    ever_transitioned_ = true;
  } else if (healthy && current_ > 0) {
    --current_;
    ++transitions_;
    last_transition_t_ = now;
    ever_transitioned_ = true;
    if (current_ == 0) last_recovery_t_ = now;
  }
  return current_;
}

}  // namespace iob::net
