#pragma once
/// \file degradation.hpp
/// Closed-loop graceful degradation under channel hostility
/// (docs/robustness.md). A `DegradationController` watches a node's
/// channel-health observables — delivery-ratio EWMA, retry-rate EWMA,
/// queue depth, all maintained by the MAC — and walks a deterministic
/// *degradation ladder*:
///
///   normal -> codec bitrate downgrade -> frame shedding
///          -> int8 boundary precision -> split retreat to hub-only
///
/// one rung at a time, with step-up hysteresis so a channel riding the
/// threshold cannot make the node oscillate (the same x1.15 discipline as
/// `partition::AdaptiveSplitController`, applied to each health threshold:
/// stepping down requires a metric *over* its limit; stepping back up
/// requires every metric under limit/hysteresis). The ladder's rung 0 is
/// the identity, which is what makes an armed-but-idle controller
/// bit-identical to no controller at all.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace iob::net {

/// One rung of the ladder: what the node gives up while standing on it.
/// Rung 0 is the identity (scale 1, modulus 1, no overrides).
struct DegradationStep {
  std::string label = "normal";
  /// Codec bitrate scale in (0, 1]: frame payloads shrink to
  /// `round(frame_bytes * bitrate_scale)` — a coarser codec setting. The
  /// smaller frame is also superlinearly more likely to survive an
  /// elevated BER (FER = 1 - (1-BER)^bits), which is why this is the
  /// ladder's first resort.
  double bitrate_scale = 1.0;
  /// Duty-cycle shedding: only every `shed_modulus`-th frame/inference is
  /// offered to the schedule (1 = no shedding). Shed frames are counted in
  /// the `dropped_shed` taxonomy bucket.
  unsigned shed_modulus = 1;
  /// Split nodes only: force the boundary activation onto the int8 wire
  /// format (1 B/elem + header) regardless of the configured precision.
  bool int8_wire = false;
  /// Split nodes only: retreat to hub-only execution (split point 0 — raw
  /// input ships, no leaf prefix) until the channel heals.
  bool hub_only_split = false;
};

/// The 5-rung ladder every armed controller walks.
[[nodiscard]] std::vector<DegradationStep> default_degradation_ladder();

/// Channel-health observables, as sampled at the node's settle cadence.
struct ChannelHealth {
  double loss = 0.0;        ///< 1 - delivery_ratio_ewma
  double retry_rate = 0.0;  ///< retry_rate_ewma
  std::size_t queue_depth = 0;
};

/// Walks `default_degradation_ladder()` against fixed health thresholds,
/// hysteresis and minimum dwell (constants in degradation.cpp; the values
/// are listed in docs/robustness.md).
class DegradationController {
 public:
  DegradationController();

  /// Evaluate the health sample at sim time `now` (non-decreasing across
  /// calls) and return the rung index to stand on. Deterministic: depends
  /// only on the sample sequence.
  std::size_t update(const ChannelHealth& health, double now);

  [[nodiscard]] const DegradationStep& current() const { return ladder_[current_]; }
  [[nodiscard]] std::size_t current_index() const { return current_; }

  // --- Telemetry (SessionStats / NodeReport) ---

  /// Rung transitions taken (both directions).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  /// Deepest rung ever stood on.
  [[nodiscard]] std::size_t max_step() const { return max_step_; }
  /// Seconds spent on any rung > 0, up to `now`.
  [[nodiscard]] double time_degraded_s(double now) const;
  /// Sim time of the most recent full recovery (return to rung 0);
  /// 0 when the controller never left rung 0 or has not yet returned.
  [[nodiscard]] double last_recovery_s() const { return last_recovery_t_; }

 private:
  std::vector<DegradationStep> ladder_;
  std::size_t current_ = 0;
  std::uint64_t transitions_ = 0;
  std::size_t max_step_ = 0;
  double last_update_t_ = 0.0;
  double last_transition_t_ = 0.0;
  bool ever_transitioned_ = false;
  double degraded_accum_s_ = 0.0;
  double last_recovery_t_ = 0.0;
};

}  // namespace iob::net
