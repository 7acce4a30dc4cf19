#pragma once
/// \file rf_channel.hpp
/// Radiative RF channel model (the BLE baseline the paper argues against,
/// Sec. III-B). Free-space Friis path loss plus an around-body excess-loss
/// term: at 2.4 GHz the conductive body absorbs and shadows the wave, so
/// on-body links see both a larger path-loss exponent and a body-shadowing
/// penalty. Crucially for the paper's argument, the radiated bubble is
/// *room-sized*: a -95 dBm-class receiver meters away still decodes the
/// signal (see leakage.hpp), while the intended receiver is only 1-2 m away.

#include "common/units.hpp"

namespace iob::phy {

struct RfChannelParams {
  double freq_hz = 2.4 * units::GHz;   ///< BLE band
  double ref_distance_m = 1.0;          ///< Friis reference distance
  double path_loss_exponent = 2.0;      ///< free-space/off-body exponent
  double on_body_exponent = 3.3;        ///< around-body creeping-wave exponent
  double body_shadow_db = 15.0;         ///< mean trunk shadowing for on-body links
};

class RfChannel {
 public:
  explicit RfChannel(RfChannelParams params = {});

  /// Free-space path loss (dB) at `distance_m` (Friis).
  [[nodiscard]] double free_space_path_loss_db(double distance_m) const;

  /// Mean on-body path loss (dB) between two wearables `distance_m` apart
  /// around the body (includes the around-body exponent and shadowing mean).
  [[nodiscard]] double on_body_path_loss_db(double distance_m) const;

  /// Off-body path loss (dB) from a wearable to a receiver `distance_m`
  /// away in air (the eavesdropper geometry): free space beyond the body.
  [[nodiscard]] double off_body_path_loss_db(double distance_m) const;

  /// Received power (W) for a transmit power and a path loss in dB.
  [[nodiscard]] static double received_power_w(double tx_power_w, double path_loss_db);

  [[nodiscard]] const RfChannelParams& params() const { return params_; }

 private:
  RfChannelParams params_;
  double ref_loss_db_;  ///< Friis loss at ref_distance_m
};

}  // namespace iob::phy
