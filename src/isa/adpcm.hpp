#pragma once
/// \file adpcm.hpp
/// IMA ADPCM audio codec (16-bit PCM <-> 4 bits/sample, fixed 4:1) — the
/// ISA stage for the paper's audio-input wearable AI class (pins, pendants,
/// pocket assistants; Sec. II-B). A leaf microphone node running ADPCM cuts
/// its Wi-R traffic 4x for ~zero compute, shifting its operating point left
/// along the Fig. 3 battery-life curve.

#include <cstdint>
#include <vector>

namespace iob::isa {

struct AdpcmEncoded {
  std::vector<std::uint8_t> nibbles;  ///< two samples per byte, low nibble first
  std::int16_t predictor = 0;         ///< initial decoder state
  std::uint8_t step_index = 0;
  std::size_t sample_count = 0;

  [[nodiscard]] std::size_t size_bytes() const { return nibbles.size() + 4; /* header */ }
};

class AdpcmCodec {
 public:
  [[nodiscard]] static AdpcmEncoded encode(const std::vector<std::int16_t>& pcm);
  /// Throws std::invalid_argument on a step index past the table (> 88) or
  /// on fewer nibbles than `sample_count` needs.
  [[nodiscard]] static std::vector<std::int16_t> decode(const AdpcmEncoded& encoded);

  /// Reconstruction SNR (dB) over a signal (encode -> decode -> compare).
  [[nodiscard]] static double reconstruction_snr_db(const std::vector<std::int16_t>& pcm);
};

}  // namespace iob::isa
