#include "isa/adpcm.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/expect.hpp"

namespace iob::isa {

namespace {

constexpr std::array<int, 89> kStepTable = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,    19,    21,    23,
    25,    28,    31,    34,    37,    41,    45,    50,    55,    60,    66,    73,    80,
    88,    97,    107,   118,   130,   143,   157,   173,   190,   209,   230,   253,   279,
    307,   337,   371,   408,   449,   494,   544,   598,   658,   724,   796,   876,   963,
    1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,  2272,  2499,  2749,  3024,  3327,
    3660,  4026,  4428,  4871,  5358,  5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487,
    12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

constexpr std::array<int, 16> kIndexTable = {-1, -1, -1, -1, 2, 4, 6, 8,
                                             -1, -1, -1, -1, 2, 4, 6, 8};

/// Encode one sample against the predictor state; returns the nibble.
std::uint8_t encode_sample(int sample, int& predictor, int& index) {
  const int step = kStepTable[static_cast<std::size_t>(index)];
  int diff = sample - predictor;
  std::uint8_t nibble = 0;
  if (diff < 0) {
    nibble = 8;
    diff = -diff;
  }
  int temp_step = step;
  if (diff >= temp_step) {
    nibble |= 4;
    diff -= temp_step;
  }
  temp_step >>= 1;
  if (diff >= temp_step) {
    nibble |= 2;
    diff -= temp_step;
  }
  temp_step >>= 1;
  if (diff >= temp_step) nibble |= 1;

  // Reconstruct exactly as the decoder will.
  int diffq = step >> 3;
  if (nibble & 4) diffq += step;
  if (nibble & 2) diffq += step >> 1;
  if (nibble & 1) diffq += step >> 2;
  predictor += (nibble & 8) ? -diffq : diffq;
  predictor = std::clamp(predictor, -32768, 32767);

  index = std::clamp(index + kIndexTable[nibble], 0, 88);
  return nibble;
}

int decode_sample(std::uint8_t nibble, int& predictor, int& index) {
  const int step = kStepTable[static_cast<std::size_t>(index)];
  int diffq = step >> 3;
  if (nibble & 4) diffq += step;
  if (nibble & 2) diffq += step >> 1;
  if (nibble & 1) diffq += step >> 2;
  predictor += (nibble & 8) ? -diffq : diffq;
  predictor = std::clamp(predictor, -32768, 32767);
  index = std::clamp(index + kIndexTable[nibble], 0, 88);
  return predictor;
}

}  // namespace

AdpcmEncoded AdpcmCodec::encode(const std::vector<std::int16_t>& pcm) {
  AdpcmEncoded out;
  out.sample_count = pcm.size();
  if (pcm.empty()) return out;

  int predictor = pcm[0];
  int index = 0;
  out.predictor = pcm[0];
  out.step_index = 0;

  out.nibbles.reserve((pcm.size() + 1) / 2);
  std::uint8_t pending = 0;
  bool have_pending = false;
  // First sample is carried in the header (predictor); encode from the 2nd.
  for (std::size_t i = 1; i < pcm.size(); ++i) {
    const std::uint8_t nib = encode_sample(pcm[i], predictor, index);
    if (!have_pending) {
      pending = nib;
      have_pending = true;
    } else {
      out.nibbles.push_back(static_cast<std::uint8_t>(pending | (nib << 4)));
      have_pending = false;
    }
  }
  if (have_pending) out.nibbles.push_back(pending);
  return out;
}

std::vector<std::int16_t> AdpcmCodec::decode(const AdpcmEncoded& encoded) {
  IOB_EXPECTS(encoded.step_index < kStepTable.size(), "adpcm step index out of range");
  // The header sample plus two per nibble byte: checked before the reserve,
  // so a forged sample_count cannot size the buffer.
  IOB_EXPECTS(2 * encoded.nibbles.size() + 1 >= encoded.sample_count,
              "adpcm nibbles too short for sample count");
  std::vector<std::int16_t> pcm;
  pcm.reserve(encoded.sample_count);
  if (encoded.sample_count == 0) return pcm;

  int predictor = encoded.predictor;
  int index = encoded.step_index;
  pcm.push_back(encoded.predictor);

  std::size_t produced = 1;
  for (const std::uint8_t byte : encoded.nibbles) {
    for (int half = 0; half < 2 && produced < encoded.sample_count; ++half, ++produced) {
      const std::uint8_t nib = half == 0 ? (byte & 0x0f) : (byte >> 4);
      pcm.push_back(static_cast<std::int16_t>(decode_sample(nib, predictor, index)));
    }
  }
  IOB_ENSURES(pcm.size() == encoded.sample_count, "adpcm decode produced wrong sample count");
  return pcm;
}

double AdpcmCodec::reconstruction_snr_db(const std::vector<std::int16_t>& pcm) {
  IOB_EXPECTS(!pcm.empty(), "signal must be non-empty");
  const auto decoded = decode(encode(pcm));
  double sig = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    const double s = pcm[i];
    const double e = s - decoded[i];
    sig += s * s;
    noise += e * e;
  }
  if (noise == 0.0) return 200.0;  // bit-exact
  return 10.0 * std::log10(sig / noise);
}

}  // namespace iob::isa
