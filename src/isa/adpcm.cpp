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

// Both state machines are written with selects instead of branches: a
// nibble bit is a comparison, and "add x if bit b" is "add x & -b". The
// arithmetic is exact integer, so the bytes equal the branchy seed loops'
// (tests/isa_test.cpp keeps them as an oracle).

/// Apply one nibble to the decoder state; returns the new predictor.
int decode_sample(unsigned nibble, int& predictor, int& index) {
  const int step = kStepTable[static_cast<std::size_t>(index)];
  const int b4 = (nibble >> 2) & 1, b2 = (nibble >> 1) & 1, b1 = nibble & 1;
  const int diffq = (step >> 3) + (step & -b4) + ((step >> 1) & -b2) + ((step >> 2) & -b1);
  const int neg = -static_cast<int>(nibble >> 3);  // 0 or -1
  predictor = std::clamp(predictor + ((diffq ^ neg) - neg), -32768, 32767);
  index = std::clamp(index + kIndexTable[nibble], 0, 88);
  return predictor;
}

/// Encode one sample against the predictor state; returns the nibble and
/// advances the state exactly as the decoder will.
unsigned encode_sample(int sample, int& predictor, int& index) {
  const int step = kStepTable[static_cast<std::size_t>(index)];
  int diff = sample - predictor;
  const int neg = -static_cast<int>(diff < 0);
  diff = (diff ^ neg) - neg;
  const int b4 = diff >= step;
  diff -= step & -b4;
  const int b2 = diff >= (step >> 1);
  diff -= (step >> 1) & -b2;
  const int b1 = diff >= (step >> 2);
  const auto nibble = static_cast<unsigned>((neg & 8) | (b4 << 2) | (b2 << 1) | b1);
  decode_sample(nibble, predictor, index);
  return nibble;
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

  // The first sample is carried in the header (predictor); the other n - 1
  // pack two per byte, low nibble first, into n / 2 bytes.
  out.nibbles.resize(pcm.size() / 2);
  std::uint8_t* dst = out.nibbles.data();
  std::size_t i = 1;
  for (; i + 1 < pcm.size(); i += 2) {
    const unsigned lo = encode_sample(pcm[i], predictor, index);
    const unsigned hi = encode_sample(pcm[i + 1], predictor, index);
    *dst++ = static_cast<std::uint8_t>(lo | (hi << 4));
  }
  if (i < pcm.size()) *dst = static_cast<std::uint8_t>(encode_sample(pcm[i], predictor, index));
  return out;
}

std::vector<std::int16_t> AdpcmCodec::decode(const AdpcmEncoded& encoded) {
  IOB_EXPECTS(encoded.step_index < kStepTable.size(), "adpcm step index out of range");
  // Exactly the n / 2 bytes encode() emits: checked before the resize, so
  // neither a forged sample_count nor trailing bytes can size the work.
  IOB_EXPECTS(encoded.nibbles.size() == encoded.sample_count / 2,
              "adpcm nibble count does not match sample count");
  std::vector<std::int16_t> pcm(encoded.sample_count);
  if (encoded.sample_count == 0) return pcm;

  int predictor = encoded.predictor;
  int index = encoded.step_index;
  std::int16_t* dst = pcm.data();
  *dst++ = encoded.predictor;
  // An even sample count leaves the last byte's high nibble unused.
  const std::size_t full = (encoded.sample_count - 1) / 2;
  for (std::size_t b = 0; b < full; ++b) {
    const std::uint8_t byte = encoded.nibbles[b];
    *dst++ = static_cast<std::int16_t>(decode_sample(byte & 0x0fu, predictor, index));
    *dst++ = static_cast<std::int16_t>(decode_sample(byte >> 4, predictor, index));
  }
  if (full < encoded.nibbles.size()) {
    const unsigned lo = encoded.nibbles[full] & 0x0fu;
    *dst = static_cast<std::int16_t>(decode_sample(lo, predictor, index));
  }
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
