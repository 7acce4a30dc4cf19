// Unit + property tests for src/isa: bit I/O, Huffman optimality, DCT
// reconstruction, the MJPEG-style codec's rate/distortion behaviour, ADPCM,
// the lossless biopotential codec, FFT identities, and feature extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "isa/adpcm.hpp"
#include "isa/bio_codec.hpp"
#include "isa/bitstream.hpp"
#include "isa/dct.hpp"
#include "isa/features.hpp"
#include "isa/fft.hpp"
#include "isa/huffman.hpp"
#include "isa/metrics.hpp"
#include "isa/mjpeg.hpp"
#include "nn/gemm.hpp"
#include "sim/rng.hpp"
#include "workload/audio.hpp"

namespace iob::isa {
namespace {

// ---- Bitstream -----------------------------------------------------------------

/// `count` bits MSB-first, one read_bit at a time.
std::uint64_t read_bits(BitReader& r, unsigned count) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < count; ++i) v = (v << 1) | r.read_bit();
  return v;
}

TEST(Bitstream, RoundTripMixedWidths) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xdead, 16);
  w.write(1, 1);
  w.write(0x123456789abcdefULL, 57);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(read_bits(r, 3), 0b101u);
  EXPECT_EQ(read_bits(r, 16), 0xdeadu);
  EXPECT_EQ(read_bits(r, 1), 1u);
  EXPECT_EQ(read_bits(r, 57), 0x123456789abcdefULL);
}

TEST(Bitstream, BitCountTracksWrites) {
  BitWriter w;
  w.write(0, 5);
  w.write(0, 9);
  EXPECT_EQ(w.bit_count(), 14u);
}

TEST(Bitstream, ReadPastEndThrows) {
  BitWriter w;
  w.write(0xff, 8);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(read_bits(r, 8), 0xffu);
  EXPECT_THROW(r.read_bit(), std::invalid_argument);
}

// ---- Huffman -------------------------------------------------------------------

TEST(Huffman, RoundTripSkewedDistribution) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs[0] = 1000;
  freqs[1] = 500;
  freqs[2] = 100;
  freqs[7] = 10;
  freqs[255] = 1;
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);

  const std::vector<unsigned> message = {0, 0, 1, 2, 0, 7, 255, 1, 0, 2};
  BitWriter w;
  for (const auto s : message) codec.encode(s, w);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  for (const auto s : message) EXPECT_EQ(codec.decode(r), s);
}

TEST(Huffman, WithinOneBitOfEntropy) {
  // Optimality property: E[len] - H < 1 bit for any distribution.
  sim::Rng rng(5);
  std::vector<std::uint64_t> freqs(64, 0);
  for (auto& f : freqs) f = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  const double h = HuffmanCodec::entropy_bits(freqs);
  const double l = codec.expected_length_bits(freqs);
  EXPECT_GE(l, h - 1e-9);
  EXPECT_LT(l, h + 1.0);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs(4, 0);
  freqs[0] = 1000;
  freqs[3] = 1;
  freqs[1] = 100;
  freqs[2] = 10;
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  EXPECT_LE(codec.code_lengths()[0], codec.code_lengths()[1]);
  EXPECT_LE(codec.code_lengths()[1], codec.code_lengths()[2]);
  EXPECT_LE(codec.code_lengths()[2], codec.code_lengths()[3]);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(8, 0);
  freqs[3] = 42;
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  BitWriter w;
  codec.encode(3, w);
  codec.encode(3, w);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(codec.decode(r), 3u);
  EXPECT_EQ(codec.decode(r), 3u);
}

TEST(Huffman, RebuildFromCodeLengths) {
  std::vector<std::uint64_t> freqs = {10, 20, 30, 40};
  const HuffmanCodec original = HuffmanCodec::from_frequencies(freqs);
  const HuffmanCodec rebuilt = HuffmanCodec::from_code_lengths(original.code_lengths());
  BitWriter w;
  original.encode(2, w);
  original.encode(0, w);
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(rebuilt.decode(r), 2u);
  EXPECT_EQ(rebuilt.decode(r), 0u);
}

TEST(Huffman, EncodingAbsentSymbolThrows) {
  std::vector<std::uint64_t> freqs = {10, 0, 30};
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  BitWriter w;
  EXPECT_THROW(codec.encode(1, w), std::invalid_argument);
}

// ---- DCT -----------------------------------------------------------------------

TEST(Dct, PerfectReconstruction) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Block b{};
    for (auto& v : b) v = static_cast<float>(rng.uniform(-128.0, 128.0));
    const Block back = idct8x8(dct8x8(b));
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-3);
    }
  }
}

TEST(Dct, EnergyPreservation) {
  // Orthonormal transform: Parseval holds.
  sim::Rng rng(8);
  Block b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Block c = dct8x8(b);
  double e_spatial = 0.0, e_coeff = 0.0;
  for (int i = 0; i < 64; ++i) {
    e_spatial += static_cast<double>(b[static_cast<std::size_t>(i)]) * b[static_cast<std::size_t>(i)];
    e_coeff += static_cast<double>(c[static_cast<std::size_t>(i)]) * c[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(e_spatial, e_coeff, 1e-4);
}

TEST(Dct, ConstantBlockIsPureDc) {
  Block b{};
  b.fill(10.0f);
  const Block c = dct8x8(b);
  EXPECT_NEAR(c[0], 80.0f, 1e-3);  // 10 * 8 (orthonormal DC gain)
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(c[static_cast<std::size_t>(i)], 0.0f, 1e-4);
}

TEST(Dct, ZigzagIsAPermutation) {
  const auto& zz = zigzag_order();
  std::array<bool, 64> seen{};
  for (const int idx : zz) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  EXPECT_EQ(zz[0], 0);   // starts at DC
  EXPECT_EQ(zz[1], 1);   // then right
  EXPECT_EQ(zz[2], 8);   // then down-left
  EXPECT_EQ(zz[63], 63); // ends at the highest frequency
}

// ---- MJPEG codec ------------------------------------------------------------------

GrayFrame test_frame(int w, int h, std::uint64_t seed) {
  sim::Rng rng(seed);
  GrayFrame f;
  f.width = w;
  f.height = h;
  f.pixels.resize(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double v = 128.0 + 60.0 * std::sin(x * 0.2) * std::cos(y * 0.13) +
                       rng.normal(0.0, 3.0);
      f.pixels[static_cast<std::size_t>(y) * w + x] =
          static_cast<std::uint8_t>(std::clamp(static_cast<int>(v), 0, 255));
    }
  }
  return f;
}

TEST(Mjpeg, RoundTripPreservesDimensions) {
  MjpegCodec codec(75);
  const GrayFrame f = test_frame(64, 48, 1);
  const GrayFrame back = codec.decode(codec.encode(f));
  EXPECT_EQ(back.width, f.width);
  EXPECT_EQ(back.height, f.height);
  EXPECT_EQ(back.pixels.size(), f.pixels.size());
}

TEST(Mjpeg, HighQualityHighPsnr) {
  MjpegCodec codec(90);
  const GrayFrame f = test_frame(64, 64, 2);
  EXPECT_GT(psnr_db(f, codec.decode(codec.encode(f))), 32.0);
}

TEST(Mjpeg, CompressesRealisticContent) {
  MjpegCodec codec(50);
  const GrayFrame f = test_frame(128, 128, 3);
  EXPECT_GT(codec.compression_ratio(f), 2.0);
}

TEST(Mjpeg, SmoothContentCompressesHarder) {
  MjpegCodec codec(50);
  GrayFrame smooth;
  smooth.width = smooth.height = 64;
  smooth.pixels.resize(64 * 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      smooth.pixels[static_cast<std::size_t>(y) * 64 + x] = static_cast<std::uint8_t>(x + y);
    }
  }
  EXPECT_GT(codec.compression_ratio(smooth), codec.compression_ratio(test_frame(64, 64, 4)));
  EXPECT_GT(codec.compression_ratio(smooth), 8.0);
}

class MjpegQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MjpegQualitySweep, DecodesAtEveryQuality) {
  MjpegCodec codec(GetParam());
  const GrayFrame f = test_frame(48, 48, 5);
  const GrayFrame back = codec.decode(codec.encode(f));
  EXPECT_GT(psnr_db(f, back), 18.0);  // even q=5 must stay recognizable
}

INSTANTIATE_TEST_SUITE_P(Qualities, MjpegQualitySweep, ::testing::Values(5, 25, 50, 75, 95));

TEST(Mjpeg, QualityMonotonicallyImprovesPsnr) {
  const GrayFrame f = test_frame(64, 64, 6);
  double prev_psnr = 0.0;
  for (const int q : {10, 30, 50, 70, 90}) {
    MjpegCodec codec(q);
    const double p = psnr_db(f, codec.decode(codec.encode(f)));
    EXPECT_GE(p, prev_psnr - 0.3);  // allow tiny non-monotonic wiggle
    prev_psnr = p;
  }
}

TEST(Mjpeg, QualityTradesRateForDistortion) {
  const GrayFrame f = test_frame(64, 64, 7);
  EXPECT_GT(MjpegCodec(10).compression_ratio(f), MjpegCodec(90).compression_ratio(f));
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Mjpeg, EncodedBytesArePinned) {
  // Integer-only content (a hard edge over a mixed gradient) so the digest
  // depends on the codec alone. Both digests must survive any refactor of
  // the token, varint or Huffman framing code.
  GrayFrame f;
  f.width = 32;
  f.height = 24;
  f.pixels.resize(32 * 24);
  for (int y = 0; y < 24; ++y) {
    for (int x = 0; x < 32; ++x) {
      const int base = x < 13 ? 30 : 220;
      f.pixels[static_cast<std::size_t>(y) * 32 + x] =
          static_cast<std::uint8_t>((base + 3 * x - 2 * y + ((x * y) & 7)) & 0xff);
    }
  }
  const MjpegCodec codec(50);
  const MjpegEncoded enc = codec.encode(f);
  EXPECT_EQ(enc.payload.size(), 470u);
  EXPECT_EQ(fnv1a(enc.payload), 6437605894638733004ULL);
  EXPECT_EQ(fnv1a(codec.decode(enc).pixels), 10283365937828873488ULL);
}

/// An 8x8 MJPEG stream whose token bytes are `tokens`, framed as the codec
/// frames them: [256 B code lengths][4 B token count][Huffman bits].
MjpegEncoded mjpeg_stream(const std::vector<std::uint8_t>& tokens) {
  std::vector<std::uint64_t> freqs(256, 0);
  for (const auto t : tokens) ++freqs[t];
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  MjpegEncoded enc;
  enc.width = enc.height = 8;
  enc.quality = 50;
  enc.payload = codec.code_lengths();
  for (int i = 0; i < 4; ++i) {
    enc.payload.push_back(static_cast<std::uint8_t>((tokens.size() >> (8 * i)) & 0xff));
  }
  BitWriter w;
  for (const auto t : tokens) codec.encode(t, w);
  const auto bits = w.finish();
  enc.payload.insert(enc.payload.end(), bits.begin(), bits.end());
  return enc;
}

TEST(Mjpeg, DecodeRejectsVarintBitsAbove31) {
  const MjpegCodec codec(50);
  // DC 1, then EOB: a well-formed one-block frame.
  EXPECT_NO_THROW(static_cast<void>(codec.decode(mjpeg_stream({0x02, 0x3f}))));
  // A fifth varint byte 0x10 sets bit 32, which a 32-bit DC cannot hold.
  EXPECT_THROW(static_cast<void>(codec.decode(mjpeg_stream({0x80, 0x80, 0x80, 0x80, 0x10, 0x3f}))),
               std::invalid_argument);
}

TEST(Mjpeg, DecodeRejectsDcOverflow) {
  // Two blocks, each with DC delta 2^30: the running DC would reach 2^31.
  MjpegEncoded enc = mjpeg_stream(
      {0x80, 0x80, 0x80, 0x80, 0x08, 0x3f, 0x80, 0x80, 0x80, 0x80, 0x08, 0x3f});
  enc.width = 16;
  EXPECT_THROW(static_cast<void>(MjpegCodec(50).decode(enc)), std::invalid_argument);
}

TEST(Mjpeg, DecodeRejectsDimsTheStreamCannotFill) {
  // One block's tokens (DC 1, EOB) cannot fill two blocks, and empty or
  // negative dims describe no frame.
  MjpegEncoded enc = mjpeg_stream({0x02, 0x3f});
  for (const int width : {16, 0, -8}) {
    enc.width = width;
    EXPECT_THROW(static_cast<void>(MjpegCodec(50).decode(enc)), std::invalid_argument) << width;
  }
}

TEST(Mjpeg, DecodeRejectsTokenCountBeyondTheBitstream) {
  // A valid table (every symbol 8 bits long), a count of 2^24 tokens and
  // no bitstream at all: the count is forged and must not size a buffer.
  MjpegEncoded enc;
  enc.width = enc.height = 8;
  enc.quality = 50;
  enc.payload.assign(256, 8);
  const std::uint32_t forged = 1u << 24;
  for (int i = 0; i < 4; ++i) enc.payload.push_back(static_cast<std::uint8_t>(forged >> (8 * i)));
  EXPECT_THROW(static_cast<void>(MjpegCodec(50).decode(enc)), std::invalid_argument);
}

TEST(Mjpeg, DecodeRejectsAStreamOfAnotherQuality) {
  // Dequantizing a q=75 stream with the q=50 matrix would yield wrong
  // pixels without any error.
  const MjpegEncoded enc = MjpegCodec(75).encode(test_frame(16, 16, 3));
  EXPECT_NO_THROW(static_cast<void>(MjpegCodec(75).decode(enc)));
  EXPECT_THROW(static_cast<void>(MjpegCodec(50).decode(enc)), std::invalid_argument);
}

TEST(Mjpeg, RejectsNonBlockAlignedFrames) {
  MjpegCodec codec(50);
  GrayFrame f;
  f.width = 30;  // not a multiple of 8
  f.height = 16;
  f.pixels.resize(480);
  EXPECT_THROW(codec.encode(f), std::invalid_argument);
  EXPECT_THROW(MjpegCodec(0), std::invalid_argument);
  EXPECT_THROW(MjpegCodec(101), std::invalid_argument);
}

// ---- ADPCM ---------------------------------------------------------------------

std::vector<std::int16_t> tone(double freq_hz, double fs, double seconds, double amp) {
  std::vector<std::int16_t> pcm(static_cast<std::size_t>(fs * seconds));
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    pcm[i] = static_cast<std::int16_t>(
        amp * 32767.0 * std::sin(2.0 * M_PI * freq_hz * static_cast<double>(i) / fs));
  }
  return pcm;
}

TEST(Adpcm, FourToOneCompression) {
  const auto pcm = tone(440.0, 16000.0, 0.5, 0.5);
  const AdpcmEncoded enc = AdpcmCodec::encode(pcm);
  // 4 bits/sample vs 16: ratio ~4 (header amortized away).
  const double ratio = static_cast<double>(pcm.size() * 2) / static_cast<double>(enc.size_bytes());
  EXPECT_GT(ratio, 3.8);
  EXPECT_LE(ratio, 4.1);
}

TEST(Adpcm, ReconstructionSnrOnTone) {
  EXPECT_GT(AdpcmCodec::reconstruction_snr_db(tone(440.0, 16000.0, 0.5, 0.5)), 20.0);
}

TEST(Adpcm, SampleCountPreserved) {
  for (const std::size_t n : {1u, 2u, 3u, 100u, 101u}) {
    std::vector<std::int16_t> pcm(n, 1000);
    EXPECT_EQ(AdpcmCodec::decode(AdpcmCodec::encode(pcm)).size(), n);
  }
}

TEST(Adpcm, SilenceIsNearExact) {
  std::vector<std::int16_t> pcm(1000, 0);
  const auto back = AdpcmCodec::decode(AdpcmCodec::encode(pcm));
  for (const auto s : back) EXPECT_LE(std::abs(s), 8);  // minimum step dither
}

TEST(Adpcm, DecodeRejectsStepIndexPastTheTable) {
  AdpcmEncoded enc = AdpcmCodec::encode(std::vector<std::int16_t>(9, 1000));
  enc.step_index = 88;  // the last table entry still decodes
  EXPECT_EQ(AdpcmCodec::decode(enc).size(), 9u);
  for (const int bad : {89, 255}) {
    enc.step_index = static_cast<std::uint8_t>(bad);
    EXPECT_THROW(static_cast<void>(AdpcmCodec::decode(enc)), std::invalid_argument) << bad;
  }
}

TEST(Adpcm, DecodeRejectsNibblesShortOfSampleCount) {
  AdpcmEncoded enc = AdpcmCodec::encode(std::vector<std::int16_t>(9, 1000));
  ASSERT_EQ(enc.nibbles.size(), 4u);  // header sample + 2 per byte = 9
  enc.sample_count = 10;
  EXPECT_THROW(static_cast<void>(AdpcmCodec::decode(enc)), std::invalid_argument);
  // A forged count must be rejected before it sizes the output buffer.
  enc.sample_count = std::numeric_limits<std::size_t>::max() / 4;
  EXPECT_THROW(static_cast<void>(AdpcmCodec::decode(enc)), std::invalid_argument);
}

TEST(Adpcm, DecodeRejectsTrailingNibbles) {
  // encode emits exactly sample_count / 2 bytes; any more would make a
  // forged short stream scan bytes it never decodes.
  for (const std::size_t n : {1u, 2u, 9u, 10u}) {
    AdpcmEncoded enc = AdpcmCodec::encode(std::vector<std::int16_t>(n, 1000));
    ASSERT_EQ(enc.nibbles.size(), n / 2);
    EXPECT_EQ(AdpcmCodec::decode(enc).size(), n);
    enc.nibbles.push_back(0);
    EXPECT_THROW(static_cast<void>(AdpcmCodec::decode(enc)), std::invalid_argument) << n;
  }
  AdpcmEncoded forged = AdpcmCodec::encode(std::vector<std::int16_t>(1, 1000));
  forged.nibbles.assign(1 << 20, 0x77);
  EXPECT_THROW(static_cast<void>(AdpcmCodec::decode(forged)), std::invalid_argument);
  AdpcmEncoded empty;
  EXPECT_TRUE(AdpcmCodec::decode(empty).empty());
  empty.nibbles.push_back(0);
  EXPECT_THROW(static_cast<void>(AdpcmCodec::decode(empty)), std::invalid_argument);
}

TEST(Adpcm, TracksStepChanges) {
  // Loud tone after silence: the adaptive step must catch up.
  auto pcm = tone(200.0, 16000.0, 0.1, 0.02);
  const auto loud = tone(200.0, 16000.0, 0.1, 0.9);
  pcm.insert(pcm.end(), loud.begin(), loud.end());
  EXPECT_GT(AdpcmCodec::reconstruction_snr_db(pcm), 15.0);
}

// ---- ADPCM byte-identity oracle --------------------------------------------------------
//
// The codec's seed per-sample state machine, branch by branch. The library
// must emit the same nibbles and header and decode the same PCM, byte for
// byte; `AdpcmReach` records which saturating states a signal drove it into.

constexpr std::array<int, 89> kRefStepTable = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,    19,    21,    23,
    25,    28,    31,    34,    37,    41,    45,    50,    55,    60,    66,    73,    80,
    88,    97,    107,   118,   130,   143,   157,   173,   190,   209,   230,   253,   279,
    307,   337,   371,   408,   449,   494,   544,   598,   658,   724,   796,   876,   963,
    1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,  2272,  2499,  2749,  3024,  3327,
    3660,  4026,  4428,  4871,  5358,  5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487,
    12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};
constexpr std::array<int, 16> kRefIndexTable = {-1, -1, -1, -1, 2, 4, 6, 8,
                                                -1, -1, -1, -1, 2, 4, 6, 8};

struct AdpcmReach {
  bool predictor_clamped = false;
  bool step_at_top = false;     ///< step index reached 88
  bool step_at_bottom = false;  ///< step index sat at 0 after a step
};

int reference_adpcm_decode_sample(std::uint8_t nibble, int& predictor, int& index,
                                  AdpcmReach* reach = nullptr) {
  const int step = kRefStepTable[static_cast<std::size_t>(index)];
  int diffq = step >> 3;
  if (nibble & 4) diffq += step;
  if (nibble & 2) diffq += step >> 1;
  if (nibble & 1) diffq += step >> 2;
  predictor += (nibble & 8) ? -diffq : diffq;
  const int clamped = std::clamp(predictor, -32768, 32767);
  index = std::clamp(index + kRefIndexTable[nibble], 0, 88);
  if (reach != nullptr) {
    reach->predictor_clamped |= clamped != predictor;
    reach->step_at_top |= index == 88;
    reach->step_at_bottom |= index == 0;
  }
  predictor = clamped;
  return predictor;
}

std::uint8_t reference_adpcm_encode_sample(int sample, int& predictor, int& index,
                                           AdpcmReach* reach) {
  const int step = kRefStepTable[static_cast<std::size_t>(index)];
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
  reference_adpcm_decode_sample(nibble, predictor, index, reach);
  return nibble;
}

AdpcmEncoded reference_adpcm_encode(const std::vector<std::int16_t>& pcm,
                                    AdpcmReach* reach = nullptr) {
  AdpcmEncoded out;
  out.sample_count = pcm.size();
  if (pcm.empty()) return out;
  int predictor = pcm[0];
  int index = 0;
  out.predictor = pcm[0];
  std::uint8_t pending = 0;
  bool have_pending = false;
  for (std::size_t i = 1; i < pcm.size(); ++i) {
    const std::uint8_t nib = reference_adpcm_encode_sample(pcm[i], predictor, index, reach);
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

std::vector<std::int16_t> reference_adpcm_decode(const AdpcmEncoded& encoded) {
  std::vector<std::int16_t> pcm;
  if (encoded.sample_count == 0) return pcm;
  int predictor = encoded.predictor;
  int index = encoded.step_index;
  pcm.push_back(encoded.predictor);
  for (const std::uint8_t byte : encoded.nibbles) {
    for (int half = 0; half < 2 && pcm.size() < encoded.sample_count; ++half) {
      const std::uint8_t nib = half == 0 ? (byte & 0x0f) : (byte >> 4);
      const int sample = reference_adpcm_decode_sample(nib, predictor, index);
      pcm.push_back(static_cast<std::int16_t>(sample));
    }
  }
  return pcm;
}

/// Silence, a full-scale square wave (drives the predictor into its
/// clamps), +-32767 noise (pins the step index at 88) and a slow sine of a
/// few LSBs (pins it at 0), each `n` samples long.
std::vector<std::pair<std::string, std::vector<std::int16_t>>> adpcm_oracle_signals(
    std::size_t n) {
  std::vector<std::pair<std::string, std::vector<std::int16_t>>> out;
  out.emplace_back("silence", std::vector<std::int16_t>(n, 0));
  std::vector<std::int16_t> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = (i / 40) % 2 == 0 ? 32767 : -32768;
  out.emplace_back("square", x);
  sim::Rng rng(41);
  for (auto& v : x) v = static_cast<std::int16_t>(rng.uniform_int(-32767, 32767));
  out.emplace_back("noise", x);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::int16_t>(std::lround(
        3.0 * std::sin(2.0 * M_PI * 2.0 * static_cast<double>(i) / 16000.0)));
  }
  out.emplace_back("slow_sine", x);
  return out;
}

TEST(AdpcmOracle, EncodeAndDecodeByteIdenticalToSeedLoops) {
  std::map<std::string, AdpcmReach> reached;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 16000u, 16001u}) {
    for (const auto& [name, pcm] : adpcm_oracle_signals(n)) {
      const AdpcmEncoded want = reference_adpcm_encode(pcm, &reached[name]);
      const AdpcmEncoded got = AdpcmCodec::encode(pcm);
      EXPECT_EQ(got.sample_count, want.sample_count) << name << " n=" << n;
      EXPECT_EQ(got.predictor, want.predictor) << name << " n=" << n;
      EXPECT_EQ(got.step_index, want.step_index) << name << " n=" << n;
      EXPECT_EQ(got.nibbles, want.nibbles) << name << " n=" << n;
      EXPECT_EQ(AdpcmCodec::decode(want), reference_adpcm_decode(want)) << name << " n=" << n;
    }
  }
  // The signals reach the saturating states they are there for.
  EXPECT_TRUE(reached["square"].predictor_clamped);
  EXPECT_TRUE(reached["noise"].step_at_top);
  EXPECT_TRUE(reached["slow_sine"].step_at_bottom);
  EXPECT_FALSE(reached["slow_sine"].step_at_top);
}

// ---- Biopotential codec -------------------------------------------------------------

TEST(BioCodec, LosslessRoundTrip) {
  sim::Rng rng(9);
  std::vector<std::int16_t> samples(2000);
  std::int16_t v = 0;
  for (auto& s : samples) {
    v = static_cast<std::int16_t>(v + rng.uniform_int(-50, 50));
    s = v;
  }
  for (const bool huff : {false, true}) {
    BioCodec codec(huff);
    EXPECT_EQ(codec.decode(codec.encode(samples)), samples);
  }
}

TEST(BioCodec, CompressesSmoothSignals) {
  // Slow ramp: deltas fit one varint byte -> ~2x before Huffman.
  std::vector<std::int16_t> samples(4000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<std::int16_t>(1000.0 + 500.0 * std::sin(i * 0.01));
  }
  BioCodec plain(false);
  EXPECT_GT(plain.compression_ratio(samples), 1.8);
  BioCodec huff(true);
  EXPECT_GT(huff.compression_ratio(samples), plain.compression_ratio(samples));
}

TEST(BioCodec, HandlesExtremes) {
  std::vector<std::int16_t> samples = {32767, -32768, 0, 32767, -32768};
  BioCodec codec(false);
  EXPECT_EQ(codec.decode(codec.encode(samples)), samples);
}

TEST(BioCodec, EmptyStream) {
  BioCodec codec(false);
  EXPECT_TRUE(codec.decode(codec.encode({})).empty());
}

/// A plain (non-Huffman) BioCodec stream carrying `deltas` verbatim as
/// zig-zag varints, bypassing the encoder's int16 inputs.
BioEncoded bio_stream(const std::vector<std::int32_t>& deltas) {
  BioEncoded enc;
  enc.sample_count = deltas.size();
  for (const std::int32_t d : deltas) {
    std::uint32_t u = (static_cast<std::uint32_t>(d) << 1) ^ static_cast<std::uint32_t>(d >> 31);
    for (; u >= 0x80; u >>= 7) enc.payload.push_back(static_cast<std::uint8_t>(u | 0x80));
    enc.payload.push_back(static_cast<std::uint8_t>(u));
  }
  return enc;
}

TEST(BioCodec, DecodeRejectsSamplesOutsideInt16) {
  const BioCodec codec(false);
  // The full int16 swing still decodes.
  EXPECT_EQ(codec.decode(bio_stream({32767, -65535, 65535})),
            (std::vector<std::int16_t>{32767, -32768, 32767}));
  EXPECT_THROW(static_cast<void>(codec.decode(bio_stream({32768}))), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(codec.decode(bio_stream({-32767, -2}))), std::invalid_argument);
  // Deltas of +-2^30 would overflow an int32 running sum by the second one.
  for (const std::int32_t d : {1 << 30, -(1 << 30)}) {
    EXPECT_THROW(static_cast<void>(codec.decode(bio_stream({d, d, d}))), std::invalid_argument)
        << d;
  }
}

TEST(BioCodec, DecodeRejectsOverlongVarints) {
  const BioCodec codec(false);
  BioEncoded enc;
  enc.sample_count = 1;
  // Zig-zag 2^32 - 1 (delta INT32_MIN) is the largest value a varint holds.
  enc.payload = {0xff, 0xff, 0xff, 0xff, 0x0f};
  EXPECT_THROW(static_cast<void>(codec.decode(enc)), std::invalid_argument);  // leaves int16
  // A fifth byte with bits above 31 (here 2^32, which would wrap to 0) or a
  // sixth byte is malformed.
  for (const std::uint8_t last : {0x10, 0x8f}) {
    enc.payload = {0x80, 0x80, 0x80, 0x80, last, 0x00};
    EXPECT_THROW(static_cast<void>(codec.decode(enc)), std::invalid_argument) << int{last};
  }
}

TEST(BioCodec, DecodeRejectsSampleCountBeyondThePayload) {
  // Each sample takes at least one varint byte, so a larger count is forged
  // and must be rejected before it sizes the output buffer.
  for (const bool huff : {false, true}) {
    const BioCodec codec(huff);
    BioEncoded enc = codec.encode(std::vector<std::int16_t>(9, 7));  // 9 one-byte varints
    enc.sample_count = 10;
    EXPECT_THROW(static_cast<void>(codec.decode(enc)), std::invalid_argument) << huff;
    enc.sample_count = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(static_cast<void>(codec.decode(enc)), std::invalid_argument) << huff;
  }
}

TEST(BioCodec, DecodeRejectsHuffmanCountBeyondTheBitstream) {
  // Every live Huffman code is at least one bit long, so a header count
  // above 8 bits per payload byte cannot be honest.
  const BioCodec codec(true);
  BioEncoded enc = codec.encode(std::vector<std::int16_t>(64, 7));
  ASSERT_GT(enc.payload.size(), 260u);
  const std::size_t forged = 8 * (enc.payload.size() - 260) + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    enc.payload[256 + i] = static_cast<std::uint8_t>((forged >> (8 * i)) & 0xff);
  }
  EXPECT_THROW(static_cast<void>(codec.decode(enc)), std::invalid_argument);
}

// ---- FFT ------------------------------------------------------------------------------

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(8, Complex(0, 0));
  x[0] = Complex(1, 0);
  fft(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(Fft, InverseRoundTrip) {
  sim::Rng rng(10);
  std::vector<Complex> x(64);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const auto original = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  sim::Rng rng(11);
  std::vector<Complex> x(128);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), 0.0);
  double e_time = 0.0;
  for (const auto& v : x) e_time += std::norm(v);
  fft(x);
  double e_freq = 0.0;
  for (const auto& v : x) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq / static_cast<double>(x.size()), e_time, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> x(12);
  EXPECT_THROW(fft(x), std::invalid_argument);
  EXPECT_EQ(next_pow2(12), 16u);
  EXPECT_EQ(next_pow2(16), 16u);
}

// ---- Features ---------------------------------------------------------------------------

TEST(Features, MelScaleRoundTrip) {
  for (const double hz : {100.0, 1000.0, 4000.0}) {
    EXPECT_NEAR(mel_to_hz(hz_to_mel(hz)), hz, 1e-6);
  }
  // Mel is compressive: octaves above 1 kHz add less than proportional mel.
  EXPECT_LT(hz_to_mel(8000.0) / hz_to_mel(1000.0), 8.0);
}

TEST(Features, LogMelRespondsToToneLocation) {
  MelConfig cfg;
  // A 500 Hz tone must put more energy in low-mel bands than a 4 kHz tone.
  auto make_tone = [&](double f) {
    std::vector<float> frame(cfg.frame_len);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<float>(std::sin(2.0 * M_PI * f * static_cast<double>(i) /
                                             cfg.sample_rate_hz));
    }
    return frame;
  };
  const auto low = log_mel_energies(make_tone(500.0), cfg);
  const auto high = log_mel_energies(make_tone(4000.0), cfg);
  std::size_t low_peak = 0, high_peak = 0;
  for (std::size_t i = 0; i < cfg.n_mels; ++i) {
    if (low[i] > low[low_peak]) low_peak = i;
    if (high[i] > high[high_peak]) high_peak = i;
  }
  EXPECT_LT(low_peak, high_peak);
}

TEST(Features, MfccShapes) {
  MelConfig cfg;
  std::vector<float> frame(cfg.frame_len, 0.1f);
  EXPECT_EQ(mfcc_frame(frame, cfg).size(), cfg.n_mfcc);
}

TEST(Features, MfccIsOrthonormalDctOfLogMel) {
  MelConfig cfg;
  cfg.n_mfcc = cfg.n_mels;  // keep every DCT row
  std::vector<float> frame(cfg.frame_len);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<float>(std::sin(0.3 * static_cast<double>(i)) + 0.2);
  }
  const auto mel = log_mel_energies(frame, cfg);
  const auto c = mfcc_frame(frame, cfg);
  // DC term: sqrt(1/n) * sum of the log-mel energies.
  const double sum = std::accumulate(mel.begin(), mel.end(), 0.0);
  EXPECT_NEAR(c[0], std::sqrt(1.0 / static_cast<double>(cfg.n_mels)) * sum, 1e-3);
  // Energy preserved.
  const double em = std::inner_product(mel.begin(), mel.end(), mel.begin(), 0.0);
  const double ec = std::inner_product(c.begin(), c.end(), c.begin(), 0.0);
  EXPECT_NEAR(em, ec, 1e-4 * em);
}

TEST(Features, SpectrogramMatchesKwsInput) {
  MelConfig cfg;
  const std::size_t frames = 49;
  std::vector<float> signal(cfg.frame_len + (frames - 1) * cfg.hop, 0.0f);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<float>(std::sin(i * 0.05));
  }
  const nn::Tensor spec = mfcc_spectrogram(signal, cfg, frames);
  EXPECT_EQ(spec.shape(), (nn::Shape{49, 10, 1}));
  EXPECT_THROW(mfcc_spectrogram(std::vector<float>(10, 0.0f), cfg, frames),
               std::invalid_argument);
}

// ---- Bit-identity oracle ------------------------------------------------------------------
//
// The MFCC front-end's dense per-frame definition: a Hann window computed
// per sample, a triangular filterbank over every bin, the full DCT-II of
// which n_mfcc rows are kept, and an FFT whose twiddles come from the
// `w *= wlen` recurrence inside each block. The library's planned path
// must reproduce it bit for bit on finite input.

void reference_fft(std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& v : x) v /= static_cast<double>(n);
  }
}

std::vector<float> reference_log_mel(const std::vector<float>& frame, const MelConfig& cfg) {
  std::vector<Complex> c(next_pow2(frame.size()), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const double w =
        0.5 - 0.5 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                             static_cast<double>(frame.size() - 1));
    c[i] = Complex(static_cast<float>(frame[i] * w), 0.0);
  }
  reference_fft(c, false);
  std::vector<double> mag(c.size() / 2 + 1);
  for (std::size_t i = 0; i < mag.size(); ++i) mag[i] = std::abs(c[i]);
  const double bin_hz = cfg.sample_rate_hz / static_cast<double>((mag.size() - 1) * 2);

  const double mel_lo = hz_to_mel(cfg.fmin_hz), mel_hi = hz_to_mel(cfg.fmax_hz);
  std::vector<double> edges(cfg.n_mels + 2);
  for (std::size_t m = 0; m < edges.size(); ++m) {
    edges[m] = mel_to_hz(mel_lo + (mel_hi - mel_lo) * static_cast<double>(m) /
                                      static_cast<double>(cfg.n_mels + 1));
  }
  std::vector<float> energies(cfg.n_mels, 0.0f);
  for (std::size_t m = 0; m < cfg.n_mels; ++m) {
    const double left = edges[m], center = edges[m + 1], right = edges[m + 2];
    double acc = 0.0;
    for (std::size_t b = 0; b < mag.size(); ++b) {
      const double f = static_cast<double>(b) * bin_hz;
      double weight = 0.0;
      if (f > left && f < center) {
        weight = (f - left) / (center - left);
      } else if (f >= center && f < right) {
        weight = (right - f) / (right - center);
      }
      acc += weight * mag[b] * mag[b];
    }
    energies[m] = static_cast<float>(std::log(acc + 1e-10));
  }
  return energies;
}

/// Orthonormal DCT-II, all n coefficients, O(n^2).
std::vector<float> reference_dct2(const std::vector<float>& x) {
  const std::size_t n = x.size();
  std::vector<float> out(n, 0.0f);
  for (std::size_t k = 0; k < n; ++k) {
    const double s = k == 0 ? std::sqrt(1.0 / static_cast<double>(n))
                            : std::sqrt(2.0 / static_cast<double>(n));
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * std::cos(M_PI * (2.0 * static_cast<double>(i) + 1.0) * static_cast<double>(k) /
                             (2.0 * static_cast<double>(n)));
    }
    out[k] = static_cast<float>(s * acc);
  }
  return out;
}

std::vector<float> reference_mfcc_frame(const std::vector<float>& frame, const MelConfig& cfg) {
  const std::vector<float> coeffs = reference_dct2(reference_log_mel(frame, cfg));
  return std::vector<float>(coeffs.begin(), coeffs.begin() + static_cast<long>(cfg.n_mfcc));
}

/// [n_frames * n_mfcc] row-major, the layout of `mfcc_spectrogram`'s tensor.
std::vector<float> reference_mfcc_spectrogram(const std::vector<float>& signal,
                                              const MelConfig& cfg, std::size_t n_frames) {
  std::vector<float> out;
  for (std::size_t t = 0; t < n_frames; ++t) {
    const auto first = signal.begin() + static_cast<long>(t * cfg.hop);
    const auto coeffs = reference_mfcc_frame(
        std::vector<float>(first, first + static_cast<long>(cfg.frame_len)), cfg);
    out.insert(out.end(), coeffs.begin(), coeffs.end());
  }
  return out;
}

template <typename T>
bool same_bits(const T* a, const T* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

constexpr std::size_t kOracleFrames = 49;

/// Sine, silence, seeded noise, a clipped full-scale square wave and an
/// ADPCM-decoded synthetic audio window, each long enough for 49 frames.
std::vector<std::pair<std::string, std::vector<float>>> oracle_signals(const MelConfig& cfg) {
  const std::size_t len = cfg.frame_len + (kOracleFrames - 1) * cfg.hop;
  std::vector<std::pair<std::string, std::vector<float>>> out;
  std::vector<float> x(len);
  for (std::size_t i = 0; i < len; ++i) {
    x[i] = static_cast<float>(0.6 * std::sin(2.0 * M_PI * 440.0 * static_cast<double>(i) /
                                             cfg.sample_rate_hz));
  }
  out.emplace_back("sine", x);
  out.emplace_back("silence", std::vector<float>(len, 0.0f));
  sim::Rng rng(31);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  out.emplace_back("noise", x);
  for (std::size_t i = 0; i < len; ++i) {
    const double s = 4.0 * std::sin(2.0 * M_PI * 250.0 * static_cast<double>(i) /
                                    cfg.sample_rate_hz);
    x[i] = static_cast<float>(std::clamp(s, -1.0, 1.0));
  }
  out.emplace_back("square", x);
  sim::Rng audio_rng(32);
  const auto pcm = AdpcmCodec::decode(
      AdpcmCodec::encode(workload::AudioGenerator().generate_pcm(1.0, audio_rng)));
  std::vector<float> audio(pcm.size());
  for (std::size_t i = 0; i < pcm.size(); ++i) audio[i] = static_cast<float>(pcm[i]) / 32768.0f;
  out.emplace_back("adpcm_audio", audio);
  return out;
}

/// The default front-end and one whose 400-sample frames zero-pad to the
/// 512-point FFT.
std::vector<MelConfig> oracle_configs() {
  MelConfig padded;
  padded.frame_len = 400;
  padded.n_mels = 32;
  return {MelConfig{}, padded};
}

/// Restores full kernel dispatch when a tier sweep ends, even on failure.
struct DispatchCapGuard {
  DispatchCapGuard() = default;
  DispatchCapGuard(const DispatchCapGuard&) = delete;
  DispatchCapGuard& operator=(const DispatchCapGuard&) = delete;
  ~DispatchCapGuard() { nn::set_kernel_dispatch_cap(-1); }
};

TEST(FeaturesOracle, SpectrogramBitIdenticalToSeedLoops) {
  // Every dispatch tier (scalar, 4 and 8 frames per lane pass, auto), at
  // frame counts around each lane block size so every remainder runs.
  const DispatchCapGuard guard;
  for (const MelConfig& cfg : oracle_configs()) {
    for (const auto& [name, signal] : oracle_signals(cfg)) {
      const std::vector<float> want = reference_mfcc_spectrogram(signal, cfg, kOracleFrames);
      for (const int cap : {0, 1, 2, -1}) {
        nn::set_kernel_dispatch_cap(cap);
        for (const std::size_t frames : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 17u, 49u}) {
          const nn::Tensor spec = mfcc_spectrogram(signal, cfg, frames);
          ASSERT_EQ(static_cast<std::size_t>(spec.size()), frames * cfg.n_mfcc) << name;
          EXPECT_TRUE(same_bits(spec.data(), want.data(), frames * cfg.n_mfcc))
              << name << " frame_len=" << cfg.frame_len << " cap=" << cap << " frames=" << frames;
        }
      }
    }
  }
}

TEST(FeaturesOracle, LaneFftBitIdenticalToExecute) {
  // The lane transform against FftPlan::execute on each lane's signal, at
  // every size and at each lane width this host can run.
  sim::Rng rng(34);
  const int tier = nn::kernel_dispatch_tier();
  for (const std::size_t lanes : {4u, 8u}) {
    if (tier < (lanes == 4 ? 1 : 2)) continue;
    for (std::size_t n = 1; n <= 1024; n <<= 1) {
      const FftPlan plan(n, false);
      std::vector<Complex> x(n * lanes);
      for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
      std::vector<double> re(n * lanes), im(n * lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          re[i * lanes + l] = x[l * n + i].real();
          im[i * lanes + l] = x[l * n + i].imag();
        }
        plan.execute(x.data() + l * n);
      }
      plan.execute_lanes(re.data(), im.data(), lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          const double got[2] = {re[i * lanes + l], im[i * lanes + l]};
          EXPECT_TRUE(same_bits(got, reinterpret_cast<const double*>(&x[l * n + i]), 2))
              << "n=" << n << " lanes=" << lanes << " lane=" << l << " i=" << i;
        }
      }
    }
  }
  EXPECT_THROW(FftPlan(8, false).execute_lanes(nullptr, nullptr, 2), std::invalid_argument);
  EXPECT_THROW(FftPlan(8, true).execute_lanes(nullptr, nullptr, 4), std::invalid_argument);
}

TEST(FeaturesOracle, FrameFunctionsBitIdenticalToSeedLoops) {
  const MelConfig cfg;
  for (const auto& [name, signal] : oracle_signals(cfg)) {
    for (std::size_t t = 0; t < kOracleFrames; ++t) {
      const auto first = signal.begin() + static_cast<long>(t * cfg.hop);
      const std::vector<float> frame(first, first + static_cast<long>(cfg.frame_len));
      const auto mel = log_mel_energies(frame, cfg);
      const auto want_mel = reference_log_mel(frame, cfg);
      ASSERT_EQ(mel.size(), want_mel.size());
      EXPECT_TRUE(same_bits(mel.data(), want_mel.data(), mel.size())) << name << " t=" << t;
      const auto mfcc = mfcc_frame(frame, cfg);
      const auto want_mfcc = reference_mfcc_frame(frame, cfg);
      ASSERT_EQ(mfcc.size(), want_mfcc.size());
      EXPECT_TRUE(same_bits(mfcc.data(), want_mfcc.data(), mfcc.size())) << name << " t=" << t;
    }
  }
}

TEST(FeaturesOracle, FftBitIdenticalToRecurrenceAtEverySize) {
  sim::Rng rng(33);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    for (const bool inverse : {false, true}) {
      std::vector<Complex> got = x, want = x;
      if (inverse) {
        ifft(got);
      } else {
        fft(got);
      }
      reference_fft(want, inverse);
      EXPECT_TRUE(same_bits(got.data(), want.data(), n)) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(Features, RejectsInvalidMelConfig) {
  const std::vector<float> signal(16000, 0.1f);
  const auto bad = [](auto edit) {
    MelConfig cfg;
    edit(cfg);
    return cfg;
  };
  // frame_len 1 would divide by frame_len - 1 = 0 in the Hann window.
  EXPECT_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.frame_len = 1; }), 1),
               std::invalid_argument);
  EXPECT_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.hop = 0; }), 1),
               std::invalid_argument);
  EXPECT_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.n_mfcc = 0; }), 1),
               std::invalid_argument);
  EXPECT_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.n_mfcc = c.n_mels + 1; }), 1),
               std::invalid_argument);
  // Bands above Nyquist would be empty and read log(1e-10).
  EXPECT_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.fmax_hz = 8000.5; }), 1),
               std::invalid_argument);
  EXPECT_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.fmin_hz = -1.0; }), 1),
               std::invalid_argument);
  // The frame functions validate the same config.
  const std::vector<float> frame(MelConfig{}.frame_len, 0.1f);
  EXPECT_THROW(log_mel_energies(frame, bad([](MelConfig& c) { c.fmin_hz = -1.0; })),
               std::invalid_argument);
  EXPECT_THROW(mfcc_frame(frame, bad([](MelConfig& c) { c.n_mfcc = 0; })),
               std::invalid_argument);
  // The defaults and the Nyquist limit itself stay valid.
  EXPECT_NO_THROW(mfcc_spectrogram(signal, bad([](MelConfig& c) { c.fmax_hz = 8000.0; }), 49));
}

TEST(Features, SpectrogramAllocationsDoNotGrowWithFrameCount) {
  const MelConfig cfg;
  const std::vector<float> signal(cfg.frame_len + (kOracleFrames - 1) * cfg.hop, 0.25f);
  const auto new_calls = [&](std::size_t frames) {
    const std::uint64_t before = alloc_interposer::new_calls.load();
    const nn::Tensor spec = mfcc_spectrogram(signal, cfg, frames);
    return alloc_interposer::new_calls.load() - before;
  };
  // The first call on a thread builds its plan; warm calls allocate only
  // the output tensor.
  static_cast<void>(new_calls(1));
  const std::uint64_t warm = new_calls(1);
  EXPECT_EQ(warm, new_calls(kOracleFrames));
  const std::uint64_t before = alloc_interposer::new_calls.load();
  const nn::Tensor out(nn::Shape{static_cast<int>(kOracleFrames), static_cast<int>(cfg.n_mfcc), 1});
  EXPECT_LE(warm, alloc_interposer::new_calls.load() - before);
}

TEST(Features, ConcurrentSpectrogramsMatchTheSerialOne) {
  // Wearer loops call the front-end from several threads at once. Each
  // thread keeps its own plan, keyed by the whole config: alternating two
  // configs on every thread rebuilds it each call and must not leak one
  // config's tables into the other's results.
  const std::vector<MelConfig> cfgs = oracle_configs();
  const std::vector<float> signal = oracle_signals(cfgs[0]).back().second;
  std::vector<nn::Tensor> serial;
  for (const MelConfig& cfg : cfgs) serial.push_back(mfcc_spectrogram(signal, cfg, kOracleFrames));
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<nn::Tensor>> results(4);
  std::vector<std::thread> threads;
  for (std::vector<nn::Tensor>& r : results) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kRounds * cfgs.size(); ++i) {
        r.push_back(mfcc_spectrogram(signal, cfgs[i % cfgs.size()], kOracleFrames));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<nn::Tensor>& r : results) {
    ASSERT_EQ(r.size(), kRounds * cfgs.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      const nn::Tensor& want = serial[i % cfgs.size()];
      ASSERT_EQ(r[i].size(), want.size());
      EXPECT_TRUE(same_bits(r[i].data(), want.data(), static_cast<std::size_t>(want.size())))
          << "call " << i;
    }
  }
}

// ---- Metrics ------------------------------------------------------------------------------

TEST(Metrics, PsnrIdenticalIsHuge) {
  const GrayFrame f = test_frame(16, 16, 12);
  EXPECT_GT(psnr_db(f, f), 100.0);
}

}  // namespace
}  // namespace iob::isa
