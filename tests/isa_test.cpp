// Unit + property tests for src/isa: bit I/O, Huffman optimality, DCT
// reconstruction, the MJPEG-style codec's rate/distortion behaviour, ADPCM,
// the lossless biopotential codec, FFT identities, and feature extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
#include "sim/rng.hpp"
#include "workload/audio.hpp"

namespace iob::isa {
namespace {

// ---- Bitstream -----------------------------------------------------------------

TEST(Bitstream, RoundTripMixedWidths) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xdead, 16);
  w.write(1, 1);
  w.write(0x123456789abcdefULL, 57);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(16), 0xdeadu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(57), 0x123456789abcdefULL);
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
  BitReader r(bytes);
  r.read(8);
  EXPECT_THROW(r.read(1), std::out_of_range);
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
  BitReader r(bytes);
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
  BitReader r(bytes);
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
  BitReader r(bytes);
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

TEST(Adpcm, TracksStepChanges) {
  // Loud tone after silence: the adaptive step must catch up.
  auto pcm = tone(200.0, 16000.0, 0.1, 0.02);
  const auto loud = tone(200.0, 16000.0, 0.1, 0.9);
  pcm.insert(pcm.end(), loud.begin(), loud.end());
  EXPECT_GT(AdpcmCodec::reconstruction_snr_db(pcm), 15.0);
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

TEST(Features, TimeFeaturesOnKnownSignals) {
  // Constant signal: rms == value, no crossings.
  const std::vector<float> constant(100, 2.0f);
  const auto fc = time_features(constant);
  EXPECT_NEAR(fc.rms, 2.0, 1e-6);
  EXPECT_FLOAT_EQ(fc.zero_cross_rate, 0.0f);
  EXPECT_NEAR(fc.peak, 2.0, 1e-6);

  // Alternating signal: crossing on every sample.
  std::vector<float> alt(100);
  for (std::size_t i = 0; i < alt.size(); ++i) alt[i] = (i % 2 == 0) ? 1.0f : -1.0f;
  EXPECT_NEAR(time_features(alt).zero_cross_rate, 1.0, 0.02);
}

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

TEST(FeaturesOracle, SpectrogramBitIdenticalToSeedLoops) {
  const MelConfig cfg;
  for (const auto& [name, signal] : oracle_signals(cfg)) {
    const nn::Tensor spec = mfcc_spectrogram(signal, cfg, kOracleFrames);
    const std::vector<float> want = reference_mfcc_spectrogram(signal, cfg, kOracleFrames);
    ASSERT_EQ(static_cast<std::size_t>(spec.size()), want.size()) << name;
    EXPECT_TRUE(same_bits(spec.data(), want.data(), want.size())) << name;
  }
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
  EXPECT_EQ(new_calls(1), new_calls(kOracleFrames));
}

TEST(Features, ConcurrentSpectrogramsMatchTheSerialOne) {
  // Wearer loops call the front-end from several threads at once; every
  // call owns its plan, so concurrent results equal the serial one.
  const MelConfig cfg;
  const std::vector<float> signal = oracle_signals(cfg).back().second;
  const nn::Tensor serial = mfcc_spectrogram(signal, cfg, kOracleFrames);
  std::vector<nn::Tensor> results(4);
  std::vector<std::thread> threads;
  for (nn::Tensor& r : results) {
    threads.emplace_back([&] { r = mfcc_spectrogram(signal, cfg, kOracleFrames); });
  }
  for (std::thread& t : threads) t.join();
  for (const nn::Tensor& r : results) {
    ASSERT_EQ(r.size(), serial.size());
    EXPECT_TRUE(same_bits(r.data(), serial.data(), static_cast<std::size_t>(serial.size())));
  }
}

// ---- Metrics ------------------------------------------------------------------------------

TEST(Metrics, PsnrIdenticalIsHuge) {
  const GrayFrame f = test_frame(16, 16, 12);
  EXPECT_GT(psnr_db(f, f), 100.0);
}

TEST(Metrics, CompressionRatioMath) {
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 100), 10.0);
  EXPECT_THROW(compression_ratio(10, 0), std::invalid_argument);
}

}  // namespace
}  // namespace iob::isa
