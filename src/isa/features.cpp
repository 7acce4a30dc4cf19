#include "isa/features.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "isa/fft.hpp"

namespace iob::isa {

WindowFeatures time_features(const std::vector<float>& window) {
  IOB_EXPECTS(!window.empty(), "window must be non-empty");
  WindowFeatures f;
  double acc = 0.0;
  std::size_t crossings = 0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    acc += static_cast<double>(window[i]) * window[i];
    f.peak = std::max(f.peak, std::fabs(window[i]));
    if (i > 0 && ((window[i - 1] < 0.0f) != (window[i] < 0.0f))) ++crossings;
  }
  f.rms = static_cast<float>(std::sqrt(acc / static_cast<double>(window.size())));
  f.zero_cross_rate = static_cast<float>(crossings) / static_cast<float>(window.size());
  return f;
}

double hz_to_mel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }
double mel_to_hz(double mel) { return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0); }

namespace {

const MelConfig& validated(const MelConfig& cfg) {
  IOB_EXPECTS(cfg.frame_len >= 2, "frame_len must be at least 2");
  IOB_EXPECTS(cfg.hop >= 1, "hop must be at least 1");
  IOB_EXPECTS(cfg.n_mels >= 2, "need at least two mel bands");
  IOB_EXPECTS(cfg.n_mfcc >= 1 && cfg.n_mfcc <= cfg.n_mels, "n_mfcc must be in [1, n_mels]");
  IOB_EXPECTS(cfg.fmin_hz >= 0.0, "fmin must be non-negative");
  IOB_EXPECTS(cfg.fmax_hz > cfg.fmin_hz, "fmax must exceed fmin");
  IOB_EXPECTS(cfg.fmax_hz <= cfg.sample_rate_hz / 2.0, "fmax must not exceed Nyquist");
  return cfg;
}

/// Everything a frame's features need that does not depend on the frame,
/// built once per call: the Hann window, each mel band's span of non-zero
/// weights, the n_mfcc kept rows of the orthonormal DCT-II, an FFT plan and
/// the frame buffers. Every table entry is the double expression the dense
/// definition evaluates per frame, and a bin outside a band's span has
/// weight 0 and would add exactly +0.0, so on finite input the features are
/// bit-identical to it (tests/isa_test.cpp keeps it as an oracle).
struct MelPlan {
  explicit MelPlan(const MelConfig& cfg)
      : fft_plan(next_pow2(validated(cfg).frame_len), false), hann(cfg.frame_len),
        spec(fft_plan.size()), mag(fft_plan.size() / 2 + 1), mel(cfg.n_mels) {
    for (std::size_t i = 0; i < hann.size(); ++i) {
      hann[i] = 0.5 - 0.5 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                                     static_cast<double>(cfg.frame_len - 1));
    }
    const double bin_hz = cfg.sample_rate_hz / static_cast<double>(fft_plan.size());
    const double mel_lo = hz_to_mel(cfg.fmin_hz), mel_hi = hz_to_mel(cfg.fmax_hz);
    std::vector<double> edges(cfg.n_mels + 2);
    for (std::size_t m = 0; m < edges.size(); ++m) {
      edges[m] = mel_to_hz(mel_lo + (mel_hi - mel_lo) * static_cast<double>(m) /
                                        static_cast<double>(cfg.n_mels + 1));
    }
    // A triangle's weight is non-zero exactly where left < f < right: one run of bins.
    for (std::size_t m = 0; m < cfg.n_mels; ++m) {
      const double left = edges[m], center = edges[m + 1], right = edges[m + 2];
      first_bin.push_back(mag.size());
      offset.push_back(weights.size());
      for (std::size_t b = 0; b < mag.size(); ++b) {
        const double f = static_cast<double>(b) * bin_hz;
        if (f <= left || f >= right) continue;
        first_bin.back() = std::min(first_bin.back(), b);
        weights.push_back(f < center ? (f - left) / (center - left)
                                     : (right - f) / (right - center));
      }
    }
    offset.push_back(weights.size());
    const auto n = static_cast<double>(cfg.n_mels);
    for (std::size_t k = 0; k < cfg.n_mfcc; ++k) {
      dct_scale.push_back(k == 0 ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n));
      for (std::size_t i = 0; i < cfg.n_mels; ++i) {
        dct.push_back(std::cos(M_PI * (2.0 * static_cast<double>(i) + 1.0) *
                               static_cast<double>(k) / (2.0 * n)));
      }
    }
  }

  /// Log-mel energies of frame[0, frame_len) into `mel`.
  void log_mel(const float* frame) {
    for (std::size_t i = 0; i < hann.size(); ++i) {
      spec[i] = Complex(static_cast<float>(frame[i] * hann[i]), 0.0);
    }
    std::fill(spec.begin() + static_cast<long>(hann.size()), spec.end(), Complex(0.0, 0.0));
    fft_plan.execute(spec.data());
    for (std::size_t b = 0; b < mag.size(); ++b) mag[b] = std::abs(spec[b]);
    for (std::size_t m = 0; m < mel.size(); ++m) {
      const double* bin = mag.data() + first_bin[m];
      double acc = 0.0;
      for (std::size_t j = offset[m]; j < offset[m + 1]; ++j, ++bin) {
        acc += weights[j] * *bin * *bin;
      }
      mel[m] = static_cast<float>(std::log(acc + 1e-10));
    }
  }

  /// MFCCs of frame[0, frame_len) into out[0, n_mfcc).
  void mfcc(const float* frame, float* out) {
    log_mel(frame);
    for (std::size_t k = 0; k < dct_scale.size(); ++k) {
      const double* row = dct.data() + k * mel.size();
      double acc = 0.0;
      for (std::size_t i = 0; i < mel.size(); ++i) acc += mel[i] * row[i];
      out[k] = static_cast<float>(dct_scale[k] * acc);
    }
  }

  FftPlan fft_plan;
  std::vector<double> hann;
  std::vector<std::size_t> first_bin, offset;  ///< band m: weights[offset[m], offset[m + 1])
  std::vector<double> weights, dct, dct_scale;  ///< dct: n_mfcc x n_mels cosine rows
  std::vector<Complex> spec;
  std::vector<double> mag;
  std::vector<float> mel;
};

}  // namespace

std::vector<float> log_mel_energies(const std::vector<float>& frame, const MelConfig& cfg) {
  MelPlan plan(cfg);
  IOB_EXPECTS(frame.size() == cfg.frame_len, "frame length mismatch");
  plan.log_mel(frame.data());
  return plan.mel;
}

std::vector<float> mfcc_frame(const std::vector<float>& frame, const MelConfig& cfg) {
  MelPlan plan(cfg);
  IOB_EXPECTS(frame.size() == cfg.frame_len, "frame length mismatch");
  std::vector<float> out(cfg.n_mfcc);
  plan.mfcc(frame.data(), out.data());
  return out;
}

nn::Tensor mfcc_spectrogram(const std::vector<float>& signal, const MelConfig& cfg,
                            std::size_t n_frames) {
  MelPlan plan(cfg);
  IOB_EXPECTS(n_frames >= 1, "need at least one frame");
  IOB_EXPECTS(signal.size() >= cfg.frame_len + (n_frames - 1) * cfg.hop,
              "signal too short for requested frame count");

  nn::Tensor out(nn::Shape{static_cast<int>(n_frames), static_cast<int>(cfg.n_mfcc), 1});
  for (std::size_t t = 0; t < n_frames; ++t) {
    plan.mfcc(signal.data() + t * cfg.hop, out.data() + t * cfg.n_mfcc);
  }
  return out;
}

}  // namespace iob::isa
