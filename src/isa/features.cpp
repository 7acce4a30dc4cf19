#include "isa/features.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

// Lane-batched MFCC at the AVX2/AVX-512 tiers src/nn dispatches to. Every
// lane keeps the scalar path's separately rounded multiplies and adds (the
// build compiles with -ffp-contract=off and no FMA intrinsic is used).
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define IOB_MFCC_LANES 1
#include <immintrin.h>
#endif

#include "common/expect.hpp"
#include "isa/fft.hpp"
#include "nn/gemm.hpp"

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

/// Everything a frame's features need that does not depend on the frame:
/// the Hann window, each mel band's span of non-zero weights, the n_mfcc
/// kept rows of the orthonormal DCT-II, an FFT plan and the frame buffers.
/// Every table entry is the double expression the dense definition
/// evaluates per frame, and a bin outside a band's span has weight 0 and
/// would add exactly +0.0, so on finite input the features are
/// bit-identical to it (tests/isa_test.cpp keeps it as an oracle).
///
/// It also owns the lane buffers of `mfcc_lanes`, which runs up to
/// kMaxLanes frames side by side, one per vector lane. Each lane repeats
/// `mfcc`'s expressions in `mfcc`'s order, so it gets `mfcc`'s bits.
struct MelPlan {
  static constexpr std::size_t kMaxLanes = 8;

  explicit MelPlan(const MelConfig& c)
      : cfg(validated(c)), fft_plan(next_pow2(cfg.frame_len), false), hann(cfg.frame_len),
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
    bin_lo = mag.size();
    for (std::size_t m = 0; m < cfg.n_mels; ++m) {
      const double left = edges[m], center = edges[m + 1], right = edges[m + 2];
      first_bin.push_back(mag.size());
      offset.push_back(weights.size());
      for (std::size_t b = 0; b < mag.size(); ++b) {
        const double f = static_cast<double>(b) * bin_hz;
        if (f <= left || f >= right) continue;
        first_bin.back() = std::min(first_bin.back(), b);
        bin_lo = std::min(bin_lo, b);
        bin_hi = std::max(bin_hi, b + 1);
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
    // Lane-major re | im | mag | mel | dct sums, 64-byte aligned.
    lane_store.resize((2 * spec.size() + mag.size() + mel.size() + cfg.n_mfcc) * kMaxLanes + 8);
    const auto addr = reinterpret_cast<std::uintptr_t>(lane_store.data());
    lane_re = lane_store.data() + ((64 - addr % 64) % 64) / sizeof(double);
    lane_im = lane_re + spec.size() * kMaxLanes;
    lane_mag = lane_im + spec.size() * kMaxLanes;
    lane_mel = lane_mag + mag.size() * kMaxLanes;
    lane_dct = lane_mel + mel.size() * kMaxLanes;
  }
  MelPlan(const MelPlan&) = delete;
  MelPlan& operator=(const MelPlan&) = delete;

  /// Log-mel energies of frame[0, frame_len) into `mel`.
  void log_mel(const float* frame) {
    for (std::size_t i = 0; i < hann.size(); ++i) {
      spec[i] = Complex(static_cast<float>(frame[i] * hann[i]), 0.0);
    }
    std::fill(spec.begin() + static_cast<long>(hann.size()), spec.end(), Complex(0.0, 0.0));
    fft_plan.execute(spec.data());
    for (std::size_t b = bin_lo; b < bin_hi; ++b) mag[b] = std::abs(spec[b]);
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

  /// `mfcc` of `lanes` (4 or 8) frames at once, frame l starting at
  /// first + l * hop and writing out[l * n_mfcc, (l + 1) * n_mfcc). The
  /// FFT, mel and DCT sums run in vector lanes; |X| (glibc hypot through
  /// std::abs) and log stay the scalar calls, one per bin or band per lane.
  void mfcc_lanes(const float* first, std::size_t hop, std::size_t lanes, float* out);

  MelConfig cfg;
  FftPlan fft_plan;
  std::vector<double> hann;
  std::vector<std::size_t> first_bin, offset;  ///< band m: weights[offset[m], offset[m + 1])
  std::size_t bin_lo = 0, bin_hi = 0;          ///< the bins some band reads
  std::vector<double> weights, dct, dct_scale;  ///< dct: n_mfcc x n_mels cosine rows
  std::vector<Complex> spec;
  std::vector<double> mag;
  std::vector<float> mel;
  std::vector<double> lane_store;
  double *lane_re, *lane_im, *lane_mag, *lane_mel, *lane_dct;
};

#if IOB_MFCC_LANES
// From the lane magnitudes to the lane DCT sums: mel sums acc + (w |X|) |X|,
// the scalar log rounded to float, then DCT sums acc + mel row, each in the
// scalar loops' order with every product and sum rounded separately.

__attribute__((target("avx2"))) void mel_dct_avx2(MelPlan& p) {
  for (std::size_t m = 0; m < p.mel.size(); ++m) {
    const double* x = p.lane_mag + p.first_bin[m] * 4;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = p.offset[m]; j < p.offset[m + 1]; ++j, x += 4) {
      const __m256d v = _mm256_loadu_pd(x);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(p.weights[j]), v), v));
    }
    _mm256_storeu_pd(p.lane_mel + m * 4, acc);
  }
  for (std::size_t i = 0; i < p.mel.size() * 4; ++i) {
    p.lane_mel[i] = static_cast<float>(std::log(p.lane_mel[i] + 1e-10));
  }
  for (std::size_t k = 0; k < p.dct_scale.size(); ++k) {
    const double* row = p.dct.data() + k * p.mel.size();
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < p.mel.size(); ++i) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(p.lane_mel + i * 4),
                                             _mm256_set1_pd(row[i])));
    }
    _mm256_storeu_pd(p.lane_dct + k * 4, acc);
  }
}

__attribute__((target("avx2,avx512f"))) void mel_dct_avx512(MelPlan& p) {
  for (std::size_t m = 0; m < p.mel.size(); ++m) {
    const double* x = p.lane_mag + p.first_bin[m] * 8;
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = p.offset[m]; j < p.offset[m + 1]; ++j, x += 8) {
      const __m512d v = _mm512_loadu_pd(x);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(p.weights[j]), v), v));
    }
    _mm512_storeu_pd(p.lane_mel + m * 8, acc);
  }
  for (std::size_t i = 0; i < p.mel.size() * 8; ++i) {
    p.lane_mel[i] = static_cast<float>(std::log(p.lane_mel[i] + 1e-10));
  }
  for (std::size_t k = 0; k < p.dct_scale.size(); ++k) {
    const double* row = p.dct.data() + k * p.mel.size();
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t i = 0; i < p.mel.size(); ++i) {
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_loadu_pd(p.lane_mel + i * 8),
                                             _mm512_set1_pd(row[i])));
    }
    _mm512_storeu_pd(p.lane_dct + k * 8, acc);
  }
}
#endif

void MelPlan::mfcc_lanes(const float* first, std::size_t hop, std::size_t lanes, float* out) {
#if IOB_MFCC_LANES
  const std::size_t n = spec.size(), L = lanes;
  for (std::size_t i = 0; i < hann.size(); ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      lane_re[i * L + l] = static_cast<float>(first[l * hop + i] * hann[i]);
    }
  }
  std::fill(lane_re + hann.size() * L, lane_re + n * L, 0.0);
  std::fill(lane_im, lane_im + n * L, 0.0);
  fft_plan.execute_lanes(lane_re, lane_im, L);
  for (std::size_t i = bin_lo * L; i < bin_hi * L; ++i) {
    lane_mag[i] = std::abs(Complex(lane_re[i], lane_im[i]));
  }
  if (L == 8) {
    mel_dct_avx512(*this);
  } else {
    mel_dct_avx2(*this);
  }
  for (std::size_t k = 0; k < dct_scale.size(); ++k) {
    for (std::size_t l = 0; l < L; ++l) {
      out[l * dct_scale.size() + k] = static_cast<float>(dct_scale[k] * lane_dct[k * L + l]);
    }
  }
#else
  IOB_EXPECTS(false, "lane MFCC needs an x86-64 build");
  static_cast<void>(first), static_cast<void>(hop);
  static_cast<void>(lanes), static_cast<void>(out);
#endif
}

bool same_config(const MelConfig& a, const MelConfig& b) {
  return a.sample_rate_hz == b.sample_rate_hz && a.frame_len == b.frame_len && a.hop == b.hop &&
         a.n_mels == b.n_mels && a.n_mfcc == b.n_mfcc && a.fmin_hz == b.fmin_hz &&
         a.fmax_hz == b.fmax_hz;
}

/// The calling thread's plan for `cfg`, rebuilt only when the config
/// differs from the last call's. Per thread, so the extractors stay
/// safe to call concurrently.
MelPlan& thread_plan(const MelConfig& cfg) {
  thread_local std::unique_ptr<MelPlan> plan;
  if (!plan || !same_config(plan->cfg, cfg)) plan = std::make_unique<MelPlan>(cfg);
  return *plan;
}

/// Frames per lane pass at the current kernel dispatch tier; 1 = scalar.
/// The tier is 0 wherever the lane kernels are not compiled.
std::size_t mfcc_lane_count() {
  const int tier = nn::kernel_dispatch_tier();
  return tier >= 2 ? 8 : tier == 1 ? 4 : 1;
}

}  // namespace

std::vector<float> log_mel_energies(const std::vector<float>& frame, const MelConfig& cfg) {
  MelPlan& plan = thread_plan(cfg);
  IOB_EXPECTS(frame.size() == cfg.frame_len, "frame length mismatch");
  plan.log_mel(frame.data());
  return plan.mel;
}

std::vector<float> mfcc_frame(const std::vector<float>& frame, const MelConfig& cfg) {
  MelPlan& plan = thread_plan(cfg);
  IOB_EXPECTS(frame.size() == cfg.frame_len, "frame length mismatch");
  std::vector<float> out(cfg.n_mfcc);
  plan.mfcc(frame.data(), out.data());
  return out;
}

nn::Tensor mfcc_spectrogram(const std::vector<float>& signal, const MelConfig& cfg,
                            std::size_t n_frames) {
  MelPlan& plan = thread_plan(cfg);
  IOB_EXPECTS(n_frames >= 1, "need at least one frame");
  IOB_EXPECTS(signal.size() >= cfg.frame_len + (n_frames - 1) * cfg.hop,
              "signal too short for requested frame count");

  nn::Tensor out(nn::Shape{static_cast<int>(n_frames), static_cast<int>(cfg.n_mfcc), 1});
  // Full blocks of `lanes` frames run side by side; the rest run one by one.
  const std::size_t lanes = mfcc_lane_count();
  std::size_t t = 0;
  if (lanes > 1) {
    for (; t + lanes <= n_frames; t += lanes) {
      plan.mfcc_lanes(signal.data() + t * cfg.hop, cfg.hop, lanes, out.data() + t * cfg.n_mfcc);
    }
  }
  for (; t < n_frames; ++t) {
    plan.mfcc(signal.data() + t * cfg.hop, out.data() + t * cfg.n_mfcc);
  }
  return out;
}

}  // namespace iob::isa
