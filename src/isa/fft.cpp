#include "isa/fft.hpp"

#include <algorithm>
#include <cmath>

// The lane butterflies run at the AVX2/AVX-512 tiers src/nn dispatches to;
// like the nn kernels they keep each multiply and add separately rounded
// (the build compiles with -ffp-contract=off and no FMA intrinsic is used).
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define IOB_FFT_LANES 1
#include <immintrin.h>
#endif

#include "common/expect.hpp"

namespace iob::isa {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n, bool inverse) : n_(n), inverse_(inverse) {
  IOB_EXPECTS(n != 0 && (n & (n - 1)) == 0, "FFT size must be a power of two");
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
  }
  twiddles_.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(w);
      w *= wlen;
    }
  }
}

void FftPlan::execute(Complex* x) const {
  for (const auto& [i, j] : swaps_) std::swap(x[i], x[j]);
  const Complex* w = twiddles_.data();
  for (std::size_t half = 1; half < n_; w += half, half <<= 1) {
    for (std::size_t i = 0; i < n_; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + half] * w[k];
        x[i + k] = u + v;
        x[i + k + half] = u - v;
      }
    }
  }
  if (inverse_) {
    for (std::size_t i = 0; i < n_; ++i) x[i] /= static_cast<double>(n_);
  }
}

#if IOB_FFT_LANES
namespace {

// std::complex's x * w is (xr wr - xi wi, xr wi + xi wr); u +- v is per part.
__attribute__((target("avx2"))) void butterflies_avx2(double* re, double* im, std::size_t n,
                                                       const Complex* w) {
  for (std::size_t half = 1; half < n; w += half, half <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        double *ar = re + (i + k) * 4, *ai = im + (i + k) * 4;
        double *br = ar + half * 4, *bi = ai + half * 4;
        const __m256d wr = _mm256_set1_pd(w[k].real()), wi = _mm256_set1_pd(w[k].imag());
        const __m256d xr = _mm256_loadu_pd(br), xi = _mm256_loadu_pd(bi);
        const __m256d vr = _mm256_sub_pd(_mm256_mul_pd(xr, wr), _mm256_mul_pd(xi, wi));
        const __m256d vi = _mm256_add_pd(_mm256_mul_pd(xr, wi), _mm256_mul_pd(xi, wr));
        const __m256d ur = _mm256_loadu_pd(ar), ui = _mm256_loadu_pd(ai);
        _mm256_storeu_pd(ar, _mm256_add_pd(ur, vr));
        _mm256_storeu_pd(ai, _mm256_add_pd(ui, vi));
        _mm256_storeu_pd(br, _mm256_sub_pd(ur, vr));
        _mm256_storeu_pd(bi, _mm256_sub_pd(ui, vi));
      }
    }
  }
}

__attribute__((target("avx2,avx512f"))) void butterflies_avx512(double* re, double* im,
                                                                 std::size_t n, const Complex* w) {
  for (std::size_t half = 1; half < n; w += half, half <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        double *ar = re + (i + k) * 8, *ai = im + (i + k) * 8;
        double *br = ar + half * 8, *bi = ai + half * 8;
        const __m512d wr = _mm512_set1_pd(w[k].real()), wi = _mm512_set1_pd(w[k].imag());
        const __m512d xr = _mm512_loadu_pd(br), xi = _mm512_loadu_pd(bi);
        const __m512d vr = _mm512_sub_pd(_mm512_mul_pd(xr, wr), _mm512_mul_pd(xi, wi));
        const __m512d vi = _mm512_add_pd(_mm512_mul_pd(xr, wi), _mm512_mul_pd(xi, wr));
        const __m512d ur = _mm512_loadu_pd(ar), ui = _mm512_loadu_pd(ai);
        _mm512_storeu_pd(ar, _mm512_add_pd(ur, vr));
        _mm512_storeu_pd(ai, _mm512_add_pd(ui, vi));
        _mm512_storeu_pd(br, _mm512_sub_pd(ur, vr));
        _mm512_storeu_pd(bi, _mm512_sub_pd(ui, vi));
      }
    }
  }
}

}  // namespace
#endif

void FftPlan::execute_lanes(double* re, double* im, std::size_t lanes) const {
  IOB_EXPECTS(!inverse_, "lane transforms are forward only");
  IOB_EXPECTS(lanes == 4 || lanes == 8, "lane count must be 4 or 8");
#if IOB_FFT_LANES
  for (const auto& [i, j] : swaps_) {
    std::swap_ranges(re + i * lanes, re + (i + 1) * lanes, re + j * lanes);
    std::swap_ranges(im + i * lanes, im + (i + 1) * lanes, im + j * lanes);
  }
  if (lanes == 8) {
    butterflies_avx512(re, im, n_, twiddles_.data());
  } else {
    butterflies_avx2(re, im, n_, twiddles_.data());
  }
#else
  IOB_EXPECTS(false, "lane transforms need an x86-64 build");
  static_cast<void>(re);
  static_cast<void>(im);
#endif
}

void fft(std::vector<Complex>& x) { FftPlan(x.size(), false).execute(x.data()); }
void ifft(std::vector<Complex>& x) { FftPlan(x.size(), true).execute(x.data()); }

}  // namespace iob::isa
