#include "isa/fft.hpp"

#include <cmath>

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

void fft(std::vector<Complex>& x) { FftPlan(x.size(), false).execute(x.data()); }
void ifft(std::vector<Complex>& x) { FftPlan(x.size(), true).execute(x.data()); }

}  // namespace iob::isa
