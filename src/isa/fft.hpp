#pragma once
/// \file fft.hpp
/// Radix-2 iterative FFT for the feature extractors (mel filterbanks,
/// spectral features). Power-of-two sizes only.

#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

namespace iob::isa {

using Complex = std::complex<double>;

/// One power-of-two size and direction, planned once: the bit-reversal swaps
/// and each stage's twiddles from the `w *= wlen` recurrence, so repeated
/// transforms recompute nothing. `fft` and `ifft` run through it.
class FftPlan {
 public:
  FftPlan(std::size_t n, bool inverse);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place transform of x[0, size()); the inverse includes 1/N.
  void execute(Complex* x) const;

  /// In-place forward transform of `lanes` signals side by side, for a
  /// forward plan: element i of lane l is re[i * lanes + l] + j im[i * lanes +
  /// l]. It reads the same swap list and twiddles as execute() and each lane
  /// runs execute()'s multiplies and adds in the same order, so every lane
  /// gets execute()'s bits. `lanes` is 4 (needs AVX2) or 8 (needs AVX-512F);
  /// the caller checks the CPU, e.g. through nn::kernel_dispatch_tier().
  void execute_lanes(double* re, double* im, std::size_t lanes) const;

 private:
  std::size_t n_;
  bool inverse_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  std::vector<Complex> twiddles_;  ///< stage len contributes len/2, stages in order
};

/// In-place forward FFT; size must be a power of two (>= 1).
void fft(std::vector<Complex>& x);

/// In-place inverse FFT (includes 1/N normalization).
void ifft(std::vector<Complex>& x);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

}  // namespace iob::isa
