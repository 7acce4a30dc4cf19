#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, the i-th cut point
  // sits at position i * m / 4 (1-based), linearly interpolated.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto r = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
  return n - r;
}

bool percentile_supported(std::size_t n, double p) {
  return p > 0.0 && p <= 100.0 && samples_beyond(n, p) >= kMinSamplesBeyond;
}

double percentile(std::vector<double> values, double p) {
  if (!percentile_supported(values.size(), p)) {
    throw std::invalid_argument("p" + std::to_string(p) + " needs " +
                                std::to_string(kMinSamplesBeyond) + " samples beyond it; have " +
                                std::to_string(values.size()) + " samples");
  }
  const std::size_t rank = values.size() - samples_beyond(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

}  // namespace perfbench
