#pragma once
/// \file stats.hpp
/// Order statistics: medians of repeated trials, nearest-rank percentiles
/// that are only reported when at least ten samples lie beyond them, and
/// quartiles with the interpolation of Python's
/// `statistics.quantiles(values, n=4)`, the spread the benchmark's bounds are
/// checked against.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile for it to be reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Median (mean of the two middle values for an even count). Requires a
/// non-empty input.
[[nodiscard]] double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method of `statistics.quantiles(v, n=4)`.
/// Requires at least two values.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Samples strictly beyond the nearest-rank `p`-th percentile (p in (0, 100])
/// of `n` samples: n - ceil(p / 100 * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// True when the `p`-th percentile of `n` samples has at least
/// `kMinSamplesBeyond` samples beyond it.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p % of the samples at or below it. Throws when `p` is not supported
/// by the sample count (see `percentile_supported`).
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace perfbench
