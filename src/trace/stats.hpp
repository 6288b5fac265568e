// Summary statistics in the paper's reporting style (§2.1): curves are
// medians, shaded areas span the first and last deciles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace cci::trace {

struct Stats {
  std::size_t n = 0;
  double median = 0.0;
  double decile1 = 0.0;  ///< 10th percentile
  double decile9 = 0.0;  ///< 90th percentile
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  static Stats of(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return of_sorted(samples);
  }

  /// Stats of samples already in ascending order.  Bitwise equal to of()
  /// over any permutation of them: of() sorts, then runs exactly this (the
  /// mean sums in sorted order too).
  static Stats of_sorted(const std::vector<double>& sorted) {
    return of_sorted(sorted.size(), [&sorted](std::size_t i) { return sorted[i]; });
  }

  /// of_sorted() over `n` ascending samples read through `at(i)`, for
  /// samples derived on the fly from another sorted array: the summary then
  /// needs no array of its own.
  template <class At>
  static Stats of_sorted(std::size_t n, At at) {
    Stats s;
    s.n = n;
    if (n == 0) return s;
    s.min = at(0);
    s.max = at(n - 1);
    s.median = quantile_sorted(n, at, 0.5);
    s.decile1 = quantile_sorted(n, at, 0.1);
    s.decile9 = quantile_sorted(n, at, 0.9);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += at(i);
    s.mean = sum / static_cast<double>(n);
    return s;
  }

  /// Linear-interpolated quantile of `n` ascending samples read through
  /// `at(i)`.
  template <class At>
  static double quantile_sorted(std::size_t n, At at, double q) {
    if (n == 0) return 0.0;
    if (n == 1) return at(0);
    double pos = q * static_cast<double>(n - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, n - 1);
    double frac = pos - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  }
};

}  // namespace cci::trace
