// Small statistics and timing helpers for the benchmark.
#pragma once

#include <chrono>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

}  // namespace perfbench
