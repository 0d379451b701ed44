// The edge-case StreamSnapshot behind the checked-in checkpoint goldens
// (tests/data/checkpoint_*_edge.golden): every double spelling the codec
// must keep byte-identical — ±0, the smallest and largest subnormal,
// DBL_MIN, DBL_MAX, ±inf, ±nan, hexfloat mantissas of 1 to 13 digits — plus
// quarantine details that need percent-escaping, 64-bit counters at their
// maximum, and a layout for 1 and for 3 shards. Header-only and built on
// the public snapshot type alone, so the goldens can be regenerated from
// any writer revision by a program that includes this file.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/checkpoint.hpp"

namespace trustrate::testing {

inline double double_from_bits(std::uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// The doubles the goldens exercise, in a fixed order.
inline std::vector<double> edge_doubles() {
  using limits = std::numeric_limits<double>;
  std::vector<double> v = {
      0.0,
      -0.0,
      limits::denorm_min(),
      -limits::denorm_min(),
      limits::min() - limits::denorm_min(),  // largest subnormal
      double_from_bits(0x0000123456789abcull),  // mid subnormal
      limits::min(),
      -limits::min(),
      limits::max(),
      -limits::max(),
      limits::infinity(),
      -limits::infinity(),
      limits::quiet_NaN(),
      std::copysign(limits::quiet_NaN(), -1.0),
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      0.5,
      1e300,
      1e-300,
  };
  // Mantissas of 1..13 hex digits (the last digit nonzero), at a spread
  // of exponents and both signs.
  constexpr std::uint64_t kMantissa = 0x123456789abcdull;
  for (int digits = 1; digits <= 13; ++digits) {
    const std::uint64_t shift = 4u * static_cast<unsigned>(13 - digits);
    const std::uint64_t mantissa = (kMantissa >> shift) << shift;
    const std::uint64_t exponent =
        static_cast<std::uint64_t>(1023 + 97 * (digits - 7));
    std::uint64_t bits = (exponent << 52) | mantissa;
    if (digits % 2 == 0) bits |= 1ull << 63;
    v.push_back(double_from_bits(bits));
  }
  return v;
}

/// The snapshot. `shards` is the layout the v4 golden records (1 or 3); a
/// v3 rendering collapses it.
inline core::StreamSnapshot edge_snapshot(std::size_t shards) {
  const std::vector<double> e = edge_doubles();
  const auto at = [&e](std::size_t i) { return e[i % e.size()]; };
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

  core::StreamSnapshot s;
  s.epoch_days = 30.0;
  s.retention_epochs = 3;
  s.ingest_config.max_lateness_days = 0.75;
  s.ingest_config.max_quarantine = 1024;

  s.anchored = true;
  s.epoch_start = -0.0;
  s.last_time = std::numeric_limits<double>::max();
  s.epochs_closed = 7;
  s.skipped_empty_epochs = 2;
  s.system_epochs = kMax;

  s.stats = {kMax, kMax - 1, 3, 4, 5, 6, 11};
  s.health = {core::EpochHealth::kHealthy, core::EpochHealth::kDegradedDetector,
              core::EpochHealth::kHealthy};

  s.ingest_anchored = true;
  s.ingest_max_time = std::numeric_limits<double>::denorm_min();

  // Buffer: every edge double once as a time and once as a value.
  for (std::size_t i = 0; i < e.size(); ++i) {
    s.buffer.push_back({e[i], at(i + 5), static_cast<RaterId>(i),
                        static_cast<ProductId>(100 + i),
                        static_cast<RatingLabel>(i % 4)});
  }
  for (std::size_t i = 0; i < 6; ++i) {
    s.seen.push_back({at(3 * i), static_cast<RaterId>(4'000'000'000u + i),
                      static_cast<ProductId>(i), at(3 * i + 1)});
  }

  // Quarantine: each detail needs a different escape (spaces, '%', tab,
  // newline, control bytes, UTF-8, the literal "-" and the empty string).
  const char* details[] = {"value 2 outside [0, 1]",
                           "100% late\tby 3 days\n",
                           "ctl\x01\x7f end",
                           "caf\xc3\xa9",
                           "-",
                           "",
                           "plain"};
  for (std::size_t i = 0; i < std::size(details); ++i) {
    core::QuarantinedRating q;
    q.rating = {at(i + 8), at(i + 9), static_cast<RaterId>(50 + i),
                static_cast<ProductId>(i % 4), static_cast<RatingLabel>(i % 4)};
    q.reason = i % 2 == 0 ? core::IngestClass::kMalformed
                          : core::IngestClass::kLate;
    q.detail = details[i];
    s.quarantine.push_back(q);
  }

  // Pending and retained product maps, spread over enough products that a
  // 3-shard layout puts some on every shard.
  std::size_t k = 0;
  for (ProductId p = 1; p <= 9; ++p) {
    RatingSeries& series = s.pending[p * 7];
    for (std::size_t j = 0; j < p % 4 + 1; ++j, ++k) {
      series.push_back({at(k), at(k + 11), static_cast<RaterId>(k),
                        p * 7, static_cast<RatingLabel>(k % 4)});
    }
  }
  for (ProductId p = 2; p <= 10; ++p) {
    auto& epochs = s.retained[p * 5];
    epochs.resize(p % 3 + 1);  // epoch 0 of each product stays empty
    for (std::size_t ep = 1; ep < epochs.size(); ++ep) {
      for (std::size_t j = 0; j < ep + 1; ++j, ++k) {
        epochs[ep].push_back({at(k + 2), at(k + 7), static_cast<RaterId>(k),
                              p * 5, static_cast<RatingLabel>(k % 4)});
      }
    }
  }

  for (std::size_t i = 0; i < e.size(); ++i) {
    trust::TrustRecord record;
    record.successes = e[i];
    record.failures = at(e.size() - 1 - i);
    s.trust.push_back({static_cast<RaterId>(10 * i + 1), record});
  }

  s.shards = shards;
  for (std::size_t sh = 0; sh < shards; ++sh) {
    s.shard_skipped_cells.push_back(sh == 0 ? kMax : 4 * sh + 1);
  }
  return s;
}

}  // namespace trustrate::testing
