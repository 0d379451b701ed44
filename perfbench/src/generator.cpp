#include "generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/math.hpp"

namespace perfbench {

using trustrate::RatingSeries;

namespace {

using trustrate::Rating;
using trustrate::RatingLabel;
using trustrate::RaterId;

/// xoshiro256** seeded through splitmix64: fast, and identical on every
/// platform (std distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& word : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform on [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer on [lo, hi].
  std::size_t pick(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
  }
  bool bernoulli(double p) { return uniform() < p; }
  double gaussian(double mean, double sigma) {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return mean + sigma * std::sqrt(-2.0 * std::log(u1)) *
                      std::cos(6.283185307179586 * u2);
  }
  double exponential(double mean) { return -mean * std::log(1.0 - uniform()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

constexpr int kLevels = 10;         // paper: ratings quantized to 0.1 .. 1.0
constexpr double kAttackDays = 10;  // recruiting window within an epoch
constexpr double kBurstMeanDays = 2;  // recruits act soon after contact
constexpr double kBias = 0.15;        // paper §IV bias_shift2
constexpr double kBadSigma = 0.02;    // paper "badVar"

RatingSeries make_clean(const StreamShape& shape, Rng& rng) {
  const double t0 = 0.5;
  const double t_end = t0 + static_cast<double>(shape.epochs) * shape.epoch_days;
  const double life_days =
      static_cast<double>(shape.lifetime_epochs) * shape.epoch_days;
  const std::uint32_t honest_pool = shape.reliable_raters + shape.careless_raters;
  const RaterId pc_base = honest_pool;
  // Non-recruited PC raters behave like reliable raters at half the rate
  // (paper a2 = 0.5): they fill half a slot each in the honest draw.
  const double honest_weight =
      static_cast<double>(honest_pool) + 0.5 * shape.pc_raters;

  const double mean_ratings =
      0.5 * static_cast<double>(shape.ratings_lo + shape.ratings_hi);
  RatingSeries out;
  out.reserve(static_cast<std::size_t>(
      1.1 * static_cast<double>(shape.epochs * shape.products_per_epoch *
                                shape.lifetime_epochs) *
      mean_ratings));

  trustrate::ProductId product = 0;
  for (std::size_t e = 0; e < shape.epochs; ++e) {
    for (std::size_t k = 0; k < shape.products_per_epoch; ++k, ++product) {
      const double start =
          t0 + static_cast<double>(e) * shape.epoch_days +
          rng.uniform(0.0, shape.epoch_days);
      const double stop = std::min(start + life_days, t_end);
      const double quality = rng.uniform(0.4, 0.6);
      const double span = stop - start;
      const auto honest_n = static_cast<std::size_t>(
          static_cast<double>(rng.pick(shape.ratings_lo, shape.ratings_hi)) *
          span / shape.epoch_days);
      for (std::size_t i = 0; i < honest_n; ++i) {
        const double draw = rng.uniform(0.0, honest_weight);
        Rating r;
        r.time = rng.uniform(start, stop);
        r.product = product;
        double sigma = 0.2;
        if (draw < shape.reliable_raters) {
          r.rater = static_cast<RaterId>(draw);
          r.label = RatingLabel::kHonest;
        } else if (draw < honest_pool) {
          r.rater = static_cast<RaterId>(draw);
          r.label = RatingLabel::kCareless;
          sigma = 0.3;
        } else {
          r.rater = pc_base + static_cast<RaterId>(rng.pick(0, shape.pc_raters - 1));
          r.label = RatingLabel::kHonest;
        }
        r.value = trustrate::quantize_unit(
            trustrate::clamp_unit(rng.gaussian(quality, sigma)), kLevels, false);
        out.push_back(r);
      }
      if (product % shape.dishonest_every != shape.dishonest_every - 1) continue;
      if (span <= kAttackDays) continue;
      const double attack = rng.uniform(start, stop - kAttackDays);
      const std::size_t recruits = rng.pick(shape.recruits_lo, shape.recruits_hi);
      for (std::size_t i = 0; i < recruits; ++i) {
        Rating r;
        r.time = attack + std::min(rng.exponential(kBurstMeanDays), kAttackDays);
        r.product = product;
        r.rater = pc_base + static_cast<RaterId>(rng.pick(0, shape.pc_raters - 1));
        r.label = RatingLabel::kCollaborative2;
        r.value = trustrate::quantize_unit(
            trustrate::clamp_unit(rng.gaussian(quality + kBias, kBadSigma)),
            kLevels, false);
        out.push_back(r);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Rating& a, const Rating& b) { return a.time < b.time; });
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].time <= out[i - 1].time) {
      out[i].time = std::nextafter(out[i - 1].time,
                                   std::numeric_limits<double>::infinity());
    }
  }
  return out;
}

}  // namespace

GeneratedStream generate(const StreamShape& shape, const Perturbation& perturbation,
                         std::uint64_t seed) {
  Rng rng(seed);
  GeneratedStream g;
  g.clean = make_clean(shape, rng);
  g.lateness_days = perturbation.lateness_days;
  const RatingSeries& clean = g.clean;
  const std::size_t n = clean.size();
  if (n == 0) throw std::runtime_error("generator produced an empty stream");

  const double bound = perturbation.lateness_days;
  trustrate::core::IngestStats& st = g.expected_stats;
  st.accepted = n;
  g.arrivals.reserve(n + n / 16);
  // `originals[a]` marks arrivals that are first submissions of a clean
  // rating; only those advance the ingest watermark.
  std::vector<bool> originals;
  originals.reserve(n + n / 16);
  double max_time = -std::numeric_limits<double>::infinity();
  std::size_t malformed_kind = 0;

  const auto emit = [&](const Rating& r, bool original) {
    g.arrivals.push_back(r);
    originals.push_back(original);
  };
  const auto emit_clean = [&](const Rating& r) {
    max_time = std::max(max_time, r.time);
    emit(r, true);
    if (rng.bernoulli(perturbation.retry_share)) {
      emit(r, false);
      ++st.duplicates;
    }
    if (rng.bernoulli(perturbation.stale_share)) {
      Rating junk = r;
      junk.rater = kJunkRater;
      junk.time = max_time - bound - rng.uniform(0.5, 5.0);
      emit(junk, false);
      ++st.dropped_late;
    }
    if (rng.bernoulli(perturbation.malformed_share)) {
      Rating junk = r;
      junk.rater = kJunkRater;
      switch (malformed_kind++ % 4) {
        case 0: junk.value = std::numeric_limits<double>::quiet_NaN(); break;
        case 1: junk.value = 1.5; break;
        case 2: junk.value = -0.25; break;
        default: junk.time = std::numeric_limits<double>::infinity(); break;
      }
      emit(junk, false);
      ++st.malformed;
    }
  };

  for (std::size_t i = 0; i < n;) {
    // In-bound displacement: rating i arrives right after rating j, with
    // t[j] - t[i] <= bound, so it is reordered, never dropped late.
    // Displaced ranges are disjoint, so at most one rating is in flight.
    if (bound > 0.0 && i > 0 && rng.bernoulli(perturbation.move_share)) {
      std::size_t furthest = i;
      while (furthest + 1 < n && furthest - i < perturbation.max_move_span &&
             clean[furthest + 1].time - clean[i].time <= bound) {
        ++furthest;
      }
      if (furthest > i) {
        const std::size_t j = rng.pick(i + 1, furthest);
        for (std::size_t q = i + 1; q <= j; ++q) emit_clean(clean[q]);
        emit_clean(clean[i]);
        ++st.reordered;
        i = j + 1;
        continue;
      }
    }
    emit_clean(clean[i]);
    ++i;
  }
  st.submitted = g.arrivals.size();
  st.quarantined = st.dropped_late + st.malformed;

  // Epoch k closes when the first clean rating at or past its end is
  // released, i.e. on the first original arrival that lifts the watermark
  // (max time - bound) to that rating's time. The grid is anchored at the
  // first rating and advanced by repeated addition, exactly as the engine
  // walks it; every epoch must be non-empty so no close is fast-forwarded.
  double epoch_end = clean.front().time + shape.epoch_days;
  std::size_t c = 0;  // first clean index at or past epoch_end
  double watermark_max = -std::numeric_limits<double>::infinity();
  std::size_t a = 0;
  while (true) {
    while (c < n && clean[c].time < epoch_end) ++c;
    if (c == n) break;
    if (clean[c].time >= epoch_end + shape.epoch_days) {
      throw std::runtime_error("generated stream has an empty epoch");
    }
    while (a < g.arrivals.size() && !(watermark_max - bound >= clean[c].time)) {
      if (originals[a]) watermark_max = std::max(watermark_max, g.arrivals[a].time);
      ++a;
    }
    g.close_arrival.push_back(a - 1);
    epoch_end += shape.epoch_days;
  }
  return g;
}

}  // namespace perfbench
