// Differential test of the ingest classifier (core/ingest): IngestBuffer —
// a flat reorder buffer and a lazily expiring hashed duplicate horizon —
// against TreeIngestBuffer, the red-black-tree implementation it replaced,
// kept here verbatim in behavior as the reference model. Seeded hostile
// streams (lateness 0 and 1 day; displaced ratings, exact and horizon
// retries, stale and malformed junk, equal-time ties, ±0.0) must produce
// the same class per submit, the same released ratings in the same order,
// the same counters, buffer occupancy and dead letters, and byte-identical
// checkpoint renderings every 997 submits — also across a drain() and a
// mid-stream restore. A counting allocator checks that warm submits do not
// allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <new>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/ingest.hpp"

// ------------------------------------------------------ counting allocator

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

namespace {
void* counted_malloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it): its
// block is released through the sized delete below, so both must come
// from malloc, also where a sanitizer supplies the forms not replaced.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
// Out of line: inlined into a caller, their free() would pair visibly with
// the standard operator new (-Wmismatched-new-delete). The array forms
// forward to these.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace trustrate {
namespace {

using core::IngestBuffer;
using core::IngestClass;
using core::IngestConfig;
using core::IngestStats;
using core::QuarantinedRating;

// ------------------------------------------------------- reference model

/// The tree-based classifier: a std::multiset reorder buffer and a
/// std::set duplicate horizon, expired eagerly at every release.
struct TreeIngestBuffer {
  using SeenKey = std::tuple<double, RaterId, ProductId, double>;
  struct TimeLess {
    bool operator()(const Rating& a, const Rating& b) const {
      return a.time < b.time;
    }
  };

  explicit TreeIngestBuffer(IngestConfig c) : config(c) {}

  double watermark() const {
    if (!anchored) return -std::numeric_limits<double>::infinity();
    return max_time - config.max_lateness_days;
  }

  void quarantine_rating(const Rating& rating, IngestClass reason,
                         std::string detail) {
    ++stats.quarantined;
    quarantine.push_back({rating, reason, std::move(detail)});
    while (quarantine.size() > config.max_quarantine) quarantine.pop_front();
  }

  IngestClass submit(const Rating& rating, std::vector<Rating>& released) {
    ++stats.submitted;
    if (!std::isfinite(rating.time) || !std::isfinite(rating.value)) {
      ++stats.malformed;
      quarantine_rating(rating, IngestClass::kMalformed,
                        "non-finite time or value");
      return IngestClass::kMalformed;
    }
    if (rating.value < 0.0 || rating.value > 1.0) {
      ++stats.malformed;
      quarantine_rating(rating, IngestClass::kMalformed,
                        "value " + std::to_string(rating.value) +
                            " outside [0,1]");
      return IngestClass::kMalformed;
    }
    if (anchored && rating.time < watermark()) {
      ++stats.dropped_late;
      quarantine_rating(rating, IngestClass::kLate,
                        "time " + std::to_string(rating.time) +
                            " behind watermark " +
                            std::to_string(watermark()));
      return IngestClass::kLate;
    }
    const SeenKey key{rating.time, rating.rater, rating.product, rating.value};
    if (!seen.insert(key).second) {
      ++stats.duplicates;
      return IngestClass::kDuplicate;
    }
    ++stats.accepted;
    const bool out_of_order = anchored && rating.time < max_time;
    if (out_of_order) ++stats.reordered;
    buffer.insert(rating);
    if (!anchored || rating.time > max_time) {
      anchored = true;
      max_time = rating.time;
    }
    const double mark = watermark();
    while (!buffer.empty() && buffer.begin()->time <= mark) {
      released.push_back(*buffer.begin());
      buffer.erase(buffer.begin());
    }
    while (!seen.empty() && std::get<0>(*seen.begin()) < mark) {
      seen.erase(seen.begin());
    }
    return out_of_order ? IngestClass::kReordered : IngestClass::kAccepted;
  }

  void drain(std::vector<Rating>& released) {
    for (const Rating& r : buffer) released.push_back(r);
    buffer.clear();
  }

  IngestConfig config;
  IngestStats stats;
  bool anchored = false;
  double max_time = 0.0;
  std::multiset<Rating, TimeLess> buffer;
  std::set<SeenKey> seen;
  std::deque<QuarantinedRating> quarantine;
};

// --------------------------------------------------------------- helpers

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_rating(const Rating& a, const Rating& b) {
  return same_bits(a.time, b.time) && same_bits(a.value, b.value) &&
         a.rater == b.rater && a.product == b.product && a.label == b.label;
}

/// Checkpoint bytes of a classifier state (every other section empty).
std::string render(const IngestConfig& config, const IngestStats& stats,
                   bool anchored, double max_time, std::vector<Rating> buffer,
                   std::vector<IngestBuffer::SeenKey> seen,
                   std::vector<QuarantinedRating> quarantine) {
  core::StreamSnapshot snap;
  snap.ingest_config = config;
  snap.stats = stats;
  snap.ingest_anchored = anchored;
  snap.ingest_max_time = max_time;
  snap.buffer = std::move(buffer);
  snap.seen = std::move(seen);
  snap.quarantine = std::move(quarantine);
  return core::render_checkpoint(snap, core::kCheckpointVersion);
}

std::string render(const TreeIngestBuffer& t) {
  return render(t.config, t.stats, t.anchored, t.max_time,
                {t.buffer.begin(), t.buffer.end()},
                {t.seen.begin(), t.seen.end()},
                {t.quarantine.begin(), t.quarantine.end()});
}

std::string render(const IngestBuffer& b) {
  IngestBuffer::State s = b.snapshot();
  return render(b.config(), s.stats, s.anchored, s.max_time,
                std::move(s.buffer), std::move(s.seen),
                std::move(s.quarantine));
}

/// A seeded hostile stream. Clean ratings advance in time steps that are
/// often zero (equal-time ties); arrivals mix in displaced ratings (within
/// the lateness bound), exact retries of recent ratings, horizon retries
/// whose time equals the watermark, stale ratings behind it, malformed
/// junk, and ±0.0 spellings of time and value.
std::vector<Rating> hostile_stream(std::uint64_t seed, double lateness,
                                   std::size_t n) {
  Rng rng(seed);
  std::vector<Rating> out;
  out.reserve(n);
  std::vector<Rating> recent;  // accepted-looking ratings to retry
  double t = -0.0;
  double max_t = 0.0;
  bool started = false;
  const auto pick = [&](double lo, double hi) { return rng.uniform(lo, hi); };
  const auto quantized = [&]() {
    return std::floor(rng.uniform() * 11.0) / 10.0;  // 0.0 .. 1.0
  };
  while (out.size() < n) {
    const double u = rng.uniform();
    Rating r;
    r.rater = static_cast<RaterId>(rng.uniform() * 50.0);
    r.product = static_cast<ProductId>(rng.uniform() * 8.0);
    r.label = static_cast<RatingLabel>(out.size() % 2);
    r.value = quantized();
    if (u < 0.02 && !recent.empty()) {
      // Exact retry of a recent rating (duplicate, or late if it fell
      // behind the watermark meanwhile).
      out.push_back(recent[static_cast<std::size_t>(rng.uniform() *
                                                    static_cast<double>(
                                                        recent.size()))]);
      continue;
    }
    if (u < 0.04 && started) {
      // Horizon retry: a rating and its resubmission at exactly the
      // watermark.
      r.time = max_t - lateness;
      out.push_back(r);
      if (out.size() < n) out.push_back(r);
      continue;
    }
    if (u < 0.05 && started) {
      // Stale: strictly behind the watermark.
      r.time = max_t - lateness - pick(0.001, 2.0);
      out.push_back(r);
      continue;
    }
    if (u < 0.06) {
      // Malformed: NaN or infinite time or value, or a value off [0, 1].
      const int kind = static_cast<int>(rng.uniform() * 4.0);
      if (kind == 0) r.time = std::numeric_limits<double>::quiet_NaN();
      if (kind == 1) r.value = std::numeric_limits<double>::infinity();
      if (kind == 2) r.value = 1.5;
      if (kind == 3) r.value = -0.25;
      if (kind != 0) r.time = t;
      out.push_back(r);
      continue;
    }
    if (u < 0.09 && started && lateness > 0.0) {
      // Displaced: within the lateness bound behind the newest time —
      // half of them at the exact time of a recent rating, so they tie
      // with ratings already buffered.
      r.time = max_t - pick(0.0, lateness);
      if (rng.uniform() < 0.5 && !recent.empty()) {
        const double tie = recent[static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(recent.size()))].time;
        if (tie >= max_t - lateness) r.time = tie;
      }
      out.push_back(r);
      recent.push_back(r);
      continue;
    }
    if (u < 0.11) {
      // ±0.0 spellings: a zero value, and (near the start) zero times.
      r.value = rng.uniform() < 0.5 ? 0.0 : -0.0;
      if (!started || rng.uniform() < 0.1) r.time = rng.uniform() < 0.5 ? 0.0 : -0.0;
      else r.time = t;
      if (r.time >= max_t - lateness || !started) {
        out.push_back(r);
        recent.push_back(r);
        if (out.size() < n) {
          Rating twin = r;  // the other zero spelling: a duplicate
          twin.value = -twin.value;
          twin.time = -twin.time;
          out.push_back(twin);
        }
      }
      continue;
    }
    // In order: half of the steps are zero (equal-time ties).
    if (rng.uniform() < 0.5) t += pick(0.0, lateness > 0.0 ? 0.05 : 0.5);
    r.time = t;
    out.push_back(r);
    recent.push_back(r);
    started = true;
    max_t = std::max(max_t, t);
    if (recent.size() > 64) recent.erase(recent.begin());
  }
  out.resize(n);
  return out;
}

/// Runs both classifiers over `stream`, comparing after every submit.
/// `drain_at` drains both at that submit; `restore_at` rebuilds the
/// IngestBuffer from its own checkpoint bytes there and carries on.
void run_differential(const std::vector<Rating>& stream, IngestConfig config,
                      std::size_t drain_at, std::size_t restore_at) {
  TreeIngestBuffer ref(config);
  IngestBuffer got(config);
  std::vector<Rating> ref_out;
  std::vector<Rating> got_out;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("submit " + std::to_string(i));
    if (i == drain_at) {
      ref.drain(ref_out);
      got.drain(got_out);
    }
    if (i == restore_at) {
      const core::StreamSnapshot snap =
          core::parse_checkpoint(render(got));
      IngestBuffer::State state;
      state.stats = snap.stats;
      state.anchored = snap.ingest_anchored;
      state.max_time = snap.ingest_max_time;
      state.buffer = snap.buffer;
      state.seen = snap.seen;
      state.quarantine = snap.quarantine;
      IngestBuffer restored(snap.ingest_config);
      restored.restore(state);
      ASSERT_EQ(render(restored), render(got));
      got = std::move(restored);
    }
    const IngestClass want = ref.submit(stream[i], ref_out);
    ASSERT_EQ(got.submit(stream[i], got_out), want);
    ASSERT_EQ(got.stats(), ref.stats);
    ASSERT_EQ(got.buffered(), ref.buffer.size());
    ASSERT_TRUE(same_bits(got.watermark(), ref.watermark()));
    ASSERT_EQ(got_out.size(), ref_out.size());
    for (std::size_t j = 0; j < ref_out.size(); ++j) {
      ASSERT_TRUE(same_rating(got_out[j], ref_out[j])) << "released " << j;
    }
    ref_out.clear();
    got_out.clear();
    if (i % 997 == 0) {
      ASSERT_EQ(render(got), render(ref));
    }
  }
  ASSERT_EQ(render(got), render(ref));
  ASSERT_EQ(got.quarantine().size(), ref.quarantine.size());
  for (std::size_t j = 0; j < ref.quarantine.size(); ++j) {
    EXPECT_TRUE(same_rating(got.quarantine()[j].rating, ref.quarantine[j].rating));
    EXPECT_EQ(got.quarantine()[j].reason, ref.quarantine[j].reason);
    EXPECT_EQ(got.quarantine()[j].detail, ref.quarantine[j].detail);
  }
  ref.drain(ref_out);
  got.drain(got_out);
  ASSERT_EQ(got_out.size(), ref_out.size());
  for (std::size_t j = 0; j < ref_out.size(); ++j) {
    ASSERT_TRUE(same_rating(got_out[j], ref_out[j])) << "drained " << j;
  }
}

TEST(IngestDifferential, OneDayLatenessMatchesTreeModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const IngestConfig config{.max_lateness_days = 1.0, .max_quarantine = 64};
    run_differential(hostile_stream(seed, 1.0, 30'000), config,
                     /*drain_at=*/11'000, /*restore_at=*/19'000);
  }
}

TEST(IngestDifferential, ZeroLatenessMatchesTreeModel) {
  for (std::uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const IngestConfig config{.max_lateness_days = 0.0, .max_quarantine = 64};
    run_differential(hostile_stream(seed, 0.0, 30'000), config,
                     /*drain_at=*/7'000, /*restore_at=*/23'000);
  }
}

TEST(IngestDifferential, RestoreBeforeFirstRatingAndAfterDrain) {
  const IngestConfig config{.max_lateness_days = 1.0, .max_quarantine = 16};
  const std::vector<Rating> stream = hostile_stream(6, 1.0, 5'000);
  run_differential(stream, config, /*drain_at=*/0, /*restore_at=*/0);
  run_differential(stream, config, /*drain_at=*/2'500, /*restore_at=*/2'500);
}

TEST(IngestDifferential, WarmSubmitsDoNotAllocate) {
  // Exact retries, plus displaced ratings inside a 1-day bound — every
  // class but the dead-lettered ones, whose diagnostics are strings. At
  // lateness 0 every accepted rating empties the reorder buffer at once.
  for (const double lateness : {1.0, 0.0}) {
    SCOPED_TRACE("lateness " + std::to_string(lateness));
    Rng rng(7);
    std::vector<Rating> stream;
    double t = 0.0;
    for (std::size_t i = 0; i < 60'000; ++i) {
      t += 0.001;
      Rating r{t, std::floor(rng.uniform() * 11.0) / 10.0,
               static_cast<RaterId>(rng.uniform() * 1000.0),
               static_cast<ProductId>(rng.uniform() * 100.0),
               RatingLabel::kHonest};
      if (lateness > 0.0 && rng.uniform() < 0.03) {
        r.time = t - rng.uniform(0.0, 0.9);
      }
      stream.push_back(r);
      if (rng.uniform() < 0.02) stream.push_back(r);
    }
    IngestBuffer buffer({.max_lateness_days = lateness});
    std::vector<Rating> released;
    released.reserve(stream.size());
    const std::size_t warm = stream.size() / 2;
    for (std::size_t i = 0; i < warm; ++i) buffer.submit(stream[i], released);
    released.clear();
    g_allocations.store(0);
    g_count_allocations.store(true);
    for (std::size_t i = warm; i < stream.size(); ++i) {
      buffer.submit(stream[i], released);
    }
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocations.load(), 0u)
        << "over " << stream.size() - warm << " warm submits";
    EXPECT_GT(buffer.stats().duplicates, 0u);
    EXPECT_EQ(buffer.stats().dropped_late + buffer.stats().malformed, 0u);
    if (lateness > 0.0) {
      EXPECT_GT(buffer.stats().reordered, 0u);
    }
  }
}

}  // namespace
}  // namespace trustrate
