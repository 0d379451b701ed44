// Evidence runs and their fold (DESIGN.md §14): shards reduce their slice
// of an epoch into rater-sorted runs that carry each rater's C(i) terms
// sorted, and the merge authority folds any number of runs. A rater whose
// terms sum differently in different orders must come out with the
// ascending-order sum, bitwise, however the products are split into runs
// and however they are labeled. A warm reducer must not touch the heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/parallel/epoch_engine.hpp"
#include "core/system.hpp"
#include "obs/audit.hpp"
#include "trust/record.hpp"

// ---------------------------------------------------------------------------
// Counting allocator (the pattern of tests/incremental_ar_test.cpp): global
// operator new/delete replacements for this test binary only.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// noinline keeps GCC from pairing an inlined std::free with a visible new
// expression and warning about a mismatch that does not exist.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace trustrate {
namespace {

using core::EvidenceRun;
using core::ProductObservation;
using core::ProductReport;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One hand-built product: who rated it, which ratings the filter removed,
/// which kept ratings sit in a suspicious window, and the C(i) credits.
struct HandProduct {
  ProductId id;
  std::vector<RaterId> raters;
  std::vector<std::size_t> removed;     ///< indices into `raters`
  std::vector<std::size_t> suspicious;  ///< indices into the kept series
  std::vector<std::pair<RaterId, double>> credits;
};

struct HandEpoch {
  std::vector<ProductObservation> observations;  ///< ascending product ID
  std::vector<ProductReport> reports;            ///< aligned
};

HandEpoch build(std::vector<HandProduct> products) {
  std::sort(products.begin(), products.end(),
            [](const HandProduct& a, const HandProduct& b) { return a.id < b.id; });
  HandEpoch epoch;
  for (const HandProduct& hp : products) {
    ProductObservation obs;
    obs.product = hp.id;
    obs.t_start = 0.0;
    obs.t_end = 30.0;
    for (std::size_t i = 0; i < hp.raters.size(); ++i) {
      obs.ratings.push_back({1.0 + static_cast<double>(i), 0.5, hp.raters[i],
                             hp.id, RatingLabel::kHonest});
    }
    ProductReport pr;
    pr.product = hp.id;
    pr.filter_outcome.removed = hp.removed;
    for (std::size_t i = 0; i < obs.ratings.size(); ++i) {
      if (std::find(hp.removed.begin(), hp.removed.end(), i) == hp.removed.end()) {
        pr.filter_outcome.kept.push_back(i);
      }
    }
    pr.kept = pr.filter_outcome.kept_series(obs.ratings);
    pr.suspicion.in_suspicious_window.assign(pr.kept.size(), false);
    for (const std::size_t k : hp.suspicious) {
      pr.suspicion.in_suspicious_window[k] = true;
    }
    for (const auto& [rater, c] : hp.credits) pr.suspicion.suspicion[rater] = c;
    pr.flagged.assign(obs.ratings.size(), false);
    epoch.observations.push_back(std::move(obs));
    epoch.reports.push_back(std::move(pr));
  }
  return epoch;
}

/// Rater 7's credits, 0.3 / 0.2 / 0.1, sit on products 10 / 20 / 30: in
/// product order they sum to a different double than in ascending order.
/// Rater 7 has no filtered rating, so its F record is exactly b * C(i) and
/// shows the last bit.
std::vector<HandProduct> order_sensitive_epoch() {
  return {
      {10, {7, 1, 2, 3}, {}, {0}, {{7, 0.3}, {1, 0.25}}},
      {20, {2, 7, 4}, {2}, {1}, {{7, 0.2}}},
      {30, {5, 7}, {}, {1}, {{7, 0.1}, {5, 0.05}}},
      {40, {7, 6}, {1}, {}, {}},
      {50, {1, 9}, {}, {0, 1}, {{1, 0.125}, {9, 0.5}}},
      {60, {3}, {}, {}, {}},
      {70, {9, 2}, {1}, {}, {{9, 0.75}}},
  };
}

/// Independent reference: per-rater n/f/s by direct counting and C(i) as
/// the ascending-order sum of the rater's credits.
std::map<RaterId, trust::EpochObservation> reference(
    const std::vector<HandProduct>& products) {
  std::map<RaterId, trust::EpochObservation> out;
  std::map<RaterId, std::vector<double>> terms;
  for (const HandProduct& hp : products) {
    std::vector<RaterId> kept;
    for (std::size_t i = 0; i < hp.raters.size(); ++i) {
      ++out[hp.raters[i]].ratings;
      if (std::find(hp.removed.begin(), hp.removed.end(), i) != hp.removed.end()) {
        ++out[hp.raters[i]].filtered;
      } else {
        kept.push_back(hp.raters[i]);
      }
    }
    for (const std::size_t k : hp.suspicious) ++out[kept[k]].suspicious;
    for (const auto& [rater, c] : hp.credits) terms[rater].push_back(c);
  }
  for (auto& [rater, t] : terms) {
    std::sort(t.begin(), t.end());
    for (const double c : t) out[rater].suspicion_value += c;
  }
  return out;
}

/// Reduces the epoch as `shards` shards would (product i to shard i mod
/// shards, each slice in product order) and folds the runs.
core::TrustEnhancedRatingSystem fold_at(const HandEpoch& epoch,
                                        std::size_t shards,
                                        obs::AuditSink* audit = nullptr) {
  core::SystemConfig config;
  core::TrustEnhancedRatingSystem system(config);
  if (audit != nullptr) system.set_observability({nullptr, nullptr, audit});
  std::vector<EvidenceRun> runs(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    std::vector<ProductObservation> obs;
    std::vector<ProductReport> reports;
    for (std::size_t i = k; i < epoch.observations.size(); i += shards) {
      obs.push_back(epoch.observations[i]);
      reports.push_back(epoch.reports[i]);
    }
    core::EvidenceReducer reducer;
    reducer.reduce(config, obs, reports, runs[k]);
  }
  system.merge_epoch(epoch.observations, epoch.reports, runs);
  return system;
}

void expect_matches_reference(
    const core::TrustEnhancedRatingSystem& system,
    const std::map<RaterId, trust::EpochObservation>& expected,
    const char* where) {
  const auto& records = system.trust_store().records();
  ASSERT_EQ(records.size(), expected.size()) << where;
  for (const auto& [rater, o] : expected) {
    trust::TrustRecord want;
    trust::update_record(want, o, system.config().b);
    const trust::TrustRecord& got = records.at(rater);
    EXPECT_EQ(bits(got.failures), bits(want.failures)) << where << " rater " << rater;
    EXPECT_EQ(bits(got.successes), bits(want.successes))
        << where << " rater " << rater;
  }
}

TEST(EvidenceRun, ReducerSortsRatersAndTerms) {
  const HandEpoch epoch = build(order_sensitive_epoch());
  core::EvidenceReducer reducer;
  EvidenceRun run;
  reducer.reduce(core::SystemConfig{}, epoch.observations, epoch.reports, run);

  ASSERT_FALSE(run.raters.empty());
  std::size_t total_terms = 0;
  for (std::size_t i = 0; i < run.raters.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(run.raters[i - 1].rater, run.raters[i].rater);
    }
    const auto first = run.terms.begin() + static_cast<std::ptrdiff_t>(total_terms);
    EXPECT_TRUE(std::is_sorted(first, first + run.raters[i].terms));
    total_terms += run.raters[i].terms;
  }
  EXPECT_EQ(total_terms, run.terms.size());

  const auto seven = std::find_if(run.raters.begin(), run.raters.end(),
                                  [](const auto& e) { return e.rater == 7; });
  ASSERT_NE(seven, run.raters.end());
  EXPECT_EQ(seven->ratings, 4u);
  EXPECT_EQ(seven->filtered, 0u);
  EXPECT_EQ(seven->suspicious, 3u);
  EXPECT_EQ(seven->terms, 3u);
  const auto six = std::find_if(run.raters.begin(), run.raters.end(),
                                [](const auto& e) { return e.rater == 6; });
  ASSERT_NE(six, run.raters.end());
  EXPECT_EQ(six->ratings, 1u);
  EXPECT_EQ(six->filtered, 1u);
  EXPECT_EQ(six->terms, 0u);
}

TEST(EvidenceFold, OrderSensitiveTermsSumAscendingAtEveryShardCount) {
  // The premise: rater 7's credits are order-sensitive in floating point.
  ASSERT_NE(bits(0.3 + 0.2 + 0.1), bits(0.1 + 0.2 + 0.3));
  const std::vector<HandProduct> products = order_sensitive_epoch();
  const HandEpoch epoch = build(products);
  const auto expected = reference(products);
  ASSERT_EQ(bits(expected.at(7).suspicion_value), bits(0.1 + 0.2 + 0.3));

  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    obs::MemoryAuditSink audit;
    const core::TrustEnhancedRatingSystem system = fold_at(epoch, shards, &audit);
    const std::string where = std::to_string(shards) + " shards";
    expect_matches_reference(system, expected, where.c_str());
    // The audit log's C(i) increment is the folded sum itself.
    bool seen = false;
    for (const obs::AuditEvent& e :
         audit.of_type(obs::AuditEventType::kSuspicionIncrement)) {
      if (e.rater != RaterId{7}) continue;
      seen = true;
      ASSERT_TRUE(e.value.has_value()) << where;
      EXPECT_EQ(bits(*e.value), bits(0.1 + 0.2 + 0.3)) << where;
    }
    EXPECT_TRUE(seen) << where;
  }
}

TEST(EvidenceFold, ProductRelabelingLeavesTheFoldBitwiseUnchanged) {
  // Relabel p -> 1000 - p: the canonical product order reverses, so rater
  // 7's credits now meet the fold in ascending instead of descending order.
  std::vector<HandProduct> relabeled = order_sensitive_epoch();
  for (HandProduct& hp : relabeled) hp.id = 1000 - hp.id;
  const auto expected = reference(order_sensitive_epoch());
  const HandEpoch epoch = build(relabeled);
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    const std::string where = "relabeled, " + std::to_string(shards) + " shards";
    expect_matches_reference(fold_at(epoch, shards), expected, where.c_str());
  }
}

TEST(EvidenceFold, SingleRunMergeEpochMatchesTheShardedFold) {
  // merge_epoch(observations, products) reduces one run itself: the same
  // fold as a caller that reduced per shard.
  const std::vector<HandProduct> products = order_sensitive_epoch();
  const HandEpoch epoch = build(products);
  core::TrustEnhancedRatingSystem system{core::SystemConfig{}};
  system.merge_epoch(epoch.observations, epoch.reports);
  expect_matches_reference(system, reference(products), "single run");
}

TEST(EvidenceRun, WarmReducerAllocatesNothing) {
  // A realistic analyzed epoch: honest streams plus collaborative bursts,
  // so the runs carry filtered, suspicious and credited raters.
  core::SystemConfig config;
  config.filter.q = 0.05;
  config.ar.window_days = 10.0;
  config.ar.step_days = 5.0;
  config.ar.error_threshold = 0.022;
  Rng rng(11);
  std::vector<ProductObservation> observations(24);
  for (std::size_t p = 0; p < observations.size(); ++p) {
    ProductObservation& obs = observations[p];
    obs.product = static_cast<ProductId>(p);
    obs.t_end = 60.0;
    for (double t = rng.exponential(4.0); t < 60.0; t += rng.exponential(4.0)) {
      obs.ratings.push_back(
          {t, quantize_unit(clamp_unit(rng.gaussian(0.5, 0.2)), 10, false),
           static_cast<RaterId>(rng.uniform_int(0, 400)), obs.product,
           RatingLabel::kHonest});
    }
    if (p % 3 == 0) {
      auto shill = static_cast<RaterId>(5000 + 100 * p);
      for (double t = 20.0 + rng.exponential(3.0); t < 35.0;
           t += rng.exponential(3.0)) {
        obs.ratings.push_back({t, clamp_unit(rng.gaussian(0.65, 0.02)), shill++,
                               obs.product, RatingLabel::kCollaborative2});
      }
      std::sort(obs.ratings.begin(), obs.ratings.end(),
                [](const Rating& a, const Rating& b) { return a.time < b.time; });
    }
  }
  const detect::BetaQuantileFilter filter(config.filter);
  const detect::ArSuspicionDetector detector(config.ar);
  core::parallel::EpochEngine engine(1);
  const core::parallel::StageContext ctx{&config, &filter, &detector, nullptr};
  const std::vector<ProductReport> reports = engine.analyze(observations, ctx);

  core::EvidenceReducer reducer;
  EvidenceRun run;
  reducer.reduce(config, observations, reports, run);
  reducer.reduce(config, observations, reports, run);
  ASSERT_FALSE(run.terms.empty()) << "the epoch should credit suspicion";

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  reducer.reduce(config, observations, reports, run);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "a warm reduction touched the heap";
}

}  // namespace
}  // namespace trustrate
