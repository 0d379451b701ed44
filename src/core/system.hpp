// TrustEnhancedRatingSystem — the end-to-end pipeline of the paper's
// Figure 1, wiring together:
//
//   raw ratings ──► rating filter (Feature Extraction I, Whitby beta)
//                │            │
//                │            ▼ filtered-out counts (observation buffer)
//                ├──► AR suspicion detector (Feature Extraction II,
//                │    Procedure 1) ──► suspicious values C(i)
//                │
//                ▼
//   trust manager (Procedure 2, beta trust, forgetting, malicious-rater
//   detection) ──► trust values T(i)
//                │
//                ▼
//   trust-weighted rating aggregation (Method 3 by default)
//
// Usage: feed the system one *epoch* at a time (the paper uses months).
// Each epoch holds the per-product rating series observed during that
// period; the system filters, detects, updates trust, and can then produce
// trust-weighted aggregated ratings and a malicious-rater list.
//
// Procedure 2's observation buffer is an EvidenceRun: per-rater n/f/s and
// C(i) terms, sorted by rater. An epoch is reduced into one run here, or
// into one run per shard by core/shard; either way the runs are folded by
// the same code, which sums each rater's terms in ascending order, so the
// trust state is bitwise the same for any split (DESIGN.md §8, §14).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "agg/aggregator.hpp"
#include "core/metrics.hpp"
#include "detect/ar_detector.hpp"
#include "detect/beta_filter.hpp"
#include "obs/observability.hpp"
#include "trust/propagation.hpp"
#include "trust/record.hpp"

namespace trustrate::core {

namespace parallel {
class EpochEngine;
}  // namespace parallel

struct SystemConfig {
  // Feature extraction I.
  bool enable_filter = true;
  detect::BetaFilterConfig filter;

  // Feature extraction II (Procedure 1).
  bool enable_ar_detector = true;
  detect::ArDetectorConfig ar;

  /// What the AR detector analyzes. Figure 1 of the paper feeds it the
  /// post-filter "normal ratings" — the default. Filtering trims the
  /// majority's tails, which homogenizes the honest residual variance
  /// across products (the careless-rater tails go away) and so sharpens
  /// the fixed-threshold separation; the raw-stream option exists for
  /// ablation.
  bool detector_on_filtered = true;

  // Procedure 2.
  double b = 1.0;  ///< weight of suspicion value relative to a filtered rating

  /// Per-epoch exponential forgetting on trust evidence (1 = no forgetting).
  double forgetting = 1.0;

  /// Trust below this marks a rater as (potentially) malicious (paper: 0.5).
  double malicious_threshold = 0.5;

  /// Aggregation scheme used by aggregate().
  agg::AggregatorKind aggregator = agg::AggregatorKind::kModifiedWeightedAverage;

  /// Worker count of the parallel epoch engine (core/parallel). 1 runs the
  /// classic serial loop with no threads; W > 1 shards the per-product
  /// filter + AR sweep across W workers (W − 1 pool threads plus the
  /// caller). Output is bitwise-identical at every worker count — see
  /// DESIGN.md §8. This is *configuration*, not state: checkpoints never
  /// record it, so a stream saved at 8 workers restores fine at 1.
  std::size_t epoch_workers = 1;
};

/// Ratings of one product during one epoch, with the product's active span
/// (the AR detector windows [t_start, t_end)).
struct ProductObservation {
  ProductId product = 0;
  double t_start = 0.0;
  double t_end = 0.0;
  RatingSeries ratings;  ///< time-sorted
};

/// Per-product outcome of processing one epoch.
struct ProductReport {
  ProductId product = 0;
  detect::FilterOutcome filter_outcome;  ///< indices into the input
  /// Suspicion over the detector's input: the raw series, or the kept
  /// series when SystemConfig::detector_on_filtered is set.
  detect::SuspicionResult suspicion;
  std::vector<bool> flagged;  ///< per input rating: filtered OR suspicious
  RatingSeries kept;          ///< ratings surviving the filter

  /// True when the AR detector was enabled but could not contribute: every
  /// window was too short for the normal equations, or the fit raised an
  /// error. The product fell back to the beta-filter-only path.
  bool detector_degraded = false;
};

/// Procedure-2 evidence of a slice of one epoch, reduced per rater
/// (DESIGN.md §14): the n/f/s counts and the C(i) terms of every rater the
/// slice's products saw, as flat vectors sorted by rater ID. Shard workers
/// build one per epoch cell; process_epoch builds one for the whole epoch.
/// Terms are carried one by one, not pre-summed, so a fold of any set of
/// runs still sums each rater's terms in the canonical ascending order.
struct EvidenceRun {
  struct Entry {
    RaterId rater = 0;
    std::uint32_t ratings = 0;     ///< n_i
    std::uint32_t filtered = 0;    ///< f_i
    std::uint32_t suspicious = 0;  ///< s_i
    std::uint32_t terms = 0;       ///< this rater's share of `terms`
  };
  std::vector<Entry> raters;  ///< strictly ascending by rater
  /// C(i) terms, one per (rater, product) credit: rater-major in `raters`
  /// order, ascending within a rater.
  std::vector<double> terms;
};

/// Reduces analyzed products into an EvidenceRun. The sort scratch is kept
/// across calls, so reducing into a reused run allocates nothing once the
/// buffers have reached the epoch's size.
class EvidenceReducer {
 public:
  /// `products[i]` analyzes `observations[i]`; `out` is overwritten.
  void reduce(const SystemConfig& config,
              std::span<const ProductObservation> observations,
              std::span<const ProductReport> products, EvidenceRun& out);

 private:
  std::vector<std::uint64_t> keys_;  ///< rater << 2 | kind, one per event
  std::vector<std::uint64_t> keys_tmp_;
  std::vector<std::pair<RaterId, double>> credits_;  ///< (rater, C(i) term)
  std::vector<std::pair<RaterId, double>> credits_tmp_;
};

/// Per-epoch outcome.
struct EpochReport {
  std::vector<ProductReport> products;

  /// Confusion table of per-rating flags vs ground-truth labels, summed
  /// over the epoch's products (meaningful for simulated data only).
  DetectionMetrics rating_metrics;

  /// True when any product in the epoch degraded to the beta-filter-only
  /// path (see ProductReport::detector_degraded).
  bool detector_degraded = false;
};

class TrustEnhancedRatingSystem {
 public:
  explicit TrustEnhancedRatingSystem(SystemConfig config = {});
  ~TrustEnhancedRatingSystem();
  TrustEnhancedRatingSystem(TrustEnhancedRatingSystem&&) noexcept;
  TrustEnhancedRatingSystem& operator=(TrustEnhancedRatingSystem&&) noexcept;

  /// Processes one epoch: filters each product's ratings, runs the AR
  /// detector on the survivors, and applies Procedure 2 to every rater
  /// active in the epoch. Forgetting is applied before the update.
  ///
  /// The per-product stage runs on the epoch engine
  /// (SystemConfig::epoch_workers); reports are merged in input order and
  /// the trust evidence through a single evidence run, so results do not
  /// depend on the worker count.
  EpochReport process_epoch(std::span<const ProductObservation> observations);

  /// Second half of process_epoch for pre-analyzed products: folds
  /// `products` (slot i analyzing observation i, produced by
  /// parallel::analyze_product — e.g. on another system's engine) into
  /// this system's trust state. Reduces them into one evidence run and
  /// folds it exactly as process_epoch does.
  EpochReport merge_epoch(std::span<const ProductObservation> observations,
                          std::vector<ProductReport> products);

  /// merge_epoch for evidence already reduced elsewhere: `runs` together
  /// cover exactly `products` (e.g. one run per shard, each reduced from
  /// that shard's slice). Runs the fade, the k-way rater fold of the runs,
  /// Procedure 2 in rater order, and observability. With `observations`
  /// in product-ID order the result is bitwise-identical to process_epoch
  /// on the whole epoch, however the products were split into runs: the
  /// counts are integers and each rater's terms are summed in ascending
  /// order (DESIGN.md §14).
  EpochReport merge_epoch(std::span<const ProductObservation> observations,
                          std::vector<ProductReport> products,
                          std::span<const EvidenceRun> runs);

  /// Trust in a rater (0.5 for unknown raters).
  double trust(RaterId id) const { return store_.trust(id); }

  /// All raters currently below the malicious threshold.
  std::vector<RaterId> malicious() const;

  /// Trust-weighted aggregated rating for a product's ratings: the filter
  /// is applied, per-rater means are formed (the paper assumes one rating
  /// per rater), and the configured aggregator combines them with current
  /// trust. Requires a non-empty series.
  double aggregate(const RatingSeries& ratings) const;

  /// Aggregate with an explicit scheme (for the scheme-comparison figures).
  double aggregate_with(const RatingSeries& ratings, agg::AggregatorKind kind) const;

  /// Adds rater-on-rater feedback for indirect trust.
  void add_recommendation(const trust::Recommendation& rec);

  /// Direct + indirect combined trust (uses the recommendation buffer).
  double combined_trust(RaterId id) const;

  const trust::TrustStore& trust_store() const { return store_; }
  const SystemConfig& config() const { return config_; }
  std::size_t epochs_processed() const { return epochs_; }

  /// Checkpoint support: replaces the accumulated trust evidence and the
  /// epoch counter with recovered state (core/checkpoint.hpp). The
  /// recommendation buffer is not part of streaming state and is left
  /// untouched.
  void restore(trust::TrustStore store, std::size_t epochs_processed);

  /// Attaches the observability bundle (DESIGN.md §11): epoch stage spans,
  /// detection audit events (filtered ratings, suspicious intervals, C(i)
  /// increments, trust demotions), and the filter/detector instruments.
  /// Strictly out-of-band — process_epoch results and the trust store are
  /// bitwise-identical with any combination of sinks. Not checkpointed;
  /// call before processing (never concurrently with it).
  void set_observability(const obs::Observability& o);

 private:
  /// Shared tail of process_epoch / merge_epoch: fade, slot-order report
  /// assembly, the fold of `runs`, Procedure 2, epoch counter,
  /// observability.
  EpochReport merge_epoch_impl(std::uint64_t epoch_ordinal,
                               std::span<const ProductObservation> observations,
                               std::vector<ProductReport> products,
                               std::span<const EvidenceRun> runs);

  /// K-way merges `runs` by rater into folded_: integer counts added,
  /// each rater's sorted term lists merged and summed in ascending order.
  void fold(std::span<const EvidenceRun> runs);

  /// Deterministic-count metrics and audit-log emissions for one processed
  /// epoch, in canonical order (slot, then window position, then rater).
  void finish_epoch_observability(
      std::uint64_t epoch_ordinal, const EpochReport& report,
      std::span<const ProductObservation> observations);

  /// (Re-)attaches the trust-store update observer that feeds
  /// trust_transitions_ (store replacement on restore drops it).
  void wire_store_observer();

  SystemConfig config_;
  detect::BetaQuantileFilter filter_;
  detect::ArSuspicionDetector detector_;
  std::unique_ptr<parallel::EpochEngine> engine_;
  trust::TrustStore store_;
  trust::RecommendationBuffer recommendations_;
  std::size_t epochs_ = 0;

  obs::Observability obs_;
  obs::Histogram* epoch_seconds_ = nullptr;
  obs::Histogram* analyze_seconds_ = nullptr;
  obs::Histogram* trust_update_seconds_ = nullptr;
  obs::Counter* suspicious_intervals_ = nullptr;
  obs::Counter* trust_demotions_ = nullptr;

  /// Single-run path of process_epoch / merge_epoch(observations,
  /// products): the reducer's scratch and the run are reused per epoch.
  EvidenceReducer reducer_;
  EvidenceRun run_;

  /// Scratch of the epoch in flight: the folded per-rater evidence in
  /// rater order, and the fold's term-merge buffers.
  std::vector<std::pair<RaterId, trust::EpochObservation>> folded_;
  struct FoldCursor {
    std::size_t rater = 0;  ///< next entry of the run's `raters`
    std::size_t term = 0;   ///< first unfolded entry of the run's `terms`
  };
  std::vector<FoldCursor> fold_cursors_;
  std::vector<double> fold_terms_;
  std::vector<double> fold_terms_tmp_;

  /// Scratch: (rater, before, after) per Procedure-2 update of the epoch
  /// in flight, filled by the store observer — in rater order, because the
  /// updates run in rater order.
  struct TrustTransition {
    RaterId rater;
    double before;
    double after;
  };
  std::vector<TrustTransition> trust_transitions_;
};

}  // namespace trustrate::core
