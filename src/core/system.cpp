#include "core/system.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "core/parallel/epoch_engine.hpp"

namespace trustrate::core {

namespace {

// Evidence keys: rater << 2 | kind. A credit key marks a rater that holds
// a C(i) term, so every credited rater has a key group even if (against
// the detector's contract) it had no rating in the slice.
constexpr std::uint64_t kRatingKey = 0;
constexpr std::uint64_t kFilteredKey = 1;
constexpr std::uint64_t kSuspiciousKey = 2;
constexpr std::uint64_t kCreditKey = 3;

std::uint64_t evidence_key(RaterId rater, std::uint64_t kind) {
  return (static_cast<std::uint64_t>(rater) << 2) | kind;
}

/// Stable LSD radix sort of `items` by rater_of(item), one byte per pass
/// and only as many passes as the largest rater needs (two for up to 65k
/// raters). Allocation-free once `tmp` has grown to the input size.
template <typename T, typename RaterOf>
void sort_by_rater(std::vector<T>& items, std::vector<T>& tmp,
                   RaterOf rater_of) {
  RaterId all_bits = 0;
  for (const T& x : items) all_bits |= rater_of(x);
  tmp.resize(items.size());
  std::array<std::size_t, 256> offsets;
  for (unsigned shift = 0; shift < 32 && (all_bits >> shift) != 0;
       shift += 8) {
    const auto digit = [&](const T& x) {
      return (rater_of(x) >> shift) & 0xFFu;
    };
    offsets.fill(0);
    for (const T& x : items) ++offsets[digit(x)];
    std::size_t total = 0;
    for (std::size_t& o : offsets) total += std::exchange(o, total);
    for (const T& x : items) tmp[offsets[digit(x)]++] = x;
    items.swap(tmp);
  }
}

RaterId key_rater(std::uint64_t key) { return static_cast<RaterId>(key >> 2); }

}  // namespace

void EvidenceReducer::reduce(const SystemConfig& config,
                             std::span<const ProductObservation> observations,
                             std::span<const ProductReport> products,
                             EvidenceRun& out) {
  keys_.clear();
  credits_.clear();
  for (std::size_t slot = 0; slot < observations.size(); ++slot) {
    const ProductObservation& obs = observations[slot];
    const ProductReport& pr = products[slot];
    const RatingSeries& detector_input =
        config.detector_on_filtered ? pr.kept : obs.ratings;
    for (const Rating& r : obs.ratings) {
      keys_.push_back(evidence_key(r.rater, kRatingKey));
    }
    for (const std::size_t i : pr.filter_outcome.removed) {
      keys_.push_back(evidence_key(obs.ratings[i].rater, kFilteredKey));
    }
    // s_i counts *ratings* inside suspicious windows (per product).
    for (std::size_t k = 0; k < detector_input.size(); ++k) {
      if (pr.suspicion.in_suspicious_window[k]) {
        keys_.push_back(
            evidence_key(detector_input[k].rater, kSuspiciousKey));
      }
    }
    for (const auto& [rater, c] : pr.suspicion.suspicion) {
      keys_.push_back(evidence_key(rater, kCreditKey));
      credits_.emplace_back(rater, c);
    }
  }
  sort_by_rater(keys_, keys_tmp_, key_rater);
  sort_by_rater(credits_, credits_tmp_,
                [](const std::pair<RaterId, double>& c) { return c.first; });

  out.raters.clear();
  out.terms.clear();
  std::size_t credit = 0;
  for (std::size_t i = 0; i < keys_.size();) {
    EvidenceRun::Entry e;
    e.rater = key_rater(keys_[i]);
    for (; i < keys_.size() && key_rater(keys_[i]) == e.rater; ++i) {
      switch (keys_[i] & 3) {
        case kRatingKey: ++e.ratings; break;
        case kFilteredKey: ++e.filtered; break;
        case kSuspiciousKey: ++e.suspicious; break;
        default: break;  // kCreditKey: the terms are counted below
      }
    }
    for (; credit < credits_.size() && credits_[credit].first == e.rater;
         ++credit) {
      out.terms.push_back(credits_[credit].second);
      ++e.terms;
    }
    // Ascending within the rater: the canonical summation order of C(i)
    // (DESIGN.md §9, §14). A rater holds one term per credited product.
    std::sort(out.terms.end() - static_cast<std::ptrdiff_t>(e.terms),
              out.terms.end());
    out.raters.push_back(e);
  }
}

TrustEnhancedRatingSystem::TrustEnhancedRatingSystem(SystemConfig config)
    : config_(config), filter_(config.filter), detector_(config.ar),
      engine_(std::make_unique<parallel::EpochEngine>(config.epoch_workers)) {
  TRUSTRATE_EXPECTS(config_.b >= 0.0, "Procedure 2 parameter b must be >= 0");
  TRUSTRATE_EXPECTS(config_.forgetting > 0.0 && config_.forgetting <= 1.0,
                    "forgetting factor must be in (0, 1]");
  TRUSTRATE_EXPECTS(config_.malicious_threshold > 0.0 &&
                        config_.malicious_threshold < 1.0,
                    "malicious threshold must be in (0, 1)");
}

TrustEnhancedRatingSystem::~TrustEnhancedRatingSystem() = default;

// Moves are member-wise except for the trust-store observer, which captures
// `this` (wire_store_observer) and must be re-bound to the new address.
// The per-epoch scratch (reducer, run, fold buffers) is not state and is
// left behind.
TrustEnhancedRatingSystem::TrustEnhancedRatingSystem(
    TrustEnhancedRatingSystem&& other) noexcept
    : config_(other.config_),
      filter_(std::move(other.filter_)),
      detector_(std::move(other.detector_)),
      engine_(std::move(other.engine_)),
      store_(std::move(other.store_)),
      recommendations_(std::move(other.recommendations_)),
      epochs_(other.epochs_),
      obs_(other.obs_),
      epoch_seconds_(other.epoch_seconds_),
      analyze_seconds_(other.analyze_seconds_),
      trust_update_seconds_(other.trust_update_seconds_),
      suspicious_intervals_(other.suspicious_intervals_),
      trust_demotions_(other.trust_demotions_),
      trust_transitions_(std::move(other.trust_transitions_)) {
  wire_store_observer();
}

TrustEnhancedRatingSystem& TrustEnhancedRatingSystem::operator=(
    TrustEnhancedRatingSystem&& other) noexcept {
  if (this != &other) {
    config_ = other.config_;
    filter_ = std::move(other.filter_);
    detector_ = std::move(other.detector_);
    engine_ = std::move(other.engine_);
    store_ = std::move(other.store_);
    recommendations_ = std::move(other.recommendations_);
    epochs_ = other.epochs_;
    obs_ = other.obs_;
    epoch_seconds_ = other.epoch_seconds_;
    analyze_seconds_ = other.analyze_seconds_;
    trust_update_seconds_ = other.trust_update_seconds_;
    suspicious_intervals_ = other.suspicious_intervals_;
    trust_demotions_ = other.trust_demotions_;
    trust_transitions_ = std::move(other.trust_transitions_);
    wire_store_observer();
  }
  return *this;
}

EpochReport TrustEnhancedRatingSystem::process_epoch(
    std::span<const ProductObservation> observations) {
  const auto epoch_ordinal = static_cast<std::uint64_t>(epochs_) + 1;
  const obs::SpanTimer epoch_span(obs_.trace, "epoch.process", epoch_ordinal);
  const std::uint64_t epoch_t0 =
      epoch_seconds_ != nullptr ? obs::monotonic_ns() : 0;
  // Stage 1 — independent per-product analysis (filter → Procedure 1 →
  // flags), sharded across the epoch engine. Slot i of `products` holds
  // observation i's report regardless of which worker computed it. The
  // stage never reads the trust store, so the evidence fade can happen in
  // the merge half below with identical results.
  const parallel::StageContext ctx{&config_, &filter_, &detector_, &obs_};
  std::vector<ProductReport> products;
  {
    const obs::SpanTimer span(obs_.trace, "epoch.analyze", epoch_ordinal);
    const std::uint64_t t0 =
        analyze_seconds_ != nullptr ? obs::monotonic_ns() : 0;
    products = engine_->analyze(observations, ctx);
    if (analyze_seconds_ != nullptr) {
      analyze_seconds_->observe(
          static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
    }
  }

  // The unsharded epoch is a single slice: one run, the same fold.
  reducer_.reduce(config_, observations, products, run_);
  EpochReport report = merge_epoch_impl(epoch_ordinal, observations,
                                        std::move(products), {&run_, 1});
  if (epoch_seconds_ != nullptr) {
    epoch_seconds_->observe(
        static_cast<double>(obs::monotonic_ns() - epoch_t0) * 1e-9);
  }
  return report;
}

EpochReport TrustEnhancedRatingSystem::merge_epoch(
    std::span<const ProductObservation> observations,
    std::vector<ProductReport> products) {
  TRUSTRATE_EXPECTS(products.size() == observations.size(),
                    "merge_epoch: one report per observation required");
  reducer_.reduce(config_, observations, products, run_);
  return merge_epoch(observations, std::move(products), {&run_, 1});
}

EpochReport TrustEnhancedRatingSystem::merge_epoch(
    std::span<const ProductObservation> observations,
    std::vector<ProductReport> products, std::span<const EvidenceRun> runs) {
  TRUSTRATE_EXPECTS(products.size() == observations.size(),
                    "merge_epoch: one report per observation required");
  const auto epoch_ordinal = static_cast<std::uint64_t>(epochs_) + 1;
  const obs::SpanTimer epoch_span(obs_.trace, "epoch.merge", epoch_ordinal);
  return merge_epoch_impl(epoch_ordinal, observations, std::move(products),
                          runs);
}

EpochReport TrustEnhancedRatingSystem::merge_epoch_impl(
    std::uint64_t epoch_ordinal, std::span<const ProductObservation> observations,
    std::vector<ProductReport> products, std::span<const EvidenceRun> runs) {
  EpochReport report;

  // Record maintenance: fade old evidence before folding in the new epoch.
  if (config_.forgetting < 1.0) store_.fade_all(config_.forgetting);

  // Stage 2 — the report in input-slot order, so the confusion table
  // accumulates in exactly the serial loop's order at any worker count.
  report.products.reserve(products.size());
  for (std::size_t slot = 0; slot < observations.size(); ++slot) {
    ProductReport& pr = products[slot];
    report.detector_degraded |= pr.detector_degraded;
    report.rating_metrics +=
        score_rating_flags(observations[slot].ratings, pr.flagged);
    report.products.push_back(std::move(pr));
  }

  // Observation buffer: n / f / s / C per rater, from the reduced runs.
  fold(runs);

  // Procedure 2: one trust update per active rater, in rater order.
  trust_transitions_.clear();
  {
    const obs::SpanTimer span(obs_.trace, "epoch.trust_update", epoch_ordinal);
    const std::uint64_t t0 =
        trust_update_seconds_ != nullptr ? obs::monotonic_ns() : 0;
    for (const auto& [rater, o] : folded_) store_.update(rater, o, config_.b);
    if (trust_update_seconds_ != nullptr) {
      trust_update_seconds_->observe(
          static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
    }
  }
  ++epochs_;
  if (obs_.enabled()) {
    finish_epoch_observability(epoch_ordinal, report, observations);
  }
  return report;
}

void TrustEnhancedRatingSystem::fold(std::span<const EvidenceRun> runs) {
  folded_.clear();
  fold_cursors_.assign(runs.size(), FoldCursor{});
  for (;;) {
    // The smallest rater at any run's head.
    bool any = false;
    RaterId rater = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (fold_cursors_[k].rater == runs[k].raters.size()) continue;
      const RaterId head = runs[k].raters[fold_cursors_[k].rater].rater;
      if (!any || head < rater) rater = head;
      any = true;
    }
    if (!any) break;

    // Counts are integers and add in any order. Each run's terms for the
    // rater are sorted, so merging the lists yields the rater's terms in
    // ascending order: the canonical sum (DESIGN.md §9), whatever the
    // split of products into runs. C(i) is then invariant under shard
    // count, worker count and product relabeling (src/testkit checks all
    // three).
    trust::EpochObservation o;
    fold_terms_.clear();
    for (std::size_t k = 0; k < runs.size(); ++k) {
      FoldCursor& at = fold_cursors_[k];
      if (at.rater == runs[k].raters.size() ||
          runs[k].raters[at.rater].rater != rater) {
        continue;
      }
      const EvidenceRun::Entry& e = runs[k].raters[at.rater++];
      o.ratings += e.ratings;
      o.filtered += e.filtered;
      o.suspicious += e.suspicious;
      const auto first =
          runs[k].terms.begin() + static_cast<std::ptrdiff_t>(at.term);
      const auto last = first + e.terms;
      at.term += e.terms;
      fold_terms_tmp_.resize(fold_terms_.size() + e.terms);
      std::merge(fold_terms_.begin(), fold_terms_.end(), first, last,
                 fold_terms_tmp_.begin());
      fold_terms_.swap(fold_terms_tmp_);
    }
    for (const double term : fold_terms_) o.suspicion_value += term;
    folded_.emplace_back(rater, o);
  }
}

void TrustEnhancedRatingSystem::set_observability(const obs::Observability& o) {
  obs_ = o;
  filter_.set_observability(o);
  detector_.set_observability(o);
  if (o.metrics != nullptr) {
    epoch_seconds_ = &o.metrics->histogram(
        "trustrate_epoch_process_seconds", obs::default_seconds_buckets(),
        "Full process_epoch wall time");
    analyze_seconds_ = &o.metrics->histogram(
        "trustrate_epoch_analyze_seconds", obs::default_seconds_buckets(),
        "Per-product analysis stage (filter + AR sweep) wall time");
    trust_update_seconds_ = &o.metrics->histogram(
        "trustrate_epoch_trust_update_seconds", obs::default_seconds_buckets(),
        "Procedure-2 trust update stage wall time");
    suspicious_intervals_ = &o.metrics->counter(
        "trustrate_suspicious_intervals_total",
        "Suspicious window runs opened by Procedure 1");
    trust_demotions_ = &o.metrics->counter(
        "trustrate_trust_demotions_total",
        "Raters whose trust crossed below the malicious threshold");
  } else {
    epoch_seconds_ = nullptr;
    analyze_seconds_ = nullptr;
    trust_update_seconds_ = nullptr;
    suspicious_intervals_ = nullptr;
    trust_demotions_ = nullptr;
  }
  wire_store_observer();
}

void TrustEnhancedRatingSystem::wire_store_observer() {
  if (obs_.enabled()) {
    store_.set_update_observer([this](RaterId id, double before, double after) {
      trust_transitions_.push_back({id, before, after});
    });
  } else {
    store_.set_update_observer({});
  }
}

void TrustEnhancedRatingSystem::finish_epoch_observability(
    std::uint64_t epoch_ordinal, const EpochReport& report,
    std::span<const ProductObservation> observations) {
  const double threshold = config_.ar.error_threshold;

  // Per product (input-slot order): filtered ratings, then suspicious
  // window runs. Both streams are deterministic — slot order is the
  // epoch's canonical product order and windows are time-ordered.
  for (std::size_t slot = 0; slot < report.products.size(); ++slot) {
    const ProductReport& pr = report.products[slot];
    const ProductObservation& po = observations[slot];
    if (obs_.audit != nullptr) {
      for (const std::size_t i : pr.filter_outcome.removed) {
        obs::AuditEvent e;
        e.type = obs::AuditEventType::kRatingFiltered;
        e.epoch = epoch_ordinal;
        e.rater = po.ratings[i].rater;
        e.product = pr.product;
        e.value = po.ratings[i].value;
        obs_.audit->record(e);
      }
    }
    // A suspicious *interval* opens at each evaluated-window transition
    // into suspicion (the run bookkeeping of Procedure 1, DESIGN.md §6).
    bool prev_suspicious = false;
    for (const detect::WindowReport& w : pr.suspicion.windows) {
      if (!w.evaluated) continue;
      if (w.suspicious && !prev_suspicious) {
        if (suspicious_intervals_ != nullptr) suspicious_intervals_->add();
        if (obs_.audit != nullptr) {
          obs::AuditEvent e;
          e.type = obs::AuditEventType::kSuspiciousInterval;
          e.epoch = epoch_ordinal;
          e.product = pr.product;
          e.window_start = w.window.start;
          e.window_end = w.window.end;
          e.model_error = w.model_error;
          e.threshold = threshold;
          e.value = w.level;
          obs_.audit->record(e);
        }
      }
      prev_suspicious = w.suspicious;
    }
  }

  // C(i) increments, rater-sorted (the fold's order): the soft-evidence
  // half of Procedure 2, with the epoch's hard counts in `detail` so the
  // update is replayable from the log alone.
  if (obs_.audit != nullptr) {
    for (const auto& [rater, o] : folded_) {
      if (!(o.suspicion_value > 0.0)) continue;
      obs::AuditEvent e;
      e.type = obs::AuditEventType::kSuspicionIncrement;
      e.epoch = epoch_ordinal;
      e.rater = rater;
      e.value = o.suspicion_value;
      e.detail = "n=" + std::to_string(o.ratings) +
                 " f=" + std::to_string(o.filtered) +
                 " s=" + std::to_string(o.suspicious);
      obs_.audit->record(e);
    }
  }

  // Trust demotions, rater-sorted (the update order): Procedure-2 updates
  // that moved a rater from at-or-above the malicious threshold to below it.
  for (const TrustTransition& t : trust_transitions_) {
    if (!(t.before >= config_.malicious_threshold &&
          t.after < config_.malicious_threshold)) {
      continue;
    }
    if (trust_demotions_ != nullptr) trust_demotions_->add();
    if (obs_.audit != nullptr) {
      obs::AuditEvent e;
      e.type = obs::AuditEventType::kTrustDemotion;
      e.epoch = epoch_ordinal;
      e.rater = t.rater;
      e.threshold = config_.malicious_threshold;
      e.value = t.after;
      e.detail = "before=" + std::to_string(t.before);
      obs_.audit->record(e);
    }
  }
  trust_transitions_.clear();
}

std::vector<RaterId> TrustEnhancedRatingSystem::malicious() const {
  return store_.below(config_.malicious_threshold);
}

double TrustEnhancedRatingSystem::aggregate(const RatingSeries& ratings) const {
  return aggregate_with(ratings, config_.aggregator);
}

double TrustEnhancedRatingSystem::aggregate_with(const RatingSeries& ratings,
                                                 agg::AggregatorKind kind) const {
  TRUSTRATE_EXPECTS(!ratings.empty(), "cannot aggregate an empty series");

  // Apply the filter first (the aggregator only sees normal ratings).
  RatingSeries kept = config_.enable_filter
                          ? filter_.filter(ratings).kept_series(ratings)
                          : ratings;
  if (kept.empty()) kept = ratings;  // filter nuked everything: fall back

  // One rating per rater: average multiple ratings from the same rater.
  std::unordered_map<RaterId, std::pair<double, std::size_t>> per_rater;
  for (const Rating& r : kept) {
    auto& [sum, count] = per_rater[r.rater];
    sum += r.value;
    ++count;
  }
  std::vector<agg::TrustedRating> trusted;
  trusted.reserve(per_rater.size());
  for (const auto& [rater, sum_count] : per_rater) {
    trusted.push_back({sum_count.first / static_cast<double>(sum_count.second),
                       store_.trust(rater)});
  }
  return agg::make_aggregator(kind)->aggregate(trusted);
}

void TrustEnhancedRatingSystem::restore(trust::TrustStore store,
                                        std::size_t epochs_processed) {
  store_ = std::move(store);
  epochs_ = epochs_processed;
  // The moved-in store has no observer; re-attach ours (the hook is not
  // checkpoint state — see TrustStore::set_update_observer).
  wire_store_observer();
}

void TrustEnhancedRatingSystem::add_recommendation(const trust::Recommendation& rec) {
  recommendations_.add(rec);
}

double TrustEnhancedRatingSystem::combined_trust(RaterId id) const {
  return trust::combined_trust(store_, recommendations_, id);
}

}  // namespace trustrate::core
