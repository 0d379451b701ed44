#include "core/shard/sharded_system.hpp"

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/parallel/epoch_engine.hpp"

namespace trustrate::core::shard {

namespace {

/// The merge authority never runs stage 1, so its engine stays serial
/// regardless of the configured worker count (per-shard engines get the
/// workers instead).
SystemConfig merge_config(SystemConfig config) {
  config.epoch_workers = 1;
  return config;
}

/// Spin rounds between watchdog observations in a supervised wait; an
/// observation round counts as a supervision tick once kSupervisionTickNs
/// has passed since the last counted one.
constexpr std::size_t kWaitSpinLimit = 64;

/// Span size for batched ring transfers (submitter inbox publication,
/// worker inbox drain, merge outbox refill): one index handoff per span
/// instead of per event.
constexpr std::size_t kDrainBatch = 32;

/// Folded runs a shard keeps for reuse. Two suffice for a shard one cell
/// ahead of the merger; the slack covers a merger that briefly lags.
constexpr std::size_t kSpareRuns = 4;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs::monotonic_ns() - t0_ns) * 1e-9;
}

std::string describe_exception(std::exception_ptr error) {
  if (!error) return "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

}  // namespace

ShardedRatingSystem::Shard::Shard(const SystemConfig& config,
                                  std::size_t workers,
                                  std::size_t queue_capacity)
    : filter(config.filter),
      detector(config.ar),
      engine(std::make_unique<parallel::EpochEngine>(workers)),
      spare_runs(kSpareRuns),
      inbox(queue_capacity),
      outbox(queue_capacity) {}

ShardedRatingSystem::ShardedRatingSystem(SystemConfig config,
                                         ShardOptions options,
                                         double epoch_days,
                                         std::size_t retention_epochs,
                                         IngestConfig ingest)
    : config_(config),
      options_(std::move(options)),
      merge_(merge_config(config)),
      epoch_days_(epoch_days),
      retention_epochs_(retention_epochs),
      ingest_(ingest) {
  TRUSTRATE_EXPECTS(epoch_days > 0.0, "epoch length must be positive");
  TRUSTRATE_EXPECTS(options_.shards >= 1, "shard count must be >= 1");
  const std::size_t workers =
      options_.epoch_workers != 0
          ? options_.epoch_workers
          : (config_.epoch_workers != 0 ? config_.epoch_workers : 1);
  shards_.reserve(options_.shards);
  for (std::size_t k = 0; k < options_.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(config_, workers, options_.queue_capacity));
  }

  // Dead letters are classified globally (the counters in IngestStats keep
  // their stream-wide meaning) but *stored* per shard with a per-shard cap
  // — the sink captures the global ordinal so the stores merge back into
  // arrival order for checkpoints and the quarantine() view.
  ingest_.set_quarantine_sink([this](QuarantinedRating&& q) {
    const std::uint64_t seq = ingest_.stats().quarantined;
    const std::size_t k = shard_index(q.rating.product);
    if (threads_running_) {
      // Staged like a rating, so each shard sees its events in routing
      // order whenever its span is published.
      ShardEvent e;
      e.type = ShardEvent::Type::kQuarantine;
      e.dead = std::make_unique<QuarantinedRating>(std::move(q));
      e.seq = seq;
      stage_event(k, std::move(e));
    } else {
      add_dead_letter(*shards_[k], std::move(q), seq);
    }
  });

  if (options_.threaded) start_threads();
}

ShardedRatingSystem::~ShardedRatingSystem() { stop_threads(); }

std::size_t ShardedRatingSystem::shard_index(ProductId product) const {
  const std::size_t n = shards_.size();
  if (options_.shard_fn) return options_.shard_fn(product, n) % n;
  return shard_of(product, n);
}

IngestClass ShardedRatingSystem::submit(const Rating& rating) {
  throw_if_failed();
  released_.clear();
  const IngestClass result = ingest_.submit(rating, released_);
  // Causal ID (ISSUE 10): the 1-based global submission ordinal of this
  // call. Every rating this call releases into routing is stamped with it,
  // so its path — classify → shard ring → epoch close → merge — can be
  // reconstructed from the trace sink. Zero cost with a null sink.
  current_causal_ = static_cast<std::uint64_t>(ingest_.stats().submitted);
  if (obs_.trace != nullptr) {
    obs::SpanTimer span(obs_.trace, "ingest.classify", 0,
                        static_cast<std::int64_t>(rating.product));
    span.set_causal(current_causal_);
    span.set_detail(std::string("verdict=") + to_string(result));
  }
  if (ingest_submitted_ != nullptr) {
    ingest_submitted_->add();
    switch (result) {
      case IngestClass::kAccepted:
        ingest_accepted_->add();
        break;
      case IngestClass::kReordered:
        ingest_accepted_->add();
        ingest_reordered_->add();
        break;
      case IngestClass::kDuplicate:
        ingest_duplicates_->add();
        break;
      case IngestClass::kLate:
        ingest_late_->add();
        ingest_quarantined_->add();
        break;
      case IngestClass::kMalformed:
        ingest_malformed_->add();
        ingest_quarantined_->add();
        break;
    }
  }
  for (const Rating& r : released_) route(r);
  current_causal_ = 0;
  update_gauges();
  return result;
}

void ShardedRatingSystem::route(const Rating& rating) {
  if (!anchored_) {
    anchored_ = true;
    epoch_start_ = rating.time;
  }
  last_time_ = rating.time;

  // Same boundary walk as StreamingRatingSystem::route: close every cell
  // the stream moved past; once NOTHING is pending anywhere, the rest of
  // the gap is fully empty and fast-forwards in O(1). A shard-local gap is
  // not a stream gap — shards with no data for a closing cell record a
  // skipped cell in analyze_cell instead of stalling or skipping others.
  while (rating.time >= epoch_start_ + epoch_days_) {
    if (pending_count_ == 0) {
      fast_forward_empty_epochs(rating.time);
      break;
    }
    issue_close(epoch_start_ + epoch_days_);
  }

  const std::size_t k = shard_index(rating.product);
  Shard& shard = *shards_[k];
  if (shard.routed_metric != nullptr) shard.routed_metric->add();
  if (threads_running_) {
    ShardEvent e;
    e.type = ShardEvent::Type::kRating;
    e.rating = rating;
    e.causal = current_causal_;
    stage_event(k, std::move(e));
  } else {
    shard.pending[rating.product].push_back(rating);
    // Inline mode: the coordinator owns the cell's causal range directly
    // (the worker owns it in threaded mode — never both).
    if (shard.cell_causal_lo == 0) shard.cell_causal_lo = current_causal_;
    shard.cell_causal_hi = current_causal_;
  }
  ++pending_count_;
}

void ShardedRatingSystem::fast_forward_empty_epochs(double now) {
  // now >= epoch_start_ + epoch_days_, so skip >= 1. Identical arithmetic
  // (including the FP boundary guards) to the unsharded stream and the
  // batch oracle — the three must land on the same grid cell.
  auto skip = static_cast<std::size_t>((now - epoch_start_) / epoch_days_);
  epoch_start_ += static_cast<double>(skip) * epoch_days_;
  while (epoch_start_ > now) {
    epoch_start_ -= epoch_days_;
    --skip;
  }
  while (now >= epoch_start_ + epoch_days_) {
    epoch_start_ += epoch_days_;
    ++skip;
  }
  skipped_empty_epochs_ += skip;
  if (epochs_skipped_empty_metric_ != nullptr) {
    epochs_skipped_empty_metric_->add(static_cast<std::uint64_t>(skip));
  }
}

void ShardedRatingSystem::issue_close(double epoch_end) {
  const std::uint64_t cell = cells_issued_++;
  const double cell_start = epoch_start_;
  if (threads_running_) {
    // Each close is staged behind its shard's ratings for this cell (per-
    // shard FIFO is the only ordering guarantee) and goes out at once.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      ShardEvent e;
      e.type = ShardEvent::Type::kClose;
      e.seq = cell;
      e.rating.time = cell_start;
      e.rating.value = epoch_end;
      stage_event(k, std::move(e));
    }
    publish_all();
  } else {
    std::vector<ShardResult> results;
    results.reserve(shards_.size());
    for (auto& shard : shards_) {
      results.push_back(analyze_cell(*shard, cell, cell_start, epoch_end));
    }
    merge_cell(std::move(results));
  }
  epoch_start_ = epoch_end;
  pending_count_ = 0;
}

ShardedRatingSystem::ShardResult ShardedRatingSystem::analyze_cell(
    Shard& shard, std::uint64_t cell, double epoch_start, double epoch_end) {
  ShardResult result;
  result.cell = cell;
  result.epoch_start = epoch_start;
  result.epoch_end = epoch_end;
  result.causal_lo = shard.cell_causal_lo;
  result.causal_hi = shard.cell_causal_hi;
  shard.cell_causal_lo = 0;
  shard.cell_causal_hi = 0;
  if (shard.pending.empty()) {
    // This shard saw nothing this cell — a shard-local gap. The close
    // still happens globally; only this shard's participation is skipped.
    ++shard.skipped_cells;
    shard.skipped_cells_pub.fetch_add(1, std::memory_order_relaxed);
    if (shard.skipped_metric != nullptr) shard.skipped_metric->add();
    return result;
  }

  const std::uint64_t t0 =
      shard.analyze_seconds != nullptr ? obs::monotonic_ns() : 0;

  result.observations.reserve(shard.pending.size());
  for (auto& [product, series] : shard.pending) {
    ProductObservation obs;
    obs.product = product;
    obs.t_start = epoch_start;
    obs.t_end = epoch_end;
    obs.ratings = std::move(series);
    result.observations.push_back(std::move(obs));
  }
  shard.pending.clear();
  std::sort(result.observations.begin(), result.observations.end(),
            [](const ProductObservation& a, const ProductObservation& b) {
              return a.product < b.product;
            });

  {
    obs::SpanTimer span(
        obs_.trace,
        shard.analyze_span_name.empty() ? "shard.analyze"
                                        : shard.analyze_span_name.c_str(),
        cell + 1);
    if (result.causal_hi != 0) {
      span.set_causal(result.causal_hi);
      span.set_detail("causal=[" + std::to_string(result.causal_lo) + "," +
                      std::to_string(result.causal_hi) + "]");
    }
    const parallel::StageContext ctx{&config_, &shard.filter, &shard.detector,
                                     &obs_};
    result.reports = shard.engine->analyze(result.observations, ctx);
    // Procedure 2's per-rater reduction, off the merge thread, into a run
    // the merger handed back when there is one (it keeps its capacity).
    if (!shard.spare_runs.try_pop(result.run)) {
      result.run = std::make_unique<EvidenceRun>();
    }
    shard.reducer.reduce(config_, result.observations, result.reports,
                         *result.run);
  }
  if (shard.analyze_seconds != nullptr) {
    shard.analyze_seconds->observe(seconds_since(t0));
  }
  if (shard.cells_metric != nullptr) shard.cells_metric->add();

  // Retention is shard-local state; the observations themselves travel to
  // the merger, so the retained window keeps a copy.
  for (const ProductObservation& obs : result.observations) {
    Shard::Retained& r = shard.retained[obs.product];
    r.epochs.push_back(obs.ratings);
    if (r.epochs.size() > retention_epochs_) {
      r.epochs.erase(r.epochs.begin());
    }
  }
  return result;
}

void ShardedRatingSystem::merge_cell(std::vector<ShardResult> results) {
  const std::uint64_t t0 =
      merge_cell_seconds_ != nullptr ? obs::monotonic_ns() : 0;
  const double cell_start = results.front().epoch_start;
  const double cell_end = results.front().epoch_end;

  // Merge span carries the cell's whole causal range (min/max of the
  // shard slices), closing the ingest → ring → close → merge trace chain.
  obs::SpanTimer merge_span(obs_.trace, "merge.cell",
                            results.front().cell + 1);
  if (obs_.trace != nullptr) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (const ShardResult& r : results) {
      if (r.causal_lo == 0) continue;
      if (lo == 0 || r.causal_lo < lo) lo = r.causal_lo;
      if (r.causal_hi > hi) hi = r.causal_hi;
    }
    if (hi != 0) {
      merge_span.set_causal(hi);
      merge_span.set_detail("causal=[" + std::to_string(lo) + "," +
                            std::to_string(hi) + "]");
    }
  }

  std::vector<ProductObservation> observations;
  std::vector<ProductReport> reports;
  cell_runs_.clear();
  for (ShardResult& r : results) {
    observations.insert(observations.end(),
                        std::make_move_iterator(r.observations.begin()),
                        std::make_move_iterator(r.observations.end()));
    reports.insert(reports.end(), std::make_move_iterator(r.reports.begin()),
                   std::make_move_iterator(r.reports.end()));
    // The fold takes the runs side by side; moving a run moves only its
    // vectors' buffers, which go back into the box below.
    if (r.run) cell_runs_.push_back(std::move(*r.run));
  }

  // Canonical product order for the report and the audit log: each shard
  // slice is sorted and the slices are disjoint, so sorting the
  // concatenation recreates exactly the unsharded close's product order.
  std::vector<std::size_t> order(observations.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return observations[a].product < observations[b].product;
  });
  std::vector<ProductObservation> sorted_obs;
  sorted_obs.reserve(observations.size());
  std::vector<ProductReport> sorted_reports;
  sorted_reports.reserve(reports.size());
  for (const std::size_t i : order) {
    sorted_obs.push_back(std::move(observations[i]));
    sorted_reports.push_back(std::move(reports[i]));
  }

  EpochHealth health = EpochHealth::kHealthy;
  if (!sorted_obs.empty()) {
    const EpochReport report =
        merge_.merge_epoch(sorted_obs, std::move(sorted_reports), cell_runs_);
    if (report.detector_degraded) health = EpochHealth::kDegradedDetector;
    last_close_products_ = sorted_obs.size();
    if (epoch_observer_) epoch_observer_(report, cell_start, cell_end);
  } else {
    // Unreachable through the coordinator (it only closes when something
    // is pending), kept for defensive parity with the unsharded close.
    last_close_products_ = 0;
  }
  for (std::size_t k = 0, i = 0; k < results.size(); ++k) {
    if (!results[k].run) continue;
    *results[k].run = std::move(cell_runs_[i++]);
    shards_[k]->spare_runs.try_push(std::move(results[k].run));
  }
  ++epochs_closed_;
  epoch_health_.push_back(health);
  if (epochs_closed_metric_ != nullptr) epochs_closed_metric_->add();
  if (health == EpochHealth::kDegradedDetector) {
    if (epochs_degraded_metric_ != nullptr) epochs_degraded_metric_->add();
    if (obs_.audit != nullptr) {
      obs::AuditEvent e;
      e.type = obs::AuditEventType::kDegradedEpoch;
      e.epoch = static_cast<std::uint64_t>(epochs_closed_);
      e.window_start = cell_start;
      e.window_end = cell_end;
      e.detail = "AR detector contributed nothing; beta-filter-only path";
      obs_.audit->record(e);
    }
  }
  if (merge_cell_seconds_ != nullptr) {
    merge_cell_seconds_->observe(seconds_since(t0));
  }
  // Publishes every merge-thread write above to quiescing readers.
  cells_merged_.fetch_add(1, std::memory_order_release);
}

std::size_t ShardedRatingSystem::flush() {
  throw_if_failed();
  released_.clear();
  ingest_.drain(released_);
  // Drained ratings are admitted by this flush; their causal ID is the
  // newest submission ordinal (the one whose flush released them).
  current_causal_ = static_cast<std::uint64_t>(ingest_.stats().submitted);
  for (const Rating& r : released_) route(r);
  if (!anchored_ || pending_count_ == 0) {
    current_causal_ = 0;
    quiesce();
    update_gauges();
    return 0;
  }
  issue_close(std::max(last_time_ + 1e-9, epoch_start_ + epoch_days_));
  current_causal_ = 0;
  quiesce();
  update_gauges();
  return last_close_products_;
}

void ShardedRatingSystem::add_dead_letter(Shard& shard,
                                          QuarantinedRating&& entry,
                                          std::uint64_t seq) {
  shard.quarantine.push_back({std::move(entry), seq});
  while (shard.quarantine.size() > ingest_.config().max_quarantine) {
    shard.quarantine.pop_front();
  }
  // Occupancy mirror for probe(): the owner thread is the only writer.
  shard.quarantine_size.store(shard.quarantine.size(),
                              std::memory_order_relaxed);
}

// ------------------------------------------------------------- threading

void ShardedRatingSystem::stage_event(std::size_t k, ShardEvent&& event) {
  std::vector<ShardEvent>& span = shards_[k]->staged;
  span.push_back(std::move(event));
  if (span.size() >= kDrainBatch) publish(k);
}

void ShardedRatingSystem::publish(std::size_t k) const {
  Shard& shard = *shards_[k];
  std::vector<ShardEvent>& span = shard.staged;
  if (span.empty()) return;
  std::size_t done = 0;
  std::size_t spins = 0;
  while (done < span.size()) {
    done += shard.inbox.try_push_n(span.data() + done, span.size() - done);
    if (done == span.size()) break;
    if (shard.inbox.closed()) {
      // Closed mid-stream only by a latched failure; surface it.
      span.clear();
      throw_if_failed();
      return;  // unreachable unless closed during shutdown — drop
    }
    if (++spins >= kWaitSpinLimit) {
      supervised_tick();  // throws once a stall/poison is classified
      std::this_thread::yield();
      spins = 0;
    }
  }
  // Coordinator-owned counter: relaxed is enough (workers only read it
  // for approximate diagnostics).
  shard.events_pushed.store(
      shard.events_pushed.load(std::memory_order_relaxed) + span.size(),
      std::memory_order_relaxed);
  span.clear();
}

void ShardedRatingSystem::publish_all() const {
  if (!threads_running_) return;
  for (std::size_t k = 0; k < shards_.size(); ++k) publish(k);
}

void ShardedRatingSystem::shard_worker(std::size_t k) {
  Shard& shard = *shards_[k];
  try {
    // Draining in spans amortizes the ring's cache-line handoff: one
    // acquire/release pair covers up to kDrainBatch events.
    std::vector<ShardEvent> batch(kDrainBatch);
    for (;;) {
      const std::size_t n = shard.inbox.pop_n(batch.data(), kDrainBatch);
      if (n == 0) return;  // closed and drained: failure or shutdown
      for (std::size_t i = 0; i < n; ++i) {
        ShardEvent& event = batch[i];
        // Heartbeat marks "started an event"; events_processed marks
        // "finished it" — the gap tells the watchdog's diagnostic whether
        // the worker is wedged mid-event or between events.
        shard.heartbeat.fetch_add(1, std::memory_order_relaxed);
        if (options_.event_hook) {
          ShardEventContext ctx;
          ctx.shard = k;
          ctx.ordinal = shard.events_processed.load(std::memory_order_relaxed);
          ctx.abort = &shard.abort_requested;
          options_.event_hook(ctx);
        }
        bool stop = false;
        switch (event.type) {
          case ShardEvent::Type::kRating:
            shard.pending[event.rating.product].push_back(event.rating);
            // Worker-owned causal range for the cell in progress; the
            // coordinator never touches these fields in threaded mode.
            if (shard.cell_causal_lo == 0) shard.cell_causal_lo = event.causal;
            if (event.causal > shard.cell_causal_hi) {
              shard.cell_causal_hi = event.causal;
            }
            break;
          case ShardEvent::Type::kQuarantine:
            add_dead_letter(shard, std::move(*event.dead), event.seq);
            event.dead.reset();
            break;
          case ShardEvent::Type::kClose:
            if (!shard.outbox.push(analyze_cell(shard, event.seq,
                                                event.rating.time,
                                                event.rating.value))) {
              return;  // outbox closed: the pipeline is coming down
            }
            break;
          case ShardEvent::Type::kStop: {
            ShardResult sentinel;
            sentinel.cell = kStopCell;
            shard.outbox.push(std::move(sentinel));
            stop = true;
            break;
          }
        }
        // Release: quiescing readers that observe this count also observe
        // the shard-state writes the event caused.
        shard.events_processed.fetch_add(1, std::memory_order_release);
        if (stop) return;
      }
    }
  } catch (...) {
    contain_worker_failure(k, std::current_exception());
  }
}

void ShardedRatingSystem::merge_worker() {
  try {
    // Per-shard staging deques: whenever the pipeline runs deep, a single
    // try_pop_n span refills several cells' worth of results at once.
    std::vector<std::deque<ShardResult>> ready(shards_.size());
    std::vector<ShardResult> batch(kDrainBatch);
    for (;;) {
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        while (ready[k].empty()) {
          const std::size_t n =
              shards_[k]->outbox.pop_n(batch.data(), kDrainBatch);
          if (n == 0) return;  // closed: failure latched elsewhere
          for (std::size_t i = 0; i < n; ++i) {
            ready[k].push_back(std::move(batch[i]));
          }
        }
      }
      // Each shard receives closes (and the final stop) in the same
      // order, and processes its inbox FIFO — so the k-th outbox head is
      // always the same cell as shard 0's (or the matching sentinel).
      bool stopping = false;
      for (const auto& q : ready) {
        if (q.front().cell == kStopCell || q.front().cell == kPoisonCell) {
          stopping = true;
          break;
        }
      }
      if (stopping) return;
      std::vector<ShardResult> results;
      results.reserve(shards_.size());
      for (auto& q : ready) {
        results.push_back(std::move(q.front()));
        q.pop_front();
      }
      merge_cell(std::move(results));
    }
  } catch (...) {
    // Merge-thread containment: shards().size() designates the merger.
    fail_pipeline(ShardFailureKind::kPoisoned, shards_.size(),
                  describe_exception(std::current_exception()),
                  "merge thread threw; surviving shards were drained and "
                  "their rings closed",
                  std::current_exception());
  }
}

void ShardedRatingSystem::start_threads() {
  threads_running_ = true;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->worker = std::thread([this, k] { shard_worker(k); });
  }
  merge_thread_ = std::thread([this] { merge_worker(); });
}

void ShardedRatingSystem::stop_threads() {
  if (!threads_running_) return;
  if (!pipeline_failed_.load(std::memory_order_acquire)) {
    // Staged spans go out ahead of the stops, so teardown drops nothing.
    // A failure latched meanwhile ends the publication; the closes below
    // then bring the pipeline down as on any failure.
    try {
      publish_all();
    } catch (...) {
    }
  }
  if (!pipeline_failed_.load(std::memory_order_acquire)) {
    // Normal shutdown: a stop event per shard; each worker acknowledges
    // with a stop sentinel the merger folds. try_push (not publish): a
    // failure racing in closes the ring, and then the closes below are
    // the shutdown signal.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      ShardEvent e;
      e.type = ShardEvent::Type::kStop;
      bool pushed = shards_[k]->inbox.try_push(std::move(e));
      if (!pushed && !shards_[k]->inbox.closed()) {
        // Ring full (tiny-queue configurations): fall back to the
        // blocking push, which a racing close still bounds.
        ShardEvent stop;
        stop.type = ShardEvent::Type::kStop;
        pushed = shards_[k]->inbox.push(std::move(stop));
      }
      if (pushed) {
        shards_[k]->events_pushed.store(
            shards_[k]->events_pushed.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
      }
    }
  }
  // Close every ring regardless of path. After this line every blocked
  // push/pop in the system returns within a bounded number of steps
  // (DESIGN.md §15), so the joins below cannot hang on a dead peer.
  for (auto& shard : shards_) {
    shard->inbox.close();
    shard->outbox.close();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  if (merge_thread_.joinable()) merge_thread_.join();
  threads_running_ = false;
}

void ShardedRatingSystem::quiesce() const {
  throw_if_failed();
  if (!threads_running_) return;
  publish_all();
  for (const auto& shard : shards_) {
    std::size_t spins = 0;
    while (shard->events_processed.load(std::memory_order_acquire) <
           shard->events_pushed.load(std::memory_order_relaxed)) {
      if (++spins >= kWaitSpinLimit) {
        supervised_tick();  // bounds the wait: throws on stall/poison
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
  std::size_t spins = 0;
  while (cells_merged_.load(std::memory_order_acquire) < cells_issued_) {
    if (++spins >= kWaitSpinLimit) {
      supervised_tick();
      std::this_thread::yield();
      spins = 0;
    }
  }
  // A failure can land between the last counter check and here (e.g. a
  // worker poisoned by its final event); surface it rather than letting
  // the caller read torn state.
  throw_if_failed();
}

// ----------------------------------------------------------- supervision

std::string ShardedRatingSystem::shard_diagnostic(std::size_t k) const {
  const Shard& shard = *shards_[k];
  const std::uint64_t processed =
      shard.events_processed.load(std::memory_order_acquire);
  const std::uint64_t beat = shard.heartbeat.load(std::memory_order_acquire);
  std::string out = "shard " + std::to_string(k) + ": inbox depth " +
                    std::to_string(shard.inbox.size()) + ", events " +
                    std::to_string(shard.events_pushed.load(
                        std::memory_order_relaxed)) + " pushed / " +
                    std::to_string(processed) + " processed, heartbeat " +
                    std::to_string(beat);
  out += beat > processed ? " (mid-event)" : " (between events)";
  return out;
}

void ShardedRatingSystem::throw_if_failed() const {
  if (!pipeline_failed_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(failure_mutex_);
  throw ShardFailure(failure_kind_, failure_shard_, failure_diagnostic_,
                     failure_message_);
}

std::optional<ShardFailure> ShardedRatingSystem::failure() const {
  if (!pipeline_failed_.load(std::memory_order_acquire)) return std::nullopt;
  std::lock_guard lock(failure_mutex_);
  return ShardFailure(failure_kind_, failure_shard_, failure_diagnostic_,
                      failure_message_);
}

void ShardedRatingSystem::fail_pipeline(ShardFailureKind kind,
                                        std::size_t shard,
                                        const std::string& message,
                                        std::string diagnostic,
                                        std::exception_ptr error) noexcept {
  bool first = false;
  {
    std::lock_guard lock(failure_mutex_);
    if (!failure_recorded_) {
      failure_recorded_ = true;
      failure_kind_ = kind;
      failure_shard_ = shard;
      failure_message_ = "sharded pipeline " + std::string(to_string(kind)) +
                         " (shard " + std::to_string(shard) + "): " + message;
      failure_diagnostic_ = std::move(diagnostic);
      failure_error_ = std::move(error);
      first = true;
    }
  }
  if (!first) return;
  // Latch BEFORE closing: a waiter released by a closed ring must already
  // see the failure when it asks. Every shard is told to abort, not only
  // the one named: a worker wedged in a stall the watchdog did not blame
  // must still let the joins in stop_threads() finish.
  pipeline_failed_.store(true, std::memory_order_release);
  for (auto& s : shards_) {
    s->abort_requested.store(true, std::memory_order_release);
    s->inbox.close();
    s->outbox.close();
  }
  if (kind == ShardFailureKind::kPoisoned && shard_poisoned_metric_ != nullptr) {
    shard_poisoned_metric_->add();
  }
  if (kind == ShardFailureKind::kStalled && shard_stalled_metric_ != nullptr) {
    shard_stalled_metric_->add();
  }
  if (obs_.audit != nullptr) {
    obs::AuditEvent e;
    e.type = kind == ShardFailureKind::kPoisoned
                 ? obs::AuditEventType::kShardPoisoned
                 : obs::AuditEventType::kShardStalled;
    e.value = static_cast<double>(shard);
    std::lock_guard lock(failure_mutex_);
    e.detail = failure_message_ + " — " + failure_diagnostic_;
    obs_.audit->record(e);
  }
}

void ShardedRatingSystem::contain_worker_failure(
    std::size_t k, std::exception_ptr error) noexcept {
  Shard& shard = *shards_[k];
  shard.worker_error = error;
  shard.poisoned.store(true, std::memory_order_release);
  // Best-effort poison sentinel so the merger unblocks without waiting
  // for the closes below to propagate; a full or already-closed outbox is
  // fine — close() is the stronger signal.
  ShardResult sentinel;
  sentinel.cell = kPoisonCell;
  shard.outbox.try_push(std::move(sentinel));
  fail_pipeline(ShardFailureKind::kPoisoned, k, describe_exception(error),
                shard_diagnostic(k), error);
}

void ShardedRatingSystem::supervised_tick() const {
  throw_if_failed();
  const std::uint64_t budget = options_.supervision.stall_ticks;
  if (budget == 0) return;  // watchdog disabled
  // A round counts only once a full tick period has passed since the last
  // counted one ended: on a host where a spin round takes nanoseconds, the
  // budget is still stall_ticks periods of real time.
  if (obs::monotonic_ns() - last_tick_ns_ < kSupervisionTickNs) return;
  bool all_shards_idle = true;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    // processed (acquire) before heartbeat: the worker bumps the heartbeat
    // before it publishes processed, so beat >= processed here.
    const std::uint64_t processed =
        shard.events_processed.load(std::memory_order_acquire);
    const std::uint64_t beat = shard.heartbeat.load(std::memory_order_relaxed);
    const bool mid_event = beat > processed;
    if (mid_event ||
        shard.events_pushed.load(std::memory_order_relaxed) > processed) {
      all_shards_idle = false;
    }
    // Only a shard still inside the event it had started by the last
    // counted round ages. A worker between events with work queued has not
    // started its next event yet — nothing there blocks on a non-empty
    // inbox — so that is slowness, not a stall.
    if (mid_event && beat == shard.watch_heartbeat) {
      const std::uint64_t age =
          shard.stall_age.fetch_add(1, std::memory_order_relaxed) + 1;
      if (age >= budget) {
        const_cast<ShardedRatingSystem*>(this)->fail_pipeline(
            ShardFailureKind::kStalled, k,
            "no progress for " + std::to_string(age) + " supervision ticks",
            shard_diagnostic(k), nullptr);
        throw_if_failed();
      }
    } else {
      shard.watch_heartbeat = beat;
      shard.stall_age.store(0, std::memory_order_relaxed);
    }
  }
  // The merger only looks stalled while waiting on a stalled shard — so
  // it is classified only once every shard has fully caught up.
  const std::uint64_t merged = cells_merged_.load(std::memory_order_acquire);
  if (merged != merge_watch_) {
    merge_watch_ = merged;
    merge_stall_age_.store(0, std::memory_order_relaxed);
  } else if (all_shards_idle && merged < cells_issued_) {
    const std::uint64_t age =
        merge_stall_age_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (age >= budget) {
      const_cast<ShardedRatingSystem*>(this)->fail_pipeline(
          ShardFailureKind::kStalled, shards_.size(),
          "merge made no progress for " + std::to_string(age) +
              " supervision ticks",
          "merge: cells " + std::to_string(cells_issued_) + " issued / " +
              std::to_string(merged) + " merged; every shard inbox drained",
          nullptr);
      throw_if_failed();
    }
  } else {
    merge_stall_age_.store(0, std::memory_order_relaxed);
  }
  // Stamped after every read of this round, so an event seen running here
  // and still running stall_ticks counted rounds later ran for at least
  // stall_ticks × kSupervisionTickNs, however long a round itself took.
  last_tick_ns_ = obs::monotonic_ns();
}

// --------------------------------------------------------------- queries

double ShardedRatingSystem::trust(RaterId id) const {
  quiesce();
  return merge_.trust(id);
}

std::vector<RaterId> ShardedRatingSystem::malicious() const {
  quiesce();
  return merge_.malicious();
}

std::optional<double> ShardedRatingSystem::aggregate(ProductId product) const {
  quiesce();
  const Shard& shard = *shards_[shard_index(product)];
  RatingSeries all;
  if (const auto it = shard.retained.find(product); it != shard.retained.end()) {
    for (const RatingSeries& epoch : it->second.epochs) {
      all.insert(all.end(), epoch.begin(), epoch.end());
    }
  }
  if (const auto it = shard.pending.find(product); it != shard.pending.end()) {
    all.insert(all.end(), it->second.begin(), it->second.end());
  }
  if (all.empty()) return std::nullopt;
  return merge_.aggregate(all);
}

std::size_t ShardedRatingSystem::epochs_closed() const {
  quiesce();
  return epochs_closed_;
}

const std::vector<EpochHealth>& ShardedRatingSystem::epoch_health() const {
  quiesce();
  return epoch_health_;
}

std::size_t ShardedRatingSystem::degraded_epochs() const {
  quiesce();
  return static_cast<std::size_t>(
      std::count(epoch_health_.begin(), epoch_health_.end(),
                 EpochHealth::kDegradedDetector));
}

std::size_t ShardedRatingSystem::skipped_empty_epochs() const {
  throw_if_failed();
  return skipped_empty_epochs_;
}

std::vector<std::size_t> ShardedRatingSystem::shard_skipped_cells() const {
  quiesce();
  std::vector<std::size_t> cells;
  cells.reserve(shards_.size());
  for (const auto& shard : shards_) cells.push_back(shard->skipped_cells);
  return cells;
}

std::size_t ShardedRatingSystem::pending_ratings() const {
  throw_if_failed();
  return pending_count_;
}

std::vector<QuarantinedRating> ShardedRatingSystem::shard_quarantine(
    std::size_t k) const {
  TRUSTRATE_EXPECTS(k < shards_.size(), "shard index out of range");
  quiesce();
  std::vector<QuarantinedRating> out;
  out.reserve(shards_[k]->quarantine.size());
  for (const DeadLetter& d : shards_[k]->quarantine) out.push_back(d.entry);
  return out;
}

std::vector<QuarantinedRating> ShardedRatingSystem::quarantine() const {
  quiesce();
  std::vector<const DeadLetter*> all;
  for (const auto& shard : shards_) {
    for (const DeadLetter& d : shard->quarantine) all.push_back(&d);
  }
  std::sort(all.begin(), all.end(),
            [](const DeadLetter* a, const DeadLetter* b) {
              return a->seq < b->seq;
            });
  std::vector<QuarantinedRating> out;
  out.reserve(all.size());
  for (const DeadLetter* d : all) out.push_back(d->entry);
  return out;
}

// --------------------------------------------------------- observability

void ShardedRatingSystem::set_epoch_observer(EpochCloseObserver observer) {
  quiesce();
  epoch_observer_ = std::move(observer);
}

void ShardedRatingSystem::set_observability(const obs::Observability& o) {
  quiesce();
  obs_ = o;
  merge_.set_observability(o);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    shard.filter.set_observability(o);
    shard.detector.set_observability(o);
    if (o.metrics != nullptr) {
      // The shard dimension is a label: one family per metric, any count.
      const std::string label = "{shard=\"" + std::to_string(k) + "\"}";
      shard.analyze_span_name = "shard" + std::to_string(k) + ".analyze";
      shard.routed_metric =
          &o.metrics->counter("trustrate_shard_routed_total" + label,
                              "Ratings routed to this shard");
      shard.cells_metric =
          &o.metrics->counter("trustrate_shard_cells_total" + label,
                              "Epoch cells this shard analyzed");
      shard.skipped_metric = &o.metrics->counter(
          "trustrate_shard_skipped_cells_total" + label,
          "Epoch cells closed with no pending data on this shard");
      shard.analyze_seconds = &o.metrics->histogram(
          "trustrate_shard_analyze_seconds" + label,
          obs::default_seconds_buckets(),
          "Per-cell analysis plus evidence reduction on this shard");
    } else {
      shard.analyze_span_name.clear();
      shard.routed_metric = nullptr;
      shard.cells_metric = nullptr;
      shard.skipped_metric = nullptr;
      shard.analyze_seconds = nullptr;
    }
  }
  if (o.metrics != nullptr) {
    obs::MetricsRegistry& m = *o.metrics;
    ingest_submitted_ = &m.counter("trustrate_ingest_submitted_total",
                                   "Ratings offered to submit()");
    ingest_accepted_ = &m.counter("trustrate_ingest_accepted_total",
                                  "Ratings accepted (includes reordered)");
    ingest_reordered_ = &m.counter(
        "trustrate_ingest_reordered_total",
        "Ratings accepted out of order within the lateness bound");
    ingest_duplicates_ = &m.counter("trustrate_ingest_duplicates_total",
                                    "Exact resubmissions dropped");
    ingest_late_ = &m.counter("trustrate_ingest_late_total",
                              "Ratings dropped behind the watermark");
    ingest_malformed_ = &m.counter("trustrate_ingest_malformed_total",
                                   "Ratings failing validation");
    ingest_quarantined_ = &m.counter(
        "trustrate_ingest_quarantined_total",
        "Dead-lettered ratings (late + malformed)");
    epochs_closed_metric_ =
        &m.counter("trustrate_epochs_closed_total", "Epochs closed");
    epochs_degraded_metric_ = &m.counter(
        "trustrate_epochs_degraded_total",
        "Epochs that fell back to the beta-filter-only path");
    epochs_skipped_empty_metric_ = &m.counter(
        "trustrate_epochs_skipped_empty_total",
        "Fully empty epochs fast-forwarded over");
    shard_poisoned_metric_ = &m.counter(
        "trustrate_shard_poisoned_total",
        "Shard or merge workers that threw and were contained");
    shard_stalled_metric_ = &m.counter(
        "trustrate_shard_stalled_total",
        "Shards the watchdog classified as stalled");
    pending_gauge_ = &m.gauge(
        "trustrate_pending_ratings",
        "Ratings routed into the current epoch but not yet processed");
    buffered_gauge_ = &m.gauge(
        "trustrate_buffered_ratings",
        "Accepted ratings still held by the reordering buffer");
    merge_cell_seconds_ = &m.histogram(
        "trustrate_merge_cell_seconds", obs::default_seconds_buckets(),
        "Per-cell fold of the shard results into Procedure 2 (merge thread)");
    update_gauges();
  } else {
    ingest_submitted_ = nullptr;
    ingest_accepted_ = nullptr;
    ingest_reordered_ = nullptr;
    ingest_duplicates_ = nullptr;
    ingest_late_ = nullptr;
    ingest_malformed_ = nullptr;
    ingest_quarantined_ = nullptr;
    epochs_closed_metric_ = nullptr;
    epochs_degraded_metric_ = nullptr;
    epochs_skipped_empty_metric_ = nullptr;
    pending_gauge_ = nullptr;
    buffered_gauge_ = nullptr;
    shard_poisoned_metric_ = nullptr;
    shard_stalled_metric_ = nullptr;
    merge_cell_seconds_ = nullptr;
  }
}

void ShardedRatingSystem::update_gauges() {
  // Probe mirrors publish unconditionally (a handful of relaxed stores):
  // the introspection server may attach mid-run without observability.
  probe_pub_.submitted.store(
      static_cast<std::uint64_t>(ingest_.stats().submitted),
      std::memory_order_relaxed);
  probe_pub_.pending.store(static_cast<std::uint64_t>(pending_count_),
                           std::memory_order_relaxed);
  probe_pub_.buffered.store(static_cast<std::uint64_t>(ingest_.buffered()),
                            std::memory_order_relaxed);
  probe_pub_.cells_issued.store(cells_issued_, std::memory_order_relaxed);
  probe_pub_.skipped_empty.store(
      static_cast<std::uint64_t>(skipped_empty_epochs_),
      std::memory_order_relaxed);
  probe_pub_.epoch_start.store(epoch_start_, std::memory_order_relaxed);
  probe_pub_.last_time.store(last_time_, std::memory_order_relaxed);
  probe_pub_.anchored.store(anchored_, std::memory_order_relaxed);
  if (pending_gauge_ == nullptr) return;
  pending_gauge_->set(static_cast<double>(pending_count_));
  buffered_gauge_->set(static_cast<double>(ingest_.buffered()));
}

obs::PipelineProbe ShardedRatingSystem::probe() const noexcept {
  obs::PipelineProbe p;
  p.threaded = options_.threaded;
  p.stall_budget = options_.supervision.stall_ticks;
  p.failed = pipeline_failed_.load(std::memory_order_acquire);
  if (p.failed) {
    // Post-latch the details are frozen; the lock is uncontended.
    std::lock_guard lock(failure_mutex_);
    p.failure_kind = to_string(failure_kind_);
    p.failure_shard = failure_shard_;
    p.failure_message = failure_message_;
  }
  p.submitted = probe_pub_.submitted.load(std::memory_order_relaxed);
  p.pending = probe_pub_.pending.load(std::memory_order_relaxed);
  p.buffered = probe_pub_.buffered.load(std::memory_order_relaxed);
  p.anchored = probe_pub_.anchored.load(std::memory_order_relaxed);
  p.epoch_start = probe_pub_.epoch_start.load(std::memory_order_relaxed);
  p.last_time = probe_pub_.last_time.load(std::memory_order_relaxed);
  p.cells_issued = probe_pub_.cells_issued.load(std::memory_order_relaxed);
  p.cells_merged = cells_merged_.load(std::memory_order_acquire);
  p.merge_lag =
      p.cells_issued > p.cells_merged ? p.cells_issued - p.cells_merged : 0;
  // A residual stall age with no outstanding cells is stale — the watchdog
  // only resets it on its next tick, which may never come once the wait
  // loop that was counting exits. No lag, no stall.
  p.merge_stall_age =
      p.merge_lag > 0 ? merge_stall_age_.load(std::memory_order_relaxed) : 0;
  p.skipped_empty_epochs =
      probe_pub_.skipped_empty.load(std::memory_order_relaxed);
  p.shards.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = *shards_[k];
    obs::ShardProbe s;
    s.index = k;
    s.poisoned = shard.poisoned.load(std::memory_order_acquire);
    s.abort_requested = shard.abort_requested.load(std::memory_order_acquire);
    s.events_pushed = shard.events_pushed.load(std::memory_order_relaxed);
    s.events_processed =
        shard.events_processed.load(std::memory_order_acquire);
    const std::uint64_t beat = shard.heartbeat.load(std::memory_order_relaxed);
    s.heartbeat_age = beat > s.events_processed ? beat - s.events_processed : 0;
    // Same staleness rule as merge_stall_age: an age left over from a wait
    // loop that already got its progress means nothing once the inbox is
    // drained.
    s.stall_age = s.events_pushed > s.events_processed
                      ? shard.stall_age.load(std::memory_order_relaxed)
                      : 0;
    s.inbox = {shard.inbox.size(), shard.inbox.high_water(),
               shard.inbox.producer_stalls(), shard.inbox.capacity()};
    s.outbox = {shard.outbox.size(), shard.outbox.high_water(),
                shard.outbox.producer_stalls(), shard.outbox.capacity()};
    s.quarantine_size = shard.quarantine_size.load(std::memory_order_relaxed);
    s.skipped_cells = shard.skipped_cells_pub.load(std::memory_order_relaxed);
    // Watchdog verdict (DESIGN.md §15 taxonomy): poisoned beats stalled
    // beats slow; "slow" is a positive stall age still under budget. Only
    // the shard the failure names is stalled — every shard's abort flag
    // goes up when a failure latches, so the flag alone says nothing.
    if (s.poisoned) {
      s.health = obs::ShardHealth::kPoisoned;
    } else if (p.failed && p.failure_kind == "stalled" &&
               p.failure_shard == k) {
      s.health = obs::ShardHealth::kStalled;
    } else if (s.stall_age > 0) {
      s.health = obs::ShardHealth::kSlow;
    } else {
      s.health = obs::ShardHealth::kOk;
    }
    p.shards.push_back(std::move(s));
  }
  return p;
}

}  // namespace trustrate::core::shard
