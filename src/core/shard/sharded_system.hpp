// Sharded multi-core service engine (ISSUE 8 tentpole, DESIGN.md §14).
//
// StreamingRatingSystem is one pipeline: one reorder buffer, one pending
// map, one epoch engine. The parallel engine (core/parallel) saturates
// cores *within* an epoch close, but every rating still funnels through a
// single routing path. ShardedRatingSystem partitions products across N
// independent shards — each with its own pending/retained maps, its own
// BetaQuantileFilter + ArSuspicionDetector + EpochEngine, and its own
// capped dead-letter store — while keeping the three pieces of state that
// must stay global exactly where they are:
//
//  * the ingest classifier (watermark, duplicate horizon, counters): a
//    rating's accepted/late/duplicate verdict must not depend on the shard
//    layout, so classification happens at the front door before routing;
//  * the epoch grid cursor: epochs are a property of the stream, not of a
//    shard — one coordinator walks the same boundary logic as
//    StreamingRatingSystem::route, and a fully-empty gap fast-forwards in
//    O(1) only when *no* shard holds pending data (a gap on one shard
//    never fast-forwards the others; shards merely record a skipped cell);
//  * rater-level trust: C(i) and trust records span shards, so one merge
//    authority (a TrustEnhancedRatingSystem) folds the per-shard evidence
//    into Procedure 2.
//
// Procedure 2's per-rater reduction runs on the shards: after analyzing
// its slice of a cell, a shard reduces it into an EvidenceRun (n/f/s per
// rater plus that rater's C(i) terms, ascending; flat vectors sorted by
// rater). The merger k-way folds the shards' runs and applies the trust
// updates in rater order.
//
// Determinism argument (the oracle's path 9 asserts it bitwise): per-
// product analysis is a pure function of (observation, config) — the same
// property that makes the epoch engine worker-count-invariant — so *which*
// shard analyzes a product cannot change its report. Runs carry sorted
// terms and the fold merges sorted lists, so each rater's C(i) is summed
// in the canonical ascending order (DESIGN.md §9) whichever shard
// contributed which term; the counts are integers. The reports are
// concatenated and sorted by product ID, recreating the unsharded close's
// product order for the epoch report and the audit log. Digests are
// therefore bitwise identical at ANY shard count, any worker count, and
// any placement function.
//
// Execution modes:
//
//  * inline (ShardOptions::threaded == false): everything runs on the
//    calling thread; shards are just partitioned state. This is the mode
//    the conformance oracle sweeps — identical results, zero threads.
//  * threaded: the submit() caller classifies and routes events into one
//    bounded lock-free SPSC queue per shard (core/shard/spsc_queue.hpp;
//    a full ring blocks the producer — bounded memory backpressure). It
//    stages each shard's events and publishes them a span at a time (one
//    index handoff per 32 events); every close, flush(), quiesce() and
//    shutdown publishes whatever is staged, so each query still sees
//    every submitted rating. Shard workers buffer ratings, then analyze
//    and reduce their slice at each close; a merge thread folds one
//    result per shard per cell, in cell order. Pipeline parallelism:
//    shard k can analyze cell c while the merger folds cell c−1.
//
// Threading contract: one thread calls submit()/flush(). Query methods
// (trust, aggregate, stats, health) quiesce first — they wait until every
// routed event is consumed and every issued cell is merged — and must not
// run concurrently with submit(). The epoch observer fires on the merge
// thread in threaded mode.
//
// Checkpoints: snapshot() produces the global StreamSnapshot (per-shard
// dead letters merged by their global arrival ordinal); save() writes
// checkpoint v4 (layout + per-shard sections). from_snapshot() partitions
// under the *target* layout, so any checkpoint version resumes at any
// shard count — including a v3 pre-shard checkpoint (the v3→v4
// compatibility regression pins this).
//
// Supervision (ISSUE 9 tentpole, DESIGN.md §15): in threaded mode every
// worker runs under exception containment. A throwing worker marks its
// shard *poisoned* (the exception_ptr is stashed), emits a poison sentinel
// downstream, and closes every ring, so no thread can block on a dead
// peer; a tick-driven watchdog classifies a shard as *stalled* when one
// event it started stays unfinished for SupervisionOptions::stall_ticks
// supervision ticks (each at least kSupervisionTickNs of monotonic time).
// Either way the pipeline latches a structured failure: the next public
// API call throws ShardFailure (common/error.hpp) instead of hanging or
// aborting, and destruction still joins cleanly because closed rings
// bound every wait (the shutdown-protocol proof sketch is in DESIGN.md
// §15). ShardedDurableStream catches ShardFailure and heals by replaying
// checkpoint + WAL — bitwise-identical to a fault-free run (oracle path
// 10) — or fail-stops with the diagnostic when healing is disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/ingest.hpp"
#include "core/shard/shard_map.hpp"
#include "core/shard/spsc_queue.hpp"
#include "core/system.hpp"
#include "detect/ar_detector.hpp"
#include "detect/beta_filter.hpp"
#include "obs/introspect.hpp"

namespace trustrate::core {
struct CheckpointAccess;  // checkpoint.cpp moves state in and out
}  // namespace trustrate::core

namespace trustrate::core::parallel {
class EpochEngine;
}  // namespace trustrate::core::parallel

namespace trustrate::core::shard {

/// Floor of one supervision tick, in obs::monotonic_ns() nanoseconds. The
/// watchdog runs on the coordinator thread, inside the waits that already
/// spin (a blocked span publication, quiesce): every 64 spins it tries an
/// observation round, and the round counts as a tick only if this long
/// has passed since the last counted one. No timer thread. Stated bound: a
/// shard whose every event ends within stall_ticks × kSupervisionTickNs is
/// never classified, on any host (DESIGN.md §15).
inline constexpr std::uint64_t kSupervisionTickNs = 100'000;  // 100 µs

/// Watchdog budgets for the threaded pipeline.
struct SupervisionOptions {
  /// Consecutive ticks one event may run (started and unfinished) before
  /// its shard is classified as stalled and the pipeline fail-stops. The
  /// default, 2^26 ticks, is at least ~1.9 h of wall time. 0 disables the
  /// watchdog: waits then block until the peer makes progress or a
  /// failure closes the rings, exactly the pre-supervision behavior.
  std::uint64_t stall_ticks = std::uint64_t{1} << 26;
};

/// Context handed to ShardOptions::event_hook before a shard worker
/// processes each event. `abort` is raised on every shard once the
/// pipeline latches a failure (a stall on any shard, or a poisoned
/// worker) — a cooperative injected stall polls it so shutdown provably
/// terminates, whichever shard the failure named.
struct ShardEventContext {
  std::size_t shard = 0;       ///< worker's shard index
  std::uint64_t ordinal = 0;   ///< events this shard processed so far
  const std::atomic<bool>* abort = nullptr;
};

/// Test-only fault injection point (testkit::ThreadFaultInjector adapts
/// onto it). Called on the worker thread; may throw (crash), sleep
/// (slow), or poll ctx.abort in a bounded loop (stall). Null — and zero
/// cost — in production. Threaded mode only.
using ShardEventHook = std::function<void(const ShardEventContext&)>;

struct ShardOptions {
  /// Number of product shards (>= 1).
  std::size_t shards = 1;

  /// false: inline mode — partitioned state, zero threads, bitwise the
  /// reference. true: one worker thread per shard plus a merge thread.
  bool threaded = false;

  /// Capacity of each SPSC ring (rounded up to a power of two). A full
  /// ring blocks the producer: this bound IS the backpressure.
  std::size_t queue_capacity = 4096;

  /// Worker count of each shard's epoch engine; 0 inherits
  /// SystemConfig::epoch_workers.
  std::size_t epoch_workers = 0;

  /// Product placement override for tests (default: shard_of). Layout
  /// only — results are placement-invariant; the adversarial-skew tests
  /// route everything to one shard and assert digests don't move.
  std::function<std::size_t(ProductId, std::size_t)> shard_fn;

  /// Watchdog budgets (threaded mode).
  SupervisionOptions supervision;

  /// Per-event fault-injection hook (threaded mode, tests only).
  ShardEventHook event_hook;
};

class ShardedRatingSystem {
 public:
  ShardedRatingSystem(SystemConfig config, ShardOptions options,
                      double epoch_days = 30.0,
                      std::size_t retention_epochs = 2, IngestConfig ingest = {});
  ~ShardedRatingSystem();

  ShardedRatingSystem(const ShardedRatingSystem&) = delete;
  ShardedRatingSystem& operator=(const ShardedRatingSystem&) = delete;

  /// Classifies and routes one rating; same in-band error policy as
  /// StreamingRatingSystem::submit. In threaded mode the call returns once
  /// the event is staged (or its span published, after blocking on a full
  /// ring).
  IngestClass submit(const Rating& rating);

  /// Drains the reorder buffer and closes the in-progress epoch regardless
  /// of time. Returns the number of products processed. Quiesces.
  std::size_t flush();

  double trust(RaterId id) const;
  std::vector<RaterId> malicious() const;

  /// Trust-weighted aggregate over the owning shard's retained + pending
  /// ratings for the product (see StreamingRatingSystem::aggregate).
  std::optional<double> aggregate(ProductId product) const;

  std::size_t epochs_closed() const;
  const std::vector<EpochHealth>& epoch_health() const;
  std::size_t degraded_epochs() const;

  /// Fully-empty epochs the *global* cursor fast-forwarded over (no shard
  /// had pending data) — same meaning as the unsharded counter.
  std::size_t skipped_empty_epochs() const;

  /// Per-shard skipped cells: epoch closes that ran with no pending data
  /// on that shard (plus nothing at a flush). Layout-scoped diagnostics —
  /// they restore from a checkpoint only at a matching shard count.
  std::vector<std::size_t> shard_skipped_cells() const;

  std::size_t pending_ratings() const;
  std::size_t buffered_ratings() const { return ingest_.buffered(); }
  const IngestStats& ingest_stats() const { return ingest_.stats(); }

  /// Shard k's dead-letter store, oldest first (per-shard cap =
  /// IngestConfig::max_quarantine). The global `quarantined` counter in
  /// ingest_stats() is preserved across the split.
  std::vector<QuarantinedRating> shard_quarantine(std::size_t k) const;

  /// All shards' dead letters merged back into global arrival order.
  std::vector<QuarantinedRating> quarantine() const;

  using EpochCloseObserver = StreamingRatingSystem::EpochCloseObserver;
  /// Fires after each non-empty epoch closes (merge thread in threaded
  /// mode). Call before submitting; not checkpoint state.
  void set_epoch_observer(EpochCloseObserver observer);

  /// Attaches metrics/trace/audit. Global ingest + epoch instruments, the
  /// merge_cell histogram, per-shard routed/cells/skipped counters and
  /// per-shard analyze spans + histograms. Out-of-band; call before
  /// submitting, never mid-stream.
  void set_observability(const obs::Observability& o);

  /// The merge authority: global trust state, epoch counter, aggregation.
  const TrustEnhancedRatingSystem& system() const { return merge_; }
  /// Which shard owns `product` under this system's layout.
  std::size_t shard_for(ProductId product) const { return shard_index(product); }
  double epoch_days() const { return epoch_days_; }
  std::size_t retention_epochs() const { return retention_epochs_; }
  std::size_t shards() const { return shards_.size(); }
  const ShardOptions& options() const { return options_; }

  /// Blocks until every routed event is consumed and every issued cell is
  /// merged. No-op in inline mode. Safe to call repeatedly. The wait is
  /// bounded by supervision: if a shard is poisoned, or one of its events
  /// runs for SupervisionOptions::stall_ticks supervision ticks, this
  /// throws ShardFailure naming the wedged shard (inbox depth, events
  /// pushed vs processed, heartbeat age) instead of hanging.
  void quiesce() const;

  /// True once supervision has latched a failure; every public entry
  /// point then throws the corresponding ShardFailure. Destruction stays
  /// safe — closed rings bound every wait, so joins complete.
  bool failed() const {
    return pipeline_failed_.load(std::memory_order_acquire);
  }

  /// The latched failure, rebuilt as a throwable ShardFailure (nullptr
  /// when healthy). For a poisoned shard the original worker exception is
  /// nested in the message.
  std::optional<ShardFailure> failure() const;

  /// Lock-free-ish introspection snapshot for the /healthz and /status
  /// endpoints (ISSUE 10). Unlike every other query this does NOT quiesce
  /// and never throws: it reads only relaxed/acquire atomics (plus the
  /// failure mutex once a failure has latched, by then uncontended), so
  /// the HTTP server thread may call it while another thread submits.
  /// The snapshot is approximate — a scrape racing an ingest batch sees a
  /// recent past, not a linearizable cut (DESIGN.md §16).
  obs::PipelineProbe probe() const noexcept;

  /// Global state extraction (quiesces first): per-shard pending/retained
  /// merged, dead letters in global order, layout recorded.
  StreamSnapshot snapshot();

  /// Writes a v4 (sharded) checkpoint.
  void save(std::ostream& out);

  /// Rebuilds a sharded system from any snapshot, partitioning under THIS
  /// options' layout. snapshot.shards may differ from options.shards (or
  /// be 0 for a pre-shard checkpoint): pending/retained re-partition;
  /// per-shard skipped-cell counters restore only on a layout match.
  static std::unique_ptr<ShardedRatingSystem> from_snapshot(
      const StreamSnapshot& snapshot, const SystemConfig& config,
      ShardOptions options);

  /// parse_checkpoint + from_snapshot (accepts checkpoint versions 1–4).
  static std::unique_ptr<ShardedRatingSystem> load(std::istream& in,
                                                   const SystemConfig& config,
                                                   ShardOptions options);

 private:
  friend struct trustrate::core::CheckpointAccess;

  /// One dead-lettered rating with its global arrival ordinal (the value
  /// of IngestStats::quarantined when it was dead-lettered): per-shard
  /// stores merge back into global order by sorting on it.
  struct DeadLetter {
    QuarantinedRating entry;
    std::uint64_t seq = 0;
  };

  /// Event streamed to a shard worker (threaded mode). One cache line:
  /// the ring moves 64 bytes per event, aligned so no slot straddles two
  /// lines.
  struct alignas(64) ShardEvent {
    enum class Type : std::uint8_t { kRating, kQuarantine, kClose, kStop };
    /// kRating: the rating. kClose: the cell's bounds — epoch_start in
    /// rating.time, epoch_end in rating.value.
    Rating rating;
    /// kQuarantine: the dead letter, boxed — about 1% of arrivals carry
    /// one, and held inline it would more than double every event.
    std::unique_ptr<QuarantinedRating> dead;
    std::uint64_t seq = 0;  ///< kQuarantine: dead-letter ordinal; kClose: cell
    /// kRating: causal ID — the global submission ordinal of the submit()
    /// that admitted this rating into routing (its own ordinal for
    /// in-order arrivals; the releasing submission's for reordered ones).
    std::uint64_t causal = 0;
    Type type = Type::kRating;
  };
  static_assert(sizeof(ShardEvent) <= 64, "a ring event is one cache line");

  /// One shard's contribution to one epoch cell (threaded mode). The
  /// sentinel (cell == kStopCell) acknowledges kStop; kPoisonCell is the
  /// poison sentinel a dying worker emits so the merge thread never
  /// blocks on a dead outbox.
  struct ShardResult {
    std::uint64_t cell = 0;
    double epoch_start = 0.0;
    double epoch_end = 0.0;
    std::vector<ProductObservation> observations;  ///< sorted by product
    std::vector<ProductReport> reports;            ///< aligned with above
    /// Procedure-2 evidence of `reports`, reduced (null for a skipped
    /// cell). Boxed so the outbox's slots — one ShardResult per ring
    /// entry, built when the ring is — stay small.
    std::unique_ptr<EvidenceRun> run;
    /// Causal ID range of the ratings this cell analyzed on this shard
    /// (0,0 when the cell saw none) — carried so merge spans can report
    /// the whole cell's range.
    std::uint64_t causal_lo = 0;
    std::uint64_t causal_hi = 0;
  };
  static constexpr std::uint64_t kStopCell = ~std::uint64_t{0};
  static constexpr std::uint64_t kPoisonCell = ~std::uint64_t{0} - 1;

  struct Shard {
    detect::BetaQuantileFilter filter;
    detect::ArSuspicionDetector detector;
    std::unique_ptr<parallel::EpochEngine> engine;
    EvidenceReducer reducer;  ///< owner-thread scratch
    /// Folded runs handed back by the merger (its producer) for the owner
    /// thread to reduce into again, so warm cells allocate no run memory.
    /// Never closed: both sides only try, and a full ring drops the run.
    SpscQueue<std::unique_ptr<EvidenceRun>> spare_runs;

    std::unordered_map<ProductId, RatingSeries> pending;
    struct Retained {
      std::vector<RatingSeries> epochs;
    };
    std::unordered_map<ProductId, Retained> retained;
    std::deque<DeadLetter> quarantine;
    std::size_t skipped_cells = 0;

    /// Owner-thread causal-range accumulator for the cell in progress
    /// (coordinator in inline mode, worker in threaded mode — never both).
    std::uint64_t cell_causal_lo = 0;
    std::uint64_t cell_causal_hi = 0;

    /// Probe mirrors (ISSUE 10): relaxed atomics published by the owner
    /// thread so the introspection server can read dead-letter occupancy
    /// and skipped-cell counts without touching the deque/counter.
    std::atomic<std::uint64_t> quarantine_size{0};
    std::atomic<std::uint64_t> skipped_cells_pub{0};

    // Threaded mode.
    SpscQueue<ShardEvent> inbox;
    SpscQueue<ShardResult> outbox;
    std::thread worker;
    /// Coordinator-owned writer; atomic because worker-side diagnostics
    /// (contain_worker_failure) read it from the failing thread.
    std::atomic<std::uint64_t> events_pushed{0};
    std::atomic<std::uint64_t> events_processed{0};

    // Supervision (DESIGN.md §15). The worker bumps `heartbeat` when it
    // STARTS an event and events_processed when it finishes, so the
    // watchdog can tell "between events" from "mid-event" (only a shard
    // mid-event ages) and see whether a new event started since its last
    // tick.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<bool> abort_requested{false};  ///< set when a failure latches
    std::atomic<bool> poisoned{false};
    std::exception_ptr worker_error;  ///< written before poisoned (release)

    // Watchdog state, coordinator-owned (mutated during const waits via
    // the unique_ptr indirection — the threading contract already pins
    // quiesce/queries to the submit thread). stall_age is atomic only so
    // probe() can read the watchdog's view from the server thread; the
    // coordinator remains its single writer.
    std::uint64_t watch_heartbeat = 0;  ///< heartbeat at the last counted tick
    std::atomic<std::uint64_t> stall_age{0};  ///< ticks the current event ran
    /// Coordinator-owned span of routed events not yet published to the
    /// inbox (at most kDrainBatch). Staged events are not in events_pushed,
    /// so the watchdog never ages them.
    std::vector<ShardEvent> staged;

    // Observability (resolved in set_observability; null when off): the
    // labeled series of each family, e.g.
    // trustrate_shard_routed_total{shard="k"}.
    std::string analyze_span_name;  ///< stable storage for SpanTimer
    obs::Counter* routed_metric = nullptr;
    obs::Counter* cells_metric = nullptr;
    obs::Counter* skipped_metric = nullptr;
    obs::Histogram* analyze_seconds = nullptr;  ///< analyze + reduce per cell

    Shard(const SystemConfig& config, std::size_t workers,
          std::size_t queue_capacity);
  };

  std::size_t shard_index(ProductId product) const;
  void route(const Rating& rating);
  void fast_forward_empty_epochs(double now);
  /// Issues the close of the cell ending at `epoch_end` (inline: runs it;
  /// threaded: stages kClose on every shard and publishes every span).
  void issue_close(double epoch_end);
  /// Analyzes one shard's pending slice for a cell and reduces it into the
  /// result's evidence run; updates retained and skipped-cell accounting.
  /// Runs on the shard's owner thread.
  ShardResult analyze_cell(Shard& shard, std::uint64_t cell,
                           double epoch_start, double epoch_end);
  /// Folds one cell's shard results (results[k] from shard k): reports
  /// in product order, evidence runs k-way by rater; fires the observer and
  /// hands the runs back to their shards. Runs on the merge thread
  /// (threaded) or the caller (inline).
  void merge_cell(std::vector<ShardResult> results);
  void shard_worker(std::size_t k);
  void merge_worker();
  void start_threads();
  /// Close/poison-aware shutdown: closes every ring (so every blocked
  /// push/pop returns), then joins. Never throws, never hangs — see the
  /// protocol proof sketch in DESIGN.md §15.
  void stop_threads();
  /// Appends an event to shard k's staged span and publishes the span
  /// once it holds kDrainBatch events: one try_push_n, one index handoff.
  void stage_event(std::size_t k, ShardEvent&& event);
  /// Publishes shard k's staged span, blocking (supervised) on a full ring.
  /// Const for the same reason as the watchdog state: quiesce() (const)
  /// must publish, and the threading contract pins every caller to the
  /// submit thread.
  void publish(std::size_t k) const;
  /// Publishes every shard's staged span: before a close, and in flush(),
  /// quiesce() and stop_threads(), so nothing staged is ever unseen by a
  /// query or lost at teardown (DESIGN.md §14).
  void publish_all() const;
  void add_dead_letter(Shard& shard, QuarantinedRating&& entry,
                       std::uint64_t seq);
  void update_gauges();

  // --- supervision (coordinator side unless noted) ---
  /// Rethrows the latched ShardFailure, if any.
  void throw_if_failed() const;
  /// Latches the failure (first caller wins), emits the audit event +
  /// metric, and closes every ring so no wait can outlive it. Safe from
  /// any thread; never throws.
  void fail_pipeline(ShardFailureKind kind, std::size_t shard,
                     const std::string& message, std::string diagnostic,
                     std::exception_ptr error) noexcept;
  /// Worker-side containment: stash the exception, poison the shard, emit
  /// the poison sentinel, then fail_pipeline.
  void contain_worker_failure(std::size_t k, std::exception_ptr error) noexcept;
  /// One watchdog observation round: throws if the pipeline has failed;
  /// then, if a tick period has passed since the last counted round,
  /// advances per-shard stall ages and classifies stalls past the budget
  /// (latching a failure).
  void supervised_tick() const;
  /// Progress counters for shard k, formatted for diagnostics.
  std::string shard_diagnostic(std::size_t k) const;

  SystemConfig config_;
  ShardOptions options_;
  TrustEnhancedRatingSystem merge_;  ///< global trust + stage-2 authority
  double epoch_days_;
  std::size_t retention_epochs_;

  IngestBuffer ingest_;  ///< global classifier front door
  std::vector<Rating> released_;

  bool anchored_ = false;
  double epoch_start_ = 0.0;
  double last_time_ = 0.0;
  std::size_t skipped_empty_epochs_ = 0;
  std::size_t pending_count_ = 0;  ///< ratings routed since the last close

  std::vector<std::unique_ptr<Shard>> shards_;

  // Written by the merge thread (threaded) or the caller (inline); reads
  // from other threads must quiesce first (cells_merged_ release/acquire
  // publishes them).
  std::size_t epochs_closed_ = 0;
  std::vector<EpochHealth> epoch_health_;
  std::size_t last_close_products_ = 0;
  EpochCloseObserver epoch_observer_;

  std::vector<EvidenceRun> cell_runs_;  ///< merge_cell scratch

  std::uint64_t cells_issued_ = 0;  ///< coordinator-owned
  std::atomic<std::uint64_t> cells_merged_{0};
  std::thread merge_thread_;
  bool threads_running_ = false;

  /// Causal ID of the submit() currently routing (0 outside submit/flush);
  /// coordinator-owned, stamped onto every kRating event it stages.
  std::uint64_t current_causal_ = 0;

  /// Probe mirrors (ISSUE 10): relaxed-atomic copies of coordinator-owned
  /// cursor state, published at the end of each submit()/flush() so the
  /// introspection server reads a TSan-clean recent past. Never read by
  /// the pipeline itself.
  struct ProbePub {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> pending{0};
    std::atomic<std::uint64_t> buffered{0};
    std::atomic<std::uint64_t> cells_issued{0};
    std::atomic<std::uint64_t> skipped_empty{0};
    std::atomic<double> epoch_start{0.0};
    std::atomic<double> last_time{0.0};
    std::atomic<bool> anchored{false};
  };
  mutable ProbePub probe_pub_;

  // Supervision state. `pipeline_failed_` is the fast-path flag; the
  // details live behind the mutex (workers, the merge thread, and the
  // watchdog may race to fail first — the first latches).
  std::atomic<bool> pipeline_failed_{false};
  mutable std::mutex failure_mutex_;
  bool failure_recorded_ = false;
  ShardFailureKind failure_kind_ = ShardFailureKind::kPoisoned;
  std::size_t failure_shard_ = 0;
  std::string failure_message_;
  std::string failure_diagnostic_;
  std::exception_ptr failure_error_;
  // Merge-thread watchdog counters (coordinator-owned, mutated during
  // const waits; merge_stall_age_ is atomic only for probe() reads).
  mutable std::uint64_t merge_watch_ = 0;
  mutable std::atomic<std::uint64_t> merge_stall_age_{0};
  /// obs::monotonic_ns() at the end of the last counted supervision tick.
  mutable std::uint64_t last_tick_ns_ = 0;

  obs::Observability obs_;
  obs::Counter* ingest_submitted_ = nullptr;
  obs::Counter* ingest_accepted_ = nullptr;
  obs::Counter* ingest_reordered_ = nullptr;
  obs::Counter* ingest_duplicates_ = nullptr;
  obs::Counter* ingest_late_ = nullptr;
  obs::Counter* ingest_malformed_ = nullptr;
  obs::Counter* ingest_quarantined_ = nullptr;
  obs::Counter* epochs_closed_metric_ = nullptr;
  obs::Counter* epochs_degraded_metric_ = nullptr;
  obs::Counter* epochs_skipped_empty_metric_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Gauge* buffered_gauge_ = nullptr;
  obs::Counter* shard_poisoned_metric_ = nullptr;
  obs::Counter* shard_stalled_metric_ = nullptr;
  obs::Histogram* merge_cell_seconds_ = nullptr;
};

}  // namespace trustrate::core::shard
