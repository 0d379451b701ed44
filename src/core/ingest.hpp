// Tolerant stream ingestion for the streaming front-end (extension beyond
// the paper).
//
// Real rating streams are hostile input: events arrive late or out of
// order, clients retry and duplicate submissions, and malformed records
// slip through upstream producers. The fraud-detection literature the
// ROADMAP points at (BIRDNEST, Allahbakhsh et al.) stresses that detection
// pipelines must survive exactly this traffic, so the streaming system no
// longer assumes a clean, time-ordered trace.
//
// IngestBuffer implements the classic bounded-lateness design:
//
//  * every accepted rating advances `max_time`, and the **watermark** is
//    `max_time - max_lateness_days`;
//  * accepted ratings sit in a reorder buffer until the watermark passes
//    their event time, then are released in non-decreasing time order —
//    downstream consumers see a sorted stream, exactly as if the input had
//    been sorted up front;
//  * a rating older than the watermark missed its window: it is *dropped
//    late* and dead-lettered, never silently reordered;
//  * an exact resubmission (same rater, product, time, value) of a rating
//    still inside the lateness horizon is a *duplicate* and is dropped;
//  * a malformed rating (non-finite time/value, value outside [0, 1]) is
//    *quarantined*.
//
// The classifier sits on the serial submit path, so its structures avoid
// per-rating allocation: the reorder buffer is a flat vector kept sorted by
// time (an arrival inserts at its upper bound, so ties keep arrival order;
// releases advance a head index), and the duplicate horizon is an
// open-addressing hash set whose keys expire lazily. The horizon invariant
// is: it holds exactly the keys of accepted ratings with time >= watermark.
// A key behind the watermark may still occupy a slot, but it can never be
// observed — a rating that old is dropped late before the duplicate check
// runs, a newer insert may reuse its slot, and snapshot() leaves it out.
//
// Classification is in-band — `submit` never throws on bad data — and every
// outcome is counted in IngestStats so operators can watch the failure
// rates. The dead-letter list keeps the most recent offenders (bounded by
// `max_quarantine`) for debugging.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"

namespace trustrate::core {

/// Outcome of ingesting one rating.
enum class IngestClass : std::uint8_t {
  kAccepted = 0,  ///< accepted, arrived in watermark order
  kReordered,     ///< accepted, arrived out of order but within the bound
  kDuplicate,     ///< exact duplicate of an accepted rating; dropped
  kLate,          ///< behind the watermark; dropped and dead-lettered
  kMalformed,     ///< non-finite or out-of-range; dead-lettered
};

const char* to_string(IngestClass c);

struct IngestConfig {
  /// Bounded lateness: a rating may trail the newest accepted rating by up
  /// to this many days and still be merged in order. 0 demands a sorted
  /// stream (any regression is dropped late).
  double max_lateness_days = 0.0;

  /// Dead-letter list capacity; oldest entries are evicted beyond this.
  std::size_t max_quarantine = 1024;
};

/// Ingestion counters. `accepted` includes `reordered`; the dead-letter
/// total `quarantined` equals `dropped_late + malformed`.
struct IngestStats {
  std::size_t submitted = 0;     ///< everything offered to submit()
  std::size_t accepted = 0;      ///< released (or releasable) downstream
  std::size_t reordered = 0;     ///< accepted with time < max seen time
  std::size_t duplicates = 0;    ///< exact resubmissions dropped
  std::size_t dropped_late = 0;  ///< behind the watermark
  std::size_t malformed = 0;     ///< failed validation
  std::size_t quarantined = 0;   ///< dead-letter total (late + malformed)

  friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

/// One dead-lettered rating with its classification and a human-readable
/// reason (the detail is diagnostic only and is not checkpointed).
struct QuarantinedRating {
  Rating rating;
  IngestClass reason = IngestClass::kMalformed;
  std::string detail;
};

/// Bounded-lateness reordering buffer with duplicate detection and a
/// dead-letter quarantine. See the file comment for the semantics.
class IngestBuffer {
 public:
  /// Duplicate-horizon key: (time, rater, product, value). Ordered by time
  /// first, which is the order snapshots list the horizon in.
  using SeenKey = std::tuple<double, RaterId, ProductId, double>;

  /// The classifier's state as plain data, in checkpoint (wire) order.
  struct State {
    IngestStats stats;
    bool anchored = false;
    double max_time = 0.0;
    std::vector<Rating> buffer;  ///< time order, ties in arrival order
    std::vector<SeenKey> seen;   ///< accepted keys with time >= watermark, ascending
    /// The internal dead-letter store, oldest first (empty while a
    /// quarantine sink is installed: the sink's owner keeps the entries).
    std::vector<QuarantinedRating> quarantine;
  };

  explicit IngestBuffer(IngestConfig config = {});

  /// Classifies one rating. Accepted ratings are buffered; every buffered
  /// rating whose time the new watermark has passed is appended to
  /// `released` in non-decreasing time order. Never throws on bad data.
  IngestClass submit(const Rating& rating, std::vector<Rating>& released);

  /// Releases everything still buffered (end of stream), in time order.
  /// The watermark and duplicate horizon are unchanged.
  void drain(std::vector<Rating>& released);

  /// Current watermark (-infinity before the first accepted rating).
  double watermark() const;

  /// True once at least one rating has been accepted.
  bool anchored() const { return anchored_; }

  /// Ratings accepted but still held for reordering.
  std::size_t buffered() const { return buffer_.size() - head_; }

  const IngestStats& stats() const { return stats_; }
  const std::deque<QuarantinedRating>& quarantine() const { return quarantine_; }
  const IngestConfig& config() const { return config_; }

  /// Copies the state out (checkpoints). The horizon is listed sorted, so
  /// equal states give equal snapshots whatever the table's slot layout.
  State snapshot() const;

  /// Replaces the state with `state` (the config is the constructor's).
  /// Horizon keys behind the restored watermark are dropped, as they would
  /// have expired.
  void restore(const State& state);

  /// Redirects dead-lettered ratings to `sink` instead of the internal
  /// capped deque. Counters (`quarantined`, `dropped_late`, `malformed`)
  /// still advance globally; only the storage moves. The sharded engine
  /// uses this to keep per-shard quarantine stores with per-shard caps
  /// while classification stays at the (global) front door. Pass an empty
  /// function to restore the internal deque.
  void set_quarantine_sink(std::function<void(QuarantinedRating&&)> sink) {
    quarantine_sink_ = std::move(sink);
  }

 private:
  /// Open-addressing (linear probing) set of horizon keys with lazy
  /// expiry. A slot is empty (time is NaN — never a valid rating time),
  /// live (time >= the watermark) or expired. Expired slots stay in the
  /// probe chains, so no chain is ever cut, and an insert reuses the first
  /// one its probe passes. Once half the slots are non-empty the table is
  /// rebuilt with only its live keys, into a spare array of the right size
  /// — warm inserts do not allocate.
  class Horizon {
   public:
    /// Inserts the key unless an equal one (time and value compared with
    /// ==, so ±0.0 match) is present; `mark` is the current watermark.
    /// Returns false for a duplicate.
    bool insert(const Rating& rating, double mark);
    /// The live keys (time >= mark), ascending.
    std::vector<SeenKey> live_keys(double mark) const;
    void clear();

   private:
    struct Slot {
      double time;
      double value;
      RaterId rater;
      ProductId product;
    };
    std::size_t home(const Slot& key) const;
    void rebuild(double mark);

    std::vector<Slot> slots_;
    std::vector<Slot> spare_;
    std::size_t used_ = 0;   ///< non-empty slots (live or expired)
    unsigned shift_ = 64;    ///< 64 − log2(capacity)
  };

  void quarantine_rating(const Rating& rating, IngestClass reason,
                         std::string detail);
  /// Inserts into the reorder buffer at the upper bound of its time.
  void buffer_insert(const Rating& rating);
  void release_ready(std::vector<Rating>& released);

  IngestConfig config_;
  IngestStats stats_;

  bool anchored_ = false;
  double max_time_ = 0.0;  ///< newest accepted event time (valid when anchored)

  /// Accepted ratings awaiting release: buffer_[head_..] sorted by time,
  /// ties in arrival order. The released prefix is compacted away once it
  /// is at least as long as what remains.
  std::vector<Rating> buffer_;
  std::size_t head_ = 0;

  Horizon seen_;

  std::deque<QuarantinedRating> quarantine_;
  std::function<void(QuarantinedRating&&)> quarantine_sink_;
};

}  // namespace trustrate::core
