#include "core/durable/durable_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/checkpoint.hpp"

namespace trustrate::core::durable {
namespace {

constexpr char kCkptPrefix[] = "ckpt-";
constexpr char kCkptSuffix[] = ".ckpt";

/// Checkpoint files in `dir`, newest (highest LSN) first.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_checkpoints(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kCkptPrefix, 0) != 0 || name.size() < 11 ||
        name.substr(name.size() - 5) != kCkptSuffix) {
      continue;
    }
    out.emplace_back(std::strtoull(name.c_str() + 5, nullptr, 10),
                     entry.path());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

const char* to_string(DurabilityState state) {
  switch (state) {
    case DurabilityState::kDurable:    return "durable";
    case DurabilityState::kDegraded:   return "degraded";
    case DurabilityState::kRecovering: return "recovering";
  }
  return "unknown";
}

std::string DurableStream::checkpoint_name(std::uint64_t lsn) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%020llu.ckpt",
                static_cast<unsigned long long>(lsn));
  return buf;
}

DurableStream::DurableStream(const std::filesystem::path& dir,
                             const SystemConfig& config, double epoch_days,
                             std::size_t retention_epochs, IngestConfig ingest,
                             DurableOptions options)
    : dir_(dir), options_(options) {
  recover(config, epoch_days, retention_epochs, ingest);
}

void DurableStream::recover(const SystemConfig& config, double epoch_days,
                            std::size_t retention_epochs,
                            const IngestConfig& ingest) {
  namespace fs = std::filesystem;
  const obs::SpanTimer recovery_span(options_.obs.trace, "recovery");
  obs::MetricsRegistry* metrics = options_.obs.metrics;
  const std::uint64_t recovery_t0 =
      metrics != nullptr ? obs::monotonic_ns() : 0;
  if (metrics != nullptr) {
    checkpoints_written_ = &metrics->counter(
        "trustrate_checkpoints_written_total", "Atomic checkpoints written");
    checkpoint_write_seconds_ = &metrics->histogram(
        "trustrate_checkpoint_write_seconds", obs::default_seconds_buckets(),
        "Checkpoint serialize + atomic write latency");
    degradations_total_ = &metrics->counter(
        "trustrate_durability_degradations_total",
        "Transitions into the degraded rung of the persistence ladder");
    heals_total_ =
        &metrics->counter("trustrate_durability_heals_total",
                          "Successful heals back to the durable rung");
    probe_failures_total_ =
        &metrics->counter("trustrate_durability_probe_failures_total",
                          "Heal probes rejected by the environment");
    io_faults_total_ = &metrics->counter(
        "trustrate_durability_io_faults_total",
        "Environmental I/O faults that persisted past the retry budget");
    emergency_prunes_total_ =
        &metrics->counter("trustrate_durability_emergency_prunes_total",
                          "ENOSPC emergency prunes of the durable directory");
    io_retries_total_ = &metrics->counter(
        "trustrate_io_retries_total",
        "Inline durable-I/O retries (EINTR, short writes, transient backoff)");
    state_gauge_ =
        &metrics->gauge("trustrate_durability_state",
                        "Ladder rung: 0 durable, 1 degraded, 2 recovering");
    backlog_gauge_ =
        &metrics->gauge("trustrate_durability_backlog_records",
                        "Records buffered in memory awaiting a heal");
  }
  fs::create_directories(dir_);

  // A crash mid-atomic-write leaves a `.tmp` the rename never promoted; it
  // was never the live checkpoint, so it is garbage.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = kTempSuffix;
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      fs::remove(entry.path());
    }
  }

  const WalRecovered wal = read_wal(dir_, io_env());
  recovery_.wal_tail_truncated = wal.tail_truncated;
  if (wal.tail_truncated) {
    if (metrics != nullptr) {
      metrics
          ->counter("trustrate_wal_torn_tail_truncations_total",
                    "Torn WAL tails truncated during recovery")
          .add();
    }
    if (options_.obs.audit != nullptr) {
      obs::AuditEvent e;
      e.type = obs::AuditEventType::kWalTailTruncated;
      e.value = static_cast<double>(wal.truncated_bytes);
      e.detail = "truncated " + std::to_string(wal.truncated_bytes) +
                 " torn byte(s) off the last WAL segment";
      options_.obs.audit->record(e);
    }
  }

  const auto checkpoints = list_checkpoints(dir_);
  recovery_.recovered = wal.next_lsn > 0 || !checkpoints.empty();

  // Rungs 1..n of the ladder: newest checkpoint first, falling past any
  // that fail their checksums (or any other load error).
  std::uint64_t replay_from = 0;
  for (const auto& [lsn, path] : checkpoints) {
    try {
      stream_.emplace(restore_stream(
          parse_checkpoint(stable_read_file(path, io_env())), config));
      recovery_.loaded_checkpoint = true;
      recovery_.checkpoint_lsn = lsn;
      replay_from = lsn;
      break;
    } catch (const CheckpointError&) {
      ++recovery_.corrupt_checkpoints;
      if (metrics != nullptr) {
        metrics
            ->counter("trustrate_recovery_corrupt_checkpoints_total",
                      "Checkpoint rungs skipped as corrupt during recovery")
            .add();
      }
    }
  }

  if (!stream_.has_value()) {
    // Final rung: fresh state, full replay — valid only when the log still
    // reaches back to record 0 (pruning assumes the checkpoints it kept
    // were good; if they all rotted, the early log may be gone).
    if (wal.next_lsn > 0 && wal.first_lsn > 0) {
      throw RecoveryError(
          "no valid checkpoint and the WAL starts at record " +
          std::to_string(wal.first_lsn) + ", not 0 (" +
          std::to_string(recovery_.corrupt_checkpoints) +
          " corrupt checkpoint(s) skipped): state before record " +
          std::to_string(wal.first_lsn) + " is unrecoverable");
    }
    stream_.emplace(config, epoch_days, retention_epochs, ingest);
  } else if (wal.next_lsn > replay_from && wal.first_lsn > replay_from) {
    throw RecoveryError(
        "checkpoint at record " + std::to_string(replay_from) +
        " needs WAL records from " + std::to_string(replay_from) +
        " onward, but the log starts at record " +
        std::to_string(wal.first_lsn));
  }

  // Observability attaches before replay: the replayed epochs re-emit their
  // metrics and audit events, so a recovered process's telemetry describes
  // the state it actually rebuilt. This re-attaches the epoch observer too,
  // which is why the durable layer never triggers observer_not_restored.
  stream_->set_observability(options_.obs);
  stream_->set_epoch_observer(
      [this](const EpochReport&, double /*epoch_start*/, double epoch_end) {
        observed_closes_.push_back(epoch_end);
      });

  {
    const obs::SpanTimer replay_span(options_.obs.trace, "recovery.replay");
    for (const auto& [lsn, record] : wal.records) {
      if (lsn < replay_from) continue;
      replay(record, lsn);
      ++recovery_.replayed_records;
    }
  }
  if (metrics != nullptr) {
    metrics
        ->counter("trustrate_recovery_replayed_records_total",
                  "WAL records applied during recovery")
        .add(recovery_.replayed_records);
    metrics
        ->counter("trustrate_recovery_replayed_ratings_total",
                  "Rating records among the replayed WAL records")
        .add(recovery_.replayed_ratings);
  }

  WalOptions wal_options;
  wal_options.segment_bytes = options_.segment_bytes;
  wal_options.fsync = options_.fsync;
  wal_options.crash = options_.crash;
  wal_options.faults = options_.faults;
  wal_options.io = options_.io;
  wal_options.obs = options_.obs;
  if (wal.next_lsn < replay_from) {
    // The log ends before the checkpoint (its tail segments are gone, e.g.
    // pruned). New records must take LSNs after the checkpoint, or the next
    // recovery would discard them as already-captured.
    wal_.emplace(dir_, replay_from, wal_options);
  } else {
    wal_.emplace(dir_, wal, wal_options);
  }

  if (recovery_.loaded_checkpoint) {
    last_checkpoint_lsn_ = recovery_.checkpoint_lsn;
  }
  if (state_gauge_ != nullptr) state_gauge_->set(0.0);
  if (backlog_gauge_ != nullptr) backlog_gauge_->set(0.0);

  if (metrics != nullptr) {
    metrics
        ->histogram("trustrate_recovery_seconds",
                    obs::default_seconds_buckets(),
                    "Full recovery ladder wall time (scan + load + replay)")
        .observe(static_cast<double>(obs::monotonic_ns() - recovery_t0) *
                 1e-9);
  }
  refresh_probe(/*scan_segments=*/true);
}

void DurableStream::refresh_probe(bool scan_segments) {
  obs::DurabilityProbe p;
  p.present = true;
  p.state = to_string(state_);
  p.acknowledged = acknowledged();
  p.durable_acknowledged = durable_acknowledged();
  p.backlog_records = backlog_.size();
  p.last_checkpoint = last_checkpoint_lsn_;
  const std::uint64_t next = wal_->next_lsn();
  p.wal_records = next;
  p.records_since_checkpoint =
      next >= last_checkpoint_lsn_ ? next - last_checkpoint_lsn_ : 0;
  p.active_segment_records = next - wal_->active_segment_first_lsn();
  p.heals = heals_count_;
  p.failstops = 0;
  p.last_failure = last_failure_;
  const std::size_t segments =
      scan_segments ? wal_segments(dir_).size() : 0;
  std::lock_guard<std::mutex> lock(probe_mutex_);
  p.wal_segments =
      scan_segments ? segments : probe_snapshot_.wal_segments;
  probe_snapshot_ = std::move(p);
}

obs::DurabilityProbe DurableStream::probe() const {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  return probe_snapshot_;
}

IoEnv DurableStream::io_env() const {
  IoEnv env;
  env.crash = options_.crash;
  env.faults = options_.faults;
  env.policy = options_.io;
  env.retries_total = io_retries_total_;
  return env;
}

void DurableStream::set_state(DurabilityState next, const std::string& detail) {
  if (state_ == next) return;
  state_ = next;
  if (state_gauge_ != nullptr) {
    state_gauge_->set(static_cast<double>(static_cast<int>(next)));
  }
  if (options_.obs.audit != nullptr) {
    obs::AuditEvent e;
    switch (next) {
      case DurabilityState::kDegraded:
        e.type = obs::AuditEventType::kDurabilityDegraded;
        break;
      case DurabilityState::kRecovering:
        e.type = obs::AuditEventType::kDurabilityRecovering;
        break;
      case DurabilityState::kDurable:
        e.type = obs::AuditEventType::kDurabilityRestored;
        break;
    }
    e.value = static_cast<double>(backlog_.size());
    e.detail = detail;
    options_.obs.audit->record(e);
  }
}

void DurableStream::note_io_fault(const IoError& error) {
  (void)error;
  if (io_faults_total_ != nullptr) io_faults_total_->add();
}

void DurableStream::enter_degraded(const IoError& error) {
  if (state_ != DurabilityState::kDurable) return;
  last_failure_ = std::string(error.op()) + " on '" + error.path() +
                  "': " + error.what();
  // Freeze the failed-fsync window: rating frames appended since the last
  // successful barrier stay suspect (their pages may have been dropped)
  // until a heal checkpoint rewrites the state through an independent path.
  suspect_ratings_ = unsynced_ratings_;
  unsynced_ratings_ = 0;
  degraded_submits_ = 0;
  if (degradations_total_ != nullptr) degradations_total_->add();
  set_state(DurabilityState::kDegraded,
            "WAL suspended after persistent '" + error.op() + "' fault on '" +
                error.path() + "': " + error.what());
}

void DurableStream::enqueue_backlog(const WalRecord& record) {
  backlog_.push_back(record);
  if (record.type == WalRecordType::kRating) ++backlog_ratings_;
  if (backlog_gauge_ != nullptr) {
    backlog_gauge_->set(static_cast<double>(backlog_.size()));
  }
}

DurableStream::AppendResult DurableStream::try_wal_append(
    const WalRecord& record) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::uint64_t pre = wal_->next_lsn();
    try {
      wal_->append(record);
      if (record.type == WalRecordType::kRating) {
        if (options_.fsync == FsyncPolicy::kAlways) {
          unsynced_ratings_ = 0;  // append() synced the segment
        } else {
          ++unsynced_ratings_;
        }
      }
      return AppendResult::kLogged;
    } catch (const IoError& e) {
      note_io_fault(e);
      if (wal_->next_lsn() > pre) {
        // The frame IS in the log; only the kAlways fsync step failed. It
        // must not be backlogged (replay would double-apply it) — it joins
        // the suspect window instead.
        if (record.type == WalRecordType::kRating) ++unsynced_ratings_;
        enter_degraded(e);
        return AppendResult::kLoggedUnsynced;
      }
      if (attempt == 0 && e.error_code() == ENOSPC &&
          options_.emergency_prune && emergency_prune_space()) {
        try {
          wal_->repair();  // the failed append left a torn tail; clear it
          continue;        // space freed below the horizon — one retry
        } catch (const IoError& repair_error) {
          note_io_fault(repair_error);
          enter_degraded(repair_error);
          return AppendResult::kFailed;
        }
      }
      enter_degraded(e);
      return AppendResult::kFailed;
    }
  }
  return AppendResult::kFailed;
}

void DurableStream::try_wal_sync() {
  if (state_ != DurabilityState::kDurable) return;
  try {
    wal_->sync();
    unsynced_ratings_ = 0;
  } catch (const IoError& e) {
    note_io_fault(e);
    enter_degraded(e);
  }
}

void DurableStream::maybe_probe_heal() {
  if (options_.heal_probe_every == 0) return;
  if (++degraded_submits_ < options_.heal_probe_every) return;
  degraded_submits_ = 0;
  try_heal();
}

bool DurableStream::probe_environment() {
  namespace fs = std::filesystem;
  // kTempSuffix so a crash mid-probe leaves a file the recovery GC removes.
  const fs::path probe = dir_ / (std::string(".durability-probe") + kTempSuffix);
  std::error_code ec;
  fs::remove(probe, ec);
  try {
    DurableFile file(probe, io_env());
    file.append("trustrate durability probe\n");
    file.sync();
    file.close();
    fs::remove(probe, ec);
    return true;
  } catch (const IoError& e) {
    note_io_fault(e);
    if (probe_failures_total_ != nullptr) probe_failures_total_->add();
    fs::remove(probe, ec);
    return false;
  }
}

bool DurableStream::emergency_prune_space() {
  namespace fs = std::filesystem;
  // Disk full: free everything redundant without moving the durability
  // horizon backward — checkpoints beyond the newest, and WAL segments
  // wholly below it. Recovery depth shrinks to one rung, but the newest
  // checkpoint plus the surviving log still reproduce the exact state.
  bool freed = false;
  const auto checkpoints = list_checkpoints(dir_);  // newest first
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    std::error_code ec;
    freed = fs::remove(checkpoints[i].second, ec) || freed;
  }
  if (!checkpoints.empty()) {
    const std::uint64_t horizon = checkpoints.front().first;
    const auto segments = wal_segments(dir_);
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      if (segments[i + 1].first_lsn <= horizon) {
        std::error_code ec;
        freed = fs::remove(segments[i].path, ec) || freed;
      }
    }
  }
  if (freed && emergency_prunes_total_ != nullptr) {
    emergency_prunes_total_->add();
  }
  return freed;
}

bool DurableStream::try_heal() {
  if (state_ == DurabilityState::kDurable) return true;
  set_state(DurabilityState::kRecovering,
            "probing environment; " + std::to_string(backlog_.size()) +
                " backlog record(s) pending");
  if (!probe_environment()) {
    set_state(DurabilityState::kDegraded,
              "heal probe rejected by the environment");
    refresh_probe(/*scan_segments=*/false);
    return false;
  }
  std::uint64_t replayed_ratings = 0;
  try {
    wal_->repair();
    while (!backlog_.empty()) {
      const WalRecord record = backlog_.front();
      const std::uint64_t pre = wal_->next_lsn();
      try {
        wal_->append(record);
      } catch (const IoError&) {
        if (wal_->next_lsn() > pre) {
          // Logged but unsynced (kAlways fsync failed mid-heal): consume it
          // from the backlog — re-appending would duplicate the frame.
          backlog_.pop_front();
          if (record.type == WalRecordType::kRating) {
            --backlog_ratings_;
            ++replayed_ratings;
          }
          if (backlog_gauge_ != nullptr) {
            backlog_gauge_->set(static_cast<double>(backlog_.size()));
          }
        }
        throw;
      }
      backlog_.pop_front();
      if (record.type == WalRecordType::kRating) {
        --backlog_ratings_;
        ++replayed_ratings;
      }
      if (backlog_gauge_ != nullptr) {
        backlog_gauge_->set(static_cast<double>(backlog_.size()));
      }
    }
    // Re-establish the durability horizon through an independent path: the
    // checkpoint syncs the fresh segment and its own atomic file, which
    // supersedes every suspect frame — we never trust a later fsync of a
    // handle that failed one (the failed-fsync trap).
    write_checkpoint_locked();
    suspect_ratings_ = 0;
    ++heals_count_;
    if (heals_total_ != nullptr) heals_total_->add();
    set_state(DurabilityState::kDurable,
              "backlog replayed; checkpoint " +
                  std::to_string(last_checkpoint_lsn_) + " re-established");
    refresh_probe(/*scan_segments=*/true);
    return true;
  } catch (const IoError& e) {
    // Ratings replayed into the log during this failed heal are not yet
    // superseded by a checkpoint — keep them out of the durable cursor.
    suspect_ratings_ += replayed_ratings;
    note_io_fault(e);
    set_state(DurabilityState::kDegraded,
              std::string("heal failed: ") + e.what());
    refresh_probe(/*scan_segments=*/false);
    return false;
  }
}

void DurableStream::write_checkpoint_locked() {
  // The log must be on disk before a checkpoint claims to supersede it —
  // regardless of fsync policy.
  wal_->sync();
  unsynced_ratings_ = 0;
  const std::uint64_t lsn = wal_->next_lsn();
  atomic_write_file(dir_ / checkpoint_name(lsn),
                    render_checkpoint(take_snapshot(*stream_),
                                      kCheckpointVersion),
                    io_env());
  prune();
  last_checkpoint_lsn_ = lsn;
  if (checkpoints_written_ != nullptr) checkpoints_written_->add();
}

void DurableStream::replay(const WalRecord& record, std::uint64_t lsn) {
  switch (record.type) {
    case WalRecordType::kRating: {
      observed_closes_.clear();
      const IngestClass got = stream_->submit(record.rating);
      ++recovery_.replayed_ratings;
      if (got != record.ingest_class) {
        throw WalError("WAL replay diverged at record " + std::to_string(lsn) +
                       ": logged classification '" +
                       to_string(record.ingest_class) +
                       "', replay produced '" + to_string(got) + "'");
      }
      break;
    }
    case WalRecordType::kEpochClose:
      // The closes themselves were re-triggered by replaying the preceding
      // rating; the marker just cross-checks that they happened.
      if (stream_->epochs_closed() != record.epochs_closed) {
        throw WalError(
            "WAL replay diverged at record " + std::to_string(lsn) +
            ": epoch-close marker expects " +
            std::to_string(record.epochs_closed) + " closed epoch(s), replay has " +
            std::to_string(stream_->epochs_closed()));
      }
      break;
    case WalRecordType::kFlush:
      observed_closes_.clear();
      stream_->flush();
      if (stream_->epochs_closed() != record.epochs_closed) {
        throw WalError(
            "WAL replay diverged at record " + std::to_string(lsn) +
            ": flush marker expects " + std::to_string(record.epochs_closed) +
            " closed epoch(s), replay has " +
            std::to_string(stream_->epochs_closed()));
      }
      break;
    case WalRecordType::kShardRating:
    case WalRecordType::kShardFlush:
      // A sharded stream's record in a plain log: this directory belongs
      // to a ShardedDurableStream (or was mixed up with one). Replaying
      // past it would silently drop a submission.
      throw WalError("plain WAL holds a sharded record type " +
                     std::to_string(static_cast<int>(record.type)) +
                     " at record " + std::to_string(lsn));
  }
}

IngestClass DurableStream::submit(const Rating& rating) {
  observed_closes_.clear();
  const std::uint64_t before = stream_->epochs_closed();
  const IngestClass klass = stream_->submit(rating);
  const std::uint64_t after = stream_->epochs_closed();

  // Apply-then-log is sound here: the in-memory effect dies with the
  // process, so a crash inside append simply un-happens the submit — the
  // caller was never acknowledged and resumes from acknowledged().
  WalRecord record;
  record.type = WalRecordType::kRating;
  record.rating = rating;
  record.ingest_class = klass;

  std::optional<WalRecord> marker;
  if (after > before) {
    WalRecord m;
    m.type = WalRecordType::kEpochClose;
    m.epochs_closed = after;
    m.epoch_start = observed_closes_.empty() ? 0.0 : observed_closes_.back();
    marker = m;
  }

  if (state_ != DurabilityState::kDurable) {
    // Degraded: the WAL is suspended. Apply-then-buffer keeps the
    // acknowledgement and LSN ordering; durability resumes on heal.
    enqueue_backlog(record);
    if (marker.has_value()) enqueue_backlog(*marker);
    maybe_probe_heal();
    refresh_probe(/*scan_segments=*/false);
    return klass;
  }

  if (try_wal_append(record) == AppendResult::kFailed) {
    enqueue_backlog(record);
    if (marker.has_value()) enqueue_backlog(*marker);
    refresh_probe(/*scan_segments=*/false);
    return klass;
  }
  if (marker.has_value()) {
    if (state_ == DurabilityState::kDurable) {
      if (try_wal_append(*marker) == AppendResult::kFailed) {
        enqueue_backlog(*marker);
      }
    } else {
      // The rating frame went in but its fsync degraded us mid-pair.
      enqueue_backlog(*marker);
    }
    if (state_ == DurabilityState::kDurable &&
        options_.fsync == FsyncPolicy::kEpoch) {
      try_wal_sync();
    }
  }
  refresh_probe(/*scan_segments=*/false);
  return klass;
}

std::size_t DurableStream::flush() {
  observed_closes_.clear();
  const std::size_t processed = stream_->flush();

  WalRecord record;
  record.type = WalRecordType::kFlush;
  record.epochs_closed = stream_->epochs_closed();

  if (state_ != DurabilityState::kDurable) {
    enqueue_backlog(record);
    maybe_probe_heal();
    refresh_probe(/*scan_segments=*/false);
    return processed;
  }
  if (try_wal_append(record) == AppendResult::kFailed) {
    enqueue_backlog(record);
    refresh_probe(/*scan_segments=*/false);
    return processed;
  }
  if (state_ == DurabilityState::kDurable &&
      options_.fsync == FsyncPolicy::kEpoch) {
    try_wal_sync();
  }
  refresh_probe(/*scan_segments=*/false);
  return processed;
}

std::uint64_t DurableStream::checkpoint() {
  if (state_ != DurabilityState::kDurable) {
    try_heal();  // a successful heal re-checkpoints as its final step
    return last_checkpoint_lsn_;
  }
  const obs::SpanTimer span(options_.obs.trace, "checkpoint.write");
  const std::uint64_t t0 =
      checkpoint_write_seconds_ != nullptr ? obs::monotonic_ns() : 0;
  try {
    write_checkpoint_locked();
  } catch (const IoError& e) {
    note_io_fault(e);
    bool healed_inline = false;
    if (e.error_code() == ENOSPC && options_.emergency_prune &&
        emergency_prune_space()) {
      try {
        write_checkpoint_locked();
        healed_inline = true;
      } catch (const IoError& retry_error) {
        note_io_fault(retry_error);
        enter_degraded(retry_error);
      }
    } else {
      enter_degraded(e);
    }
    if (!healed_inline) {
      refresh_probe(/*scan_segments=*/true);
      return last_checkpoint_lsn_;
    }
  }
  if (checkpoint_write_seconds_ != nullptr) {
    checkpoint_write_seconds_->observe(
        static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
  }
  refresh_probe(/*scan_segments=*/true);
  return last_checkpoint_lsn_;
}

void DurableStream::prune() {
  const auto checkpoints = list_checkpoints(dir_);  // newest first
  const std::size_t keep = std::max<std::size_t>(1, options_.keep_checkpoints);
  std::uint64_t oldest_kept = 0;
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    if (i < keep) {
      oldest_kept = checkpoints[i].first;
    } else {
      std::filesystem::remove(checkpoints[i].second);
    }
  }
  if (checkpoints.empty()) return;

  // A segment is obsolete when its *successor* starts at or below the
  // oldest kept checkpoint: every record in it is then < that checkpoint's
  // LSN. The last segment never qualifies (no successor), so the active
  // segment is never removed. Obsolete segments form a prefix, so the
  // surviving log stays contiguous even if a crash interrupts the loop.
  const auto segments = wal_segments(dir_);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first_lsn <= oldest_kept) {
      std::filesystem::remove(segments[i].path);
    }
  }
}

}  // namespace trustrate::core::durable
