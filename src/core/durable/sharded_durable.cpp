#include "core/durable/sharded_durable.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "core/checkpoint.hpp"

namespace trustrate::core::durable {
namespace {

/// Checkpoint files in `dir`, newest (highest ordinal) first.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_checkpoints(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0 || name.size() < 11 ||
        name.substr(name.size() - 5) != ".ckpt") {
      continue;
    }
    out.emplace_back(std::strtoull(name.c_str() + 5, nullptr, 10),
                     entry.path());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

/// Existing shard-<k> subdirectories, in index order (the on-disk layout,
/// which may differ from the target layout after a reshard).
std::vector<std::filesystem::path> list_shard_dirs(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    found.emplace_back(std::strtoull(name.c_str() + 6, nullptr, 10),
                       entry.path());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (auto& [index, path] : found) out.push_back(std::move(path));
  return out;
}

}  // namespace

std::filesystem::path ShardedDurableStream::shard_dir(
    const std::filesystem::path& dir, std::size_t k) {
  return dir / ("shard-" + std::to_string(k));
}

std::string ShardedDurableStream::checkpoint_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%020llu.ckpt",
                static_cast<unsigned long long>(seq));
  return buf;
}

ShardedDurableStream::ShardedDurableStream(const std::filesystem::path& dir,
                                           const SystemConfig& config,
                                           shard::ShardOptions shard_options,
                                           double epoch_days,
                                           std::size_t retention_epochs,
                                           IngestConfig ingest,
                                           ShardedDurableOptions options)
    : dir_(dir),
      shard_options_(std::move(shard_options)),
      options_(std::move(options)),
      config_(config),
      epoch_days_(epoch_days),
      retention_epochs_(retention_epochs),
      ingest_(ingest) {
  recover(config_, epoch_days_, retention_epochs_, ingest_);
  refresh_probe(/*scan_segments=*/true);
}

void ShardedDurableStream::refresh_probe(bool scan_segments) {
  obs::DurabilityProbe p;
  p.present = true;
  // No degradation ladder here: an environmental I/O error throws instead
  // (see the file header). Engine health lives in the pipeline probe.
  p.state = "durable";
  p.acknowledged = acknowledged();
  p.durable_acknowledged = p.acknowledged;
  p.backlog_records = 0;
  p.last_checkpoint = last_checkpoint_seq_;
  p.records_since_checkpoint =
      p.acknowledged >= last_checkpoint_seq_
          ? p.acknowledged - last_checkpoint_seq_
          : 0;
  for (const auto& writer : writers_) {
    if (writer == nullptr) continue;
    p.wal_records += writer->next_lsn();
    p.active_segment_records +=
        writer->next_lsn() - writer->active_segment_first_lsn();
  }
  p.heals = supervision_.heals;
  p.failstops = supervision_.failstops;
  p.last_failure = supervision_.last_failure;
  std::size_t segments = 0;
  if (scan_segments) {
    for (std::size_t k = 0; k < writers_.size(); ++k) {
      segments += wal_segments(shard_dir(dir_, k)).size();
    }
  }
  std::lock_guard<std::mutex> lock(probe_mutex_);
  p.wal_segments = scan_segments ? segments : probe_snapshot_.wal_segments;
  probe_snapshot_ = std::move(p);
}

obs::DurabilityProbe ShardedDurableStream::probe() const {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  return probe_snapshot_;
}

WalOptions ShardedDurableStream::wal_options() const {
  WalOptions wal;
  wal.segment_bytes = options_.segment_bytes;
  wal.fsync = options_.fsync;
  wal.obs = options_.obs;
  return wal;
}

void ShardedDurableStream::recover(const SystemConfig& config,
                                   double epoch_days,
                                   std::size_t retention_epochs,
                                   const IngestConfig& ingest) {
  namespace fs = std::filesystem;
  const obs::SpanTimer recovery_span(options_.obs.trace, "shard.recovery");
  fs::create_directories(dir_);

  // Stale `.tmp` files from an interrupted atomic checkpoint write were
  // never the live checkpoint; delete them.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = kTempSuffix;
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      fs::remove(entry.path());
    }
  }

  // The on-disk layout is whatever shard directories exist BEFORE this
  // open creates the target's — the reshard detection below compares the
  // two, so the listing must precede the creation.
  const std::vector<fs::path> disk_shards = list_shard_dirs(dir_);
  for (std::size_t k = 0; k < shard_options_.shards; ++k) {
    fs::create_directories(shard_dir(dir_, k));
  }
  std::vector<WalRecovered> recovered_logs;
  recovered_logs.reserve(disk_shards.size());
  for (const fs::path& sdir : disk_shards) {
    WalRecovered wal = read_wal(sdir);
    if (wal.tail_truncated) ++recovery_.torn_shards;
    recovered_logs.push_back(std::move(wal));
  }

  const auto checkpoints = list_checkpoints(dir_);
  recovery_.recovered =
      !checkpoints.empty() ||
      std::any_of(recovered_logs.begin(), recovered_logs.end(),
                  [](const WalRecovered& w) { return w.next_lsn > 0; });

  // Checkpoint rungs, newest first; a corrupt newer file never masks an
  // older valid one.
  StreamSnapshot snapshot;
  bool have_snapshot = false;
  for (const auto& [seq, path] : checkpoints) {
    try {
      snapshot = parse_checkpoint(stable_read_file(path));
      recovery_.loaded_checkpoint = true;
      recovery_.checkpoint_seq = seq;
      last_checkpoint_seq_ = seq;
      have_snapshot = true;
      break;
    } catch (const DataError&) {
      ++recovery_.corrupt_checkpoints;
    }
  }

  if (have_snapshot) {
    system_ = shard::ShardedRatingSystem::from_snapshot(snapshot, config,
                                                        shard_options_);
  } else {
    system_ = std::make_unique<shard::ShardedRatingSystem>(
        config, shard_options_, epoch_days, retention_epochs, ingest);
  }
  system_->set_observability(options_.obs);

  // Merge the shard logs into global submission order. Flush markers live
  // on shard 0 in log order; their ordinal is the submission count they
  // were issued after.
  std::vector<WalRecord> ratings;
  std::vector<WalRecord> flushes;
  for (std::size_t k = 0; k < recovered_logs.size(); ++k) {
    for (const auto& [lsn, record] : recovered_logs[k].records) {
      if (record.type == WalRecordType::kShardRating) {
        ratings.push_back(record);
      } else if (record.type == WalRecordType::kShardFlush) {
        flushes.push_back(record);
      } else {
        throw WalError("sharded WAL " + disk_shards[k].string() +
                       " holds a non-sharded record type " +
                       std::to_string(static_cast<int>(record.type)));
      }
    }
  }
  std::sort(ratings.begin(), ratings.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });
  std::stable_sort(flushes.begin(), flushes.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.seq < b.seq;
                   });

  // Longest contiguous ordinal run starting at the checkpoint horizon. A
  // hole means a torn shard lost an acknowledged submission; everything
  // after the hole is unreplayable regardless of which shard still holds
  // it (the classifier's verdicts depend on every prior submission).
  const std::uint64_t replay_from = system_->ingest_stats().submitted;
  std::uint64_t next_seq = replay_from;
  std::size_t flush_at = 0;
  std::size_t usable_ratings = 0;
  for (const WalRecord& record : ratings) {
    if (record.seq < replay_from) continue;
    if (record.seq != next_seq) break;  // hole: stop here
    ++usable_ratings;
    ++next_seq;
  }
  std::size_t discarded = 0;
  {
    std::size_t seen = 0;
    for (const WalRecord& record : ratings) {
      if (record.seq < replay_from) continue;
      ++seen;
    }
    discarded = seen - usable_ratings;
  }

  const obs::SpanTimer replay_span(options_.obs.trace, "shard.recovery.replay");
  std::uint64_t cursor = replay_from;
  auto apply_flushes_through = [&](std::uint64_t through) {
    while (flush_at < flushes.size() && flushes[flush_at].seq <= through) {
      if (flushes[flush_at].seq >= replay_from) {
        system_->flush();
        ++recovery_.replayed_records;
      }
      ++flush_at;
    }
  };
  for (const WalRecord& record : ratings) {
    if (record.seq < replay_from) continue;
    if (record.seq >= next_seq) break;
    apply_flushes_through(record.seq);
    const IngestClass klass = system_->submit(record.rating);
    if (klass != record.ingest_class) {
      throw RecoveryError(
          "sharded WAL replay diverged at submission " +
          std::to_string(record.seq) + ": logged verdict " +
          std::string(to_string(record.ingest_class)) + ", replay got " +
          std::string(to_string(klass)));
    }
    cursor = record.seq + 1;
    ++recovery_.replayed_records;
    ++recovery_.replayed_ratings;
  }
  apply_flushes_through(cursor);
  // Flush markers beyond the replayed prefix are as unreplayable as the
  // submissions they followed.
  discarded += flushes.size() - flush_at;
  recovery_.discarded_records = discarded;

  // When recovery lost anything — or the disk layout isn't the target
  // layout — re-anchor durability NOW: checkpoint the recovered state and
  // reset every shard log, so orphaned frames can never resurface and the
  // layouts agree from here on.
  // A fresh directory (no durable state at all) is not a reshard — only a
  // mismatch against state that actually existed forces the reset.
  const bool layout_changed =
      recovery_.recovered && disk_shards.size() != shard_options_.shards;
  if (discarded > 0 || recovery_.torn_shards > 0 || layout_changed) {
    write_checkpoint_file();
    reset_wals();
    recovery_.wal_reset = true;
    prune();
    return;
  }

  open_writers(recovered_logs);
}

void ShardedDurableStream::open_writers(
    const std::vector<WalRecovered>& recovered) {
  writers_.clear();
  writers_.reserve(shard_options_.shards);
  for (std::size_t k = 0; k < shard_options_.shards; ++k) {
    if (k < recovered.size()) {
      writers_.push_back(std::make_unique<WalWriter>(
          shard_dir(dir_, k), recovered[k], wal_options()));
    } else {
      writers_.push_back(std::make_unique<WalWriter>(shard_dir(dir_, k),
                                                     std::uint64_t{0},
                                                     wal_options()));
    }
  }
}

void ShardedDurableStream::reset_wals() {
  namespace fs = std::filesystem;
  writers_.clear();
  for (const fs::path& sdir : list_shard_dirs(dir_)) {
    const std::size_t index =
        std::strtoull(sdir.filename().string().c_str() + 6, nullptr, 10);
    for (const WalSegment& seg : wal_segments(sdir)) {
      fs::remove(seg.path);
    }
    if (index >= shard_options_.shards) fs::remove_all(sdir);
  }
  for (std::size_t k = 0; k < shard_options_.shards; ++k) {
    fs::create_directories(shard_dir(dir_, k));
    writers_.push_back(std::make_unique<WalWriter>(
        shard_dir(dir_, k), std::uint64_t{0}, wal_options()));
  }
}

IngestClass ShardedDurableStream::submit(const Rating& rating) {
  // Apply first, then log: the global ordinal is the submission's index in
  // arrival order, which the classifier's counter hands us post-increment.
  // The apply/log order also makes supervised healing exactly-once: a
  // submission interrupted by a ShardFailure was never logged, the rebuilt
  // system replays only acknowledged state, and the retry below
  // re-classifies it deterministically from scratch.
  IngestClass result{};
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      result = system_->submit(rating);
      break;
    } catch (const ShardFailure& failure) {
      if (attempt >= options_.heal_attempts) {
        record_failstop(failure);
        throw;
      }
      heal(failure);
    }
  }
  const std::uint64_t seq = system_->ingest_stats().submitted - 1;
  const std::size_t k = system_->shard_for(rating.product);
  WalRecord record;
  record.type = WalRecordType::kShardRating;
  record.rating = rating;
  record.ingest_class = result;
  record.seq = seq;
  writers_[k]->append(record);
  if (options_.fsync == FsyncPolicy::kAlways) writers_[k]->sync();
  refresh_probe(/*scan_segments=*/false);
  return result;
}

std::size_t ShardedDurableStream::flush() {
  std::size_t products = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      products = system_->flush();
      break;
    } catch (const ShardFailure& failure) {
      if (attempt >= options_.heal_attempts) {
        record_failstop(failure);
        throw;
      }
      heal(failure);
    }
  }
  WalRecord record;
  record.type = WalRecordType::kShardFlush;
  record.seq = system_->ingest_stats().submitted;
  record.epochs_closed = system_->epochs_closed();
  writers_[0]->append(record);
  if (options_.fsync != FsyncPolicy::kNone) sync_all();
  refresh_probe(/*scan_segments=*/false);
  return products;
}

bool ShardedDurableStream::try_heal() {
  if (!system_->failed()) return true;
  const std::optional<ShardFailure> failure = system_->failure();
  heal(*failure);
  return !system_->failed();
}

void ShardedDurableStream::heal(const ShardFailure& failure) {
  const obs::SpanTimer heal_span(options_.obs.trace, "shard.heal");
  supervision_.last_failure = failure.what();
  // Release the WAL writers first (recover() re-opens the segments), then
  // the engine — its destructor runs the close-aware shutdown protocol,
  // which cannot hang on the poisoned/stalled workers (DESIGN.md §15).
  writers_.clear();
  system_.reset();
  recovery_ = RecoveryInfo{};
  recover(config_, epoch_days_, retention_epochs_, ingest_);
  ++supervision_.heals;
  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics
        ->counter("trustrate_pipeline_heals_total",
                  "Supervised pipeline rebuilds from checkpoint + WAL")
        .add();
  }
  if (options_.obs.audit != nullptr) {
    obs::AuditEvent e;
    e.type = obs::AuditEventType::kPipelineHealed;
    e.value = static_cast<double>(failure.shard());
    e.detail = std::string(to_string(failure.kind())) + ": " +
               failure.what() + " — replayed " +
               std::to_string(recovery_.replayed_ratings) +
               " submissions from checkpoint " +
               std::to_string(recovery_.checkpoint_seq);
    options_.obs.audit->record(e);
  }
  refresh_probe(/*scan_segments=*/true);
}

void ShardedDurableStream::record_failstop(const ShardFailure& failure) {
  ++supervision_.failstops;
  supervision_.last_failure = failure.what();
  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics
        ->counter("trustrate_pipeline_failstops_total",
                  "ShardFailures surfaced to the caller with no heal left")
        .add();
  }
  if (options_.obs.audit != nullptr) {
    obs::AuditEvent e;
    e.type = obs::AuditEventType::kPipelineFailstop;
    e.value = static_cast<double>(failure.shard());
    e.detail = std::string(to_string(failure.kind())) + ": " +
               failure.what() + " — " + failure.diagnostic();
    options_.obs.audit->record(e);
  }
  refresh_probe(/*scan_segments=*/false);
}

void ShardedDurableStream::sync_all() {
  for (auto& writer : writers_) writer->sync();
}

void ShardedDurableStream::write_checkpoint_file() {
  const StreamSnapshot snapshot = system_->snapshot();
  const std::uint64_t seq = snapshot.stats.submitted;
  atomic_write_file(dir_ / checkpoint_name(seq),
                    render_checkpoint(snapshot, kShardedCheckpointVersion));
  last_checkpoint_seq_ = seq;
  std::vector<std::uint64_t> lsns;
  lsns.reserve(writers_.size());
  for (const auto& writer : writers_) {
    lsns.push_back(writer != nullptr ? writer->next_lsn() : 0);
  }
  checkpoint_wal_lsns_[seq] = std::move(lsns);
}

std::uint64_t ShardedDurableStream::checkpoint() {
  // snapshot() quiesces, so a latched failure surfaces here too.
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      if (options_.fsync != FsyncPolicy::kNone) sync_all();
      write_checkpoint_file();
      break;
    } catch (const ShardFailure& failure) {
      if (attempt >= options_.heal_attempts) {
        record_failstop(failure);
        throw;
      }
      heal(failure);
    }
  }
  prune();
  refresh_probe(/*scan_segments=*/true);
  return last_checkpoint_seq_;
}

void ShardedDurableStream::prune() {
  const auto checkpoints = list_checkpoints(dir_);  // newest first
  const std::size_t keep = std::max<std::size_t>(1, options_.keep_checkpoints);
  std::uint64_t oldest_kept = 0;
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    if (i < keep) {
      oldest_kept = checkpoints[i].first;
    } else {
      std::filesystem::remove(checkpoints[i].second);
      checkpoint_wal_lsns_.erase(checkpoints[i].first);
    }
  }
  // Shard segments are prunable only below a cursor we RECORDED for the
  // oldest kept checkpoint; inherited checkpoints (unknown cursors) prune
  // nothing until newer ones displace them.
  const auto it = checkpoint_wal_lsns_.find(oldest_kept);
  if (it == checkpoint_wal_lsns_.end()) return;
  const std::vector<std::uint64_t>& horizons = it->second;
  for (std::size_t k = 0; k < writers_.size() && k < horizons.size(); ++k) {
    const auto segments = wal_segments(shard_dir(dir_, k));
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      if (segments[i + 1].first_lsn <= horizons[k]) {
        std::filesystem::remove(segments[i].path);
      }
    }
  }
}

}  // namespace trustrate::core::durable
