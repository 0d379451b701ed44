// Streaming checkpoint/recovery (extension beyond the paper).
//
// The trust store alone (trust/store_io.hpp) is not enough to restart a
// deployed StreamingRatingSystem: mid-epoch state — the epoch anchor, the
// reorder buffer, per-product pending and retained series, ingestion
// counters — would be lost, and the restarted process would diverge from
// the uninterrupted run. save_checkpoint captures the *complete* streaming
// state; load_checkpoint restores it so the resumed stream reproduces the
// uninterrupted run's trust values and aggregates exactly.
//
// Format: a versioned, line-oriented text file. The header is
// `trustrate-checkpoint <version>`; unknown versions are rejected with
// CheckpointError. Floating-point state is serialized as C hexfloats
// (`%a`), so every double round-trips bit-exactly — "resume equals rerun"
// is an equality, not an approximation.
//
// Version 3 added integrity and completeness (DESIGN.md §10): every
// section is followed by a `crc <name> <hex8>` line carrying the CRC32C of
// the section's exact bytes, and a `filecrc <hex8>` line before the
// trailing `end` covers the whole file — any single corrupted byte is
// detected at load and reported with its line number, never silently
// restored. v3 also persists each quarantined rating's human-readable
// `detail` string (percent-escaped into one token); v1/v2 dropped it.
//
// Version 4 (sharded engine, DESIGN.md §14) keeps every global section of
// v3 byte-for-byte — the classifier front door, stats, health, the merged
// dead-letter list — and replaces the global `pending`/`retained` sections
// with a `layout` section (shard count + per-shard skipped-cell counters)
// followed by one `shard <k>` section per shard holding that shard's
// pending/retained partition, each with its own CRC. Loading always
// reassembles the global view first and re-partitions under the *target*
// layout, so a v3 checkpoint loads into a sharded system, a v4 checkpoint
// loads into a plain stream, and a v4 written at N shards resumes at M —
// all bit-exactly (per-shard skipped-cell counters are layout-scoped
// diagnostics: they restore only when the shard count matches, and reset
// to zero otherwise).
//
// Older versions still load (v1/v2 have no checksums to verify, details
// restore empty).
//
// Not captured: the SystemConfig (the caller re-supplies it — configs hold
// enums and nested structs whose wire format would outgrow this layer) and
// the recommendation buffer (rater-on-rater feedback is not streaming
// state).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "core/streaming.hpp"

namespace trustrate::core {

/// Checkpoint format version written for a plain (unsharded) stream.
/// Version 2 added the skipped-empty-epoch counter to the anchor line;
/// version 3 added per-section and whole-file CRC32C checksums plus the
/// quarantined-rating detail string. Note the parallel epoch engine's
/// worker count is deliberately NOT part of the format — it is
/// configuration (SystemConfig::epoch_workers, re-supplied by the caller),
/// and results are worker-count-invariant, so a checkpoint taken at 8
/// workers resumes bit-exactly at 1 and vice versa.
inline constexpr int kCheckpointVersion = 3;

/// Checkpoint format version written for a sharded system (per-shard
/// pending/retained sections + layout). The shard count, like the worker
/// count, is layout — results are shard-count-invariant — but v4 frames
/// the partitions separately so each shard's section carries its own CRC.
inline constexpr int kShardedCheckpointVersion = 4;

/// The complete streaming state as plain data — the meeting point of every
/// checkpoint path. take_snapshot/restore_stream convert to and from a
/// live StreamingRatingSystem; the sharded engine (core/shard) converts to
/// and from its partitioned state; parse_checkpoint/write_checkpoint
/// convert to and from checkpoint bytes of any supported version. All
/// collections are held in their canonical (wire) order.
struct StreamSnapshot {
  // `config` section.
  double epoch_days = 30.0;
  std::size_t retention_epochs = 2;
  IngestConfig ingest_config;

  // `anchor` section.
  bool anchored = false;
  double epoch_start = 0.0;
  double last_time = 0.0;
  std::size_t epochs_closed = 0;
  std::size_t skipped_empty_epochs = 0;
  std::size_t system_epochs = 0;

  // `stats` / `health` sections.
  IngestStats stats;
  std::vector<EpochHealth> health;

  // `ingest` section: classifier state plus the dead-letter list in global
  // arrival order (a sharded system merges its per-shard stores by their
  // global dead-letter ordinal before snapshotting).
  bool ingest_anchored = false;
  double ingest_max_time = 0.0;
  std::vector<Rating> buffer;  ///< time order, ties in insertion order
  std::vector<IngestBuffer::SeenKey> seen;
  std::vector<QuarantinedRating> quarantine;

  // `pending` / `retained` sections (or their union across `shard <k>`
  // sections), keyed in sorted product order.
  std::map<ProductId, RatingSeries> pending;
  std::map<ProductId, std::vector<RatingSeries>> retained;

  // `trust` section, sorted by rater.
  std::vector<std::pair<RaterId, trust::TrustRecord>> trust;

  // `layout` section (v4 only). shards == 0 marks an unsharded snapshot;
  // shard_skipped_cells has one entry per shard when shards > 0.
  std::size_t shards = 0;
  std::vector<std::size_t> shard_skipped_cells;
};

/// Copies a stream's complete state out (read-only; the stream is intact).
StreamSnapshot take_snapshot(const StreamingRatingSystem& stream);

/// Builds a live stream from a snapshot. `config` is the pipeline
/// configuration, as with load_checkpoint. Sharded-layout fields are
/// ignored (the global sections already hold the union).
StreamingRatingSystem restore_stream(const StreamSnapshot& snapshot,
                                     const SystemConfig& config);

/// Parses checkpoint bytes of any supported version (1–4) into a snapshot,
/// verifying every checksum first for v3+. Throws CheckpointError with the
/// offending line on truncation, corruption, or an unknown version.
/// Numbers in the writer's own hexfloat/decimal spelling convert through
/// std::from_chars; any other spelling is decided by strtod/strtoull, the
/// rules the format has always accepted (DESIGN.md §10).
StreamSnapshot parse_checkpoint(std::string_view text);

/// Renders a snapshot as checkpoint bytes. `version` must be
/// kCheckpointVersion (global pending/retained sections; any shard layout
/// is collapsed) or kShardedCheckpointVersion (layout + per-shard
/// sections; an unsharded snapshot writes as one shard). Deterministic:
/// equal snapshots produce byte-identical output. The text is built in one
/// reserved string, checksummed in place, with no iostream involved.
std::string render_checkpoint(const StreamSnapshot& snapshot, int version);

/// render_checkpoint, written to `out`.
void write_checkpoint(const StreamSnapshot& snapshot, int version,
                      std::ostream& out);

/// Writes the complete streaming state (version kCheckpointVersion).
/// Deterministic: products and raters are sorted, so equal states produce
/// byte-identical checkpoints.
void save_checkpoint(const StreamingRatingSystem& stream, std::ostream& out);

/// Restores a stream from a checkpoint written by save_checkpoint (or from
/// a v4 sharded checkpoint, whose partitions are merged). `config` must be
/// the pipeline configuration the checkpointed system ran with (epoch
/// length, retention, and ingestion settings come from the checkpoint
/// itself). Throws CheckpointError on a truncated, corrupted, or
/// version-mismatched checkpoint.
StreamingRatingSystem load_checkpoint(std::istream& in,
                                      const SystemConfig& config);

}  // namespace trustrate::core
