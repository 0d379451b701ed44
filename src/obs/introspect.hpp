// Introspection probes (ISSUE 10 tentpole): plain-data snapshots of the
// live pipeline's supervision and backpressure state, plus deterministic
// JSON renderers for the /healthz and /status endpoints.
//
// Layering: obs cannot depend on core (core links obs), so the structs
// here are dependency-free data bags. The producers live upstream —
// `ShardedRatingSystem::probe()` fills a PipelineProbe,
// `DurableStream::probe()` / `ShardedDurableStream::probe()` fill a
// DurabilityProbe — and the endpoint binder below takes std::function
// providers so any combination of layers can be exposed.
//
// Thread-safety contract for providers: they are invoked on the HTTP
// server thread *while the pipeline ingests*, so they must read only
// relaxed/acquire atomics or take uncontended snapshot locks. They must
// never call quiesce(), never throw on a failed pipeline, and never touch
// coordinator- or worker-owned non-atomic state. The probes are
// intentionally approximate: a scrape racing an ingest batch sees some
// consistent-enough recent past, not a linearizable cut.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace trustrate::obs {

class ExpositionServer;
class MetricsRegistry;

/// One SPSC ring's occupancy telemetry (see SpscQueue's accessors).
struct QueueProbe {
  std::uint64_t depth = 0;       ///< approximate occupancy now
  std::uint64_t high_water = 0;  ///< max producer-observed occupancy
  std::uint64_t stalls = 0;      ///< failed pushes against a full ring
  std::uint64_t capacity = 0;
};

/// Watchdog-derived shard health, mirroring DESIGN.md §15's taxonomy.
enum class ShardHealth : std::uint8_t {
  kOk = 0,
  kSlow,      ///< watchdog sees no progress, budget not yet exhausted
  kStalled,   ///< watchdog exhausted the stall budget (abort requested)
  kPoisoned,  ///< worker failure contained; pipeline failed
};

const char* to_string(ShardHealth h);

/// One shard's supervision + backpressure snapshot.
struct ShardProbe {
  std::size_t index = 0;
  ShardHealth health = ShardHealth::kOk;
  bool poisoned = false;
  bool abort_requested = false;
  std::uint64_t events_pushed = 0;
  std::uint64_t events_processed = 0;
  /// Heartbeat minus processed: 0 between events, 1 mid-event (the
  /// watchdog's mid-event/between-events diagnostic).
  std::uint64_t heartbeat_age = 0;
  /// Supervision ticks the shard's current event has been running (0
  /// between events); see DESIGN.md §15.
  std::uint64_t stall_age = 0;
  QueueProbe inbox;
  QueueProbe outbox;
  std::uint64_t quarantine_size = 0;  ///< dead-letter occupancy
  std::uint64_t skipped_cells = 0;
};

/// Whole-pipeline snapshot: epoch cursor, merge progress, failure latch.
struct PipelineProbe {
  bool threaded = false;
  bool failed = false;
  std::string failure_kind;  ///< "poisoned shard"/"stalled shard"/...
  std::size_t failure_shard = 0;
  std::string failure_message;
  std::uint64_t submitted = 0;
  std::uint64_t pending = 0;   ///< ratings routed but not yet in a cell
  std::uint64_t buffered = 0;  ///< reorder-buffer occupancy
  bool anchored = false;
  double epoch_start = 0.0;
  double last_time = 0.0;
  std::uint64_t cells_issued = 0;
  std::uint64_t cells_merged = 0;  ///< == epochs closed (1:1 by design)
  std::uint64_t merge_lag = 0;     ///< cells issued - cells merged
  std::uint64_t merge_stall_age = 0;
  std::uint64_t skipped_empty_epochs = 0;
  /// SupervisionOptions::stall_ticks: ticks of at least
  /// core::shard::kSupervisionTickNs each (0 = watchdog off).
  std::uint64_t stall_budget = 0;
  std::vector<ShardProbe> shards;
};

/// Durability-layer snapshot (PR 6 ladder + PR 9 heal counters). "Ages"
/// are measured in records — deterministic and clock-free: how far the
/// WAL has run past the newest checkpoint, and how full the active
/// segment is.
struct DurabilityProbe {
  bool present = false;  ///< false ⇒ no durable layer attached
  std::string state;     ///< "durable"/"degraded"/"recovering"/"failed"
  std::uint64_t acknowledged = 0;
  std::uint64_t durable_acknowledged = 0;
  std::uint64_t backlog_records = 0;
  std::uint64_t last_checkpoint = 0;  ///< LSN (unsharded) or ordinal seq
  std::uint64_t records_since_checkpoint = 0;  ///< checkpoint age
  std::uint64_t wal_records = 0;               ///< total across shards
  std::uint64_t active_segment_records = 0;    ///< max across shards
  std::uint64_t wal_segments = 0;              ///< segment files on disk
  std::uint64_t heals = 0;
  std::uint64_t failstops = 0;
  std::string last_failure;
};

/// /healthz body: overall status ("ok"/"degraded"/"failed") derived from
/// the probes, per-shard watchdog verdicts, heal counters, ladder state.
std::string render_healthz(const PipelineProbe& pipeline,
                           const DurabilityProbe& durability);

/// /status body: the full JSON snapshot (epoch cursor, per-shard queue
/// depth/high-water/stalls, quarantine occupancy, WAL/checkpoint ages).
std::string render_status(const PipelineProbe& pipeline,
                          const DurabilityProbe& durability);

/// Wires the conventional endpoints onto `server`: /metrics (Prometheus
/// text from `metrics`, skipped when null), /healthz and /status from the
/// probe providers (a null provider reports an idle pipeline / absent
/// durable layer). Call before server.start().
void bind_introspection(ExpositionServer& server, MetricsRegistry* metrics,
                        std::function<PipelineProbe()> pipeline,
                        std::function<DurabilityProbe()> durability = {});

}  // namespace trustrate::obs
