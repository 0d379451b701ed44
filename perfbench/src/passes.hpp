// One benchmark pass = one closed-loop replay of a generated stream through
// a public front end (ShardedRatingSystem or ShardedDurableStream), from
// construction to flush(), followed by the post-flush checks and checkpoint
// the end-to-end metrics need. A single thread generates the load: it calls
// submit() and waits for the in-band verdict before the next one.
//
// A traced pass is the same replay with every call into the system timed
// from here (no spans inside the program), probe() sampled at fixed submit
// intervals, and a metrics registry attached and scraped. The stage replay
// recomputes the same job through the layers one by one: IngestBuffer,
// EpochEngine::analyze, TrustEnhancedRatingSystem::merge_epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/shard/sharded_system.hpp"
#include "gate.hpp"
#include "generator.hpp"
#include "obs/introspect.hpp"

namespace perfbench {

/// Everything a pass needs besides the stream; fixed per workload.
struct PassSetup {
  trustrate::core::SystemConfig config;
  trustrate::core::shard::ShardOptions layout;
  trustrate::core::IngestConfig ingest;
  double epoch_days = 30.0;
  std::size_t retention_epochs = 2;
  std::size_t query_every = 0;   ///< a read per this many submits (0: none)
  std::size_t scrape_every = 0;  ///< registry attached, scraped this often
  std::size_t post_queries = 0;  ///< untimed checking reads after flush()
  std::size_t checkpoint_every = 0;  ///< durable checkpoint interval
  bool save_after_flush = true;      ///< in-memory: time a checkpoint save
};

/// Layer numbers only a traced pass records.
struct PassTrace {
  std::vector<double> submit_ns;  ///< per submit() call
  double flush_ms = 0.0;
  std::vector<double> quiesce_us, read_us, scrape_us;
  std::uint64_t series = 0;       ///< exposition series at the last scrape
  std::uint64_t merge_lag_max = 0;
  trustrate::obs::PipelineProbe probe;  ///< after flush()
  // Durable passes.
  double recovery_s = 0.0;
  std::uint64_t replayed_records = 0;
  trustrate::obs::DurabilityProbe durability;
  std::uint64_t wal_bytes = 0;
  // Checkpoint save/load of the final state.
  std::vector<double> save_ms;
  double load_ms = 0.0;
  std::uint64_t checkpoint_bytes = 0;
};

struct PassResult {
  double setup_s = 0.0;   ///< construction (+ recovery) to first submit returning
  double ingest_s = 0.0;  ///< first submit() to flush() returning
  std::size_t submitted = 0;
  std::vector<double> lag_ms;         ///< per epoch closed by a submit
  std::vector<double> query_us;       ///< per trust()/aggregate() call
  std::vector<double> checkpoint_ms;  ///< per checkpoint call
  Outcome outcome;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  PassTrace trace;
};

/// The untraced fields of a pass result as bytes, for a pass run in a child
/// process (child.hpp); decode() restores them and throws on a short read.
std::string encode(const PassResult& result);
PassResult decode(const std::string& bytes);

/// Threaded/inline in-memory pass over all of `stream.arrivals`.
PassResult memory_pass(const PassSetup& setup, const GeneratedStream& stream,
                       bool traced);

/// Builds a durable directory holding a checkpoint of arrivals [0, ckpt_at)
/// plus a WAL tail of [ckpt_at, tail_end), as a crashed process leaves it.
void seed_durable_dir(const PassSetup& setup, const GeneratedStream& stream,
                      std::size_t ckpt_at, std::size_t tail_end,
                      const std::filesystem::path& dir);

/// Copies `seed_dir` to `work_dir`, reopens it (cold recovery), then
/// submits arrivals [tail_end, end) with periodic checkpoints and flushes.
PassResult durable_pass(const PassSetup& setup, const GeneratedStream& stream,
                        std::size_t tail_end, std::size_t end,
                        const std::filesystem::path& seed_dir,
                        const std::filesystem::path& work_dir, bool traced);

/// Stage-by-stage replay of the same job, timing each layer's calls.
struct StageReplay {
  // ingest: IngestBuffer::submit/drain over the arrivals
  double ingest_busy_s = 0.0;
  std::vector<double> ingest_submit_ns;
  trustrate::core::IngestStats ingest_stats;
  std::uint64_t buffered_max = 0;
  // cell assembly (the grid walk that builds each epoch's observations)
  double assemble_s = 0.0;
  // parallel: EpochEngine::analyze at one worker
  double parallel_busy_s = 0.0;
  std::vector<double> epoch_ms;
  std::uint64_t products = 0, ratings = 0, degraded = 0, flagged = 0;
  // system: TrustEnhancedRatingSystem::merge_epoch
  double system_busy_s = 0.0;
  std::vector<double> merge_ms;
  std::uint64_t raters = 0;
  std::uint64_t trust_digest = 0;
  std::uint64_t malicious = 0;
};

StageReplay stage_replay(const PassSetup& setup, const GeneratedStream& stream);

}  // namespace perfbench
