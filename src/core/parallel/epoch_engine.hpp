// Deterministic sharded epoch engine — the parallel core of
// TrustEnhancedRatingSystem::process_epoch.
//
// Procedure 1 is embarrassingly parallel across objects: one product's beta
// filter pass, AR window sweep and suspicion accumulation read only that
// product's observation and the (immutable) pipeline configuration. The
// engine shards the per-product observations across a fixed ThreadPool and
// writes each ProductReport into the slot of its input observation.
//
// Determinism contract (DESIGN.md §8):
//  * analyze_product is a pure function of (observation, stage context) —
//    no RNG, no shared mutable state;
//  * shard *scheduling* is dynamic (ticket counter, load-balanced) and
//    therefore nondeterministic, but every result lands in its own output
//    slot, untouched by other workers;
//  * the caller (core/system.cpp) merges reports in ascending input-slot
//    order and reduces the trust evidence into a rater-sorted run whose
//    per-rater sums run in ascending term order, so every floating-point
//    accumulation happens in an order fixed by the data, not the workers.
// Consequence: parallel output is bitwise-identical to the serial path at
// any worker count (covered by tests/parallel_test.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/system.hpp"

namespace trustrate::core::parallel {

class ThreadPool;

/// Read-only pipeline stages shared by every worker. The pointed-to objects
/// must outlive the analyze call; filter/detector are only dereferenced
/// when the corresponding SystemConfig stage is enabled.
struct StageContext {
  const SystemConfig* config = nullptr;
  const detect::BetaQuantileFilter* filter = nullptr;
  const detect::ArSuspicionDetector* detector = nullptr;
  /// Observability bundle (may be null, or hold null sinks). Trace sinks
  /// are thread-safe, so workers emit per-product spans concurrently;
  /// span *content* stays deterministic (name, epoch, product id), only
  /// timestamps vary. Strictly out-of-band — never read by the stages.
  const obs::Observability* obs = nullptr;
};

/// The per-product stage of process_epoch: rating filter → AR suspicion
/// detector (with the degraded-detector fallback of DESIGN.md §6) →
/// per-rating flags. Pure and thread-safe for concurrent calls on distinct
/// observations. Throws PreconditionError when the ratings are not
/// time-sorted.
ProductReport analyze_product(const ProductObservation& obs,
                              const StageContext& ctx);

/// Runs analyze_product over an epoch's observations, serial or sharded.
class EpochEngine {
 public:
  /// `workers` >= 1 is the total concurrency. A serial engine (workers ==
  /// 1) never starts a thread; otherwise workers − 1 pool threads are
  /// spawned (the calling thread is the extra worker).
  explicit EpochEngine(std::size_t workers);
  ~EpochEngine();

  EpochEngine(const EpochEngine&) = delete;
  EpochEngine& operator=(const EpochEngine&) = delete;

  /// Result slot i holds analyze_product(observations[i], ctx). Rethrows
  /// the first worker exception after all shards finish.
  std::vector<ProductReport> analyze(
      std::span<const ProductObservation> observations,
      const StageContext& ctx);

  std::size_t workers() const { return workers_; }

 private:
  std::size_t workers_;
  std::unique_ptr<ThreadPool> pool_;  ///< null for the serial engine
};

}  // namespace trustrate::core::parallel
