// Correctness gate: every benchmark pass must end in the same state as a
// reference run — an inline single-shard ShardedRatingSystem fed the clean
// stream of the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ingest.hpp"
#include "core/shard/sharded_system.hpp"

namespace perfbench {

/// The state a run is checked on: the trust store (hexfloat digest, hashed),
/// the ingest counters and the malicious-rater count.
struct Outcome {
  std::uint64_t trust_digest = 0;  ///< fnv1a of testkit::digest_trust
  std::uint64_t raters = 0;
  std::uint64_t malicious = 0;
  trustrate::core::IngestStats stats;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome_of(const trustrate::core::shard::ShardedRatingSystem& system);

/// One line per field of `got` that differs from `expected`; empty on a match.
std::vector<std::string> check_outcome(const Outcome& expected, const Outcome& got);

}  // namespace perfbench
