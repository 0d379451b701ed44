// Seeded input generator of the repository benchmark.
//
// Produces the paper's §IV marketplace mix (honest products rated by
// reliable and careless raters; dishonest products that additionally
// recruit potential-collaborative raters for a tight burst attack, bias
// +0.15 and sigma 0.02) at a scale where pipelining, retention growth,
// checkpoint cost and query stalls show. It draws one product at a time
// instead of flipping a coin per rater x product x day, so a few million
// ratings take well under a second.
//
// The clean stream is time-sorted with strictly increasing event times, so
// no tie-break in the pipeline ever depends on IDs and the perturbed
// arrival order provably yields the same accepted set in the same release
// order. The program under test only ever sees the generated ratings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/ingest.hpp"

namespace perfbench {

/// Rater ID carried by every junk arrival (stale or malformed). Junk is
/// always dropped, so this ID never reaches the trust store.
inline constexpr trustrate::RaterId kJunkRater = 0x7fff0000u;

/// Shape of a generated marketplace stream.
struct StreamShape {
  std::size_t epochs = 0;               ///< 30-day epochs the stream spans
  double epoch_days = 30.0;
  std::size_t products_per_epoch = 0;   ///< products launched each epoch
  std::size_t lifetime_epochs = 2;      ///< epochs a product stays rated
  std::size_t dishonest_every = 5;      ///< 1 product in N runs an attack
  std::uint32_t reliable_raters = 0;
  std::uint32_t careless_raters = 0;
  std::uint32_t pc_raters = 0;          ///< potential-collaborative pool
  std::size_t ratings_lo = 0;           ///< honest ratings per product-epoch
  std::size_t ratings_hi = 0;
  std::size_t recruits_lo = 0;          ///< recruited raters per attack
  std::size_t recruits_hi = 0;
};

/// Transport faults applied to the clean stream (the kinds
/// testkit::make_arrivals injects), each built so the ingest layer accepts
/// exactly the clean set.
struct Perturbation {
  double lateness_days = 0.0;   ///< ingest bound; moves stay within it
  double move_share = 0.0;      ///< share of ratings displaced later
  std::size_t max_move_span = 0;  ///< max arrivals a displaced rating skips
  double retry_share = 0.0;     ///< exact client resubmissions
  double stale_share = 0.0;     ///< junk behind the watermark (kLate)
  double malformed_share = 0.0;  ///< non-finite / out-of-range junk
};

struct GeneratedStream {
  trustrate::RatingSeries clean;     ///< time-sorted, strictly increasing
  trustrate::RatingSeries arrivals;  ///< submission order (clean when unperturbed)
  double lateness_days = 0.0;
  /// IngestStats a correct ingest layer reports after every arrival.
  trustrate::core::IngestStats expected_stats;
  /// close_arrival[k]: index of the arrival whose submit() first carries
  /// the stream past epoch k's end plus the lateness bound (it releases the
  /// rating that closes epoch k). One entry per epoch closed by submits;
  /// the final epoch closes in flush().
  std::vector<std::size_t> close_arrival;
};

/// Deterministic in (shape, perturbation, seed).
GeneratedStream generate(const StreamShape& shape, const Perturbation& perturbation,
                         std::uint64_t seed);

}  // namespace perfbench
