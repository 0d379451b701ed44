// Self-test of the benchmark's own machinery: the generator's guarantees
// and the correctness gate. Run via `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/ingest.hpp"
#include "gate.hpp"
#include "generator.hpp"
#include "passes.hpp"

namespace {

int failures = 0;

/// Bitwise equality: junk arrivals carry NaN values, which == rejects.
bool same_bytes(const trustrate::RatingSeries& x, const trustrate::RatingSeries& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(trustrate::Rating)) == 0;
}

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::StreamShape small_shape() {
  perfbench::StreamShape s;
  s.epochs = 6;
  s.products_per_epoch = 6;
  s.reliable_raters = 300;
  s.careless_raters = 150;
  s.pc_raters = 150;
  s.ratings_lo = 60;
  s.ratings_hi = 90;
  s.recruits_lo = 10;
  s.recruits_hi = 20;
  return s;
}

perfbench::Perturbation mixed() {
  perfbench::Perturbation p;
  p.lateness_days = 1.0;
  p.move_share = 0.05;
  p.max_move_span = 16;
  p.retry_share = 0.05;
  p.stale_share = 0.02;
  p.malformed_share = 0.02;
  return p;
}

perfbench::PassSetup setup(double lateness, bool threaded) {
  perfbench::PassSetup s;
  s.layout.shards = threaded ? 2 : 1;
  s.layout.threaded = threaded;
  s.layout.epoch_workers = 1;
  s.ingest.max_lateness_days = lateness;
  s.query_every = 200;
  s.scrape_every = 500;
  s.post_queries = 8;
  return s;
}

}  // namespace

int main() {
  using perfbench::check_outcome;
  using perfbench::Outcome;

  const auto a = perfbench::generate(small_shape(), mixed(), 7);
  const auto b = perfbench::generate(small_shape(), mixed(), 7);
  const auto c = perfbench::generate(small_shape(), mixed(), 8);
  expect(same_bytes(a.arrivals, b.arrivals), "same seed, same arrivals");
  expect(!same_bytes(a.arrivals, c.arrivals), "another seed, other arrivals");
  expect(a.expected_stats.reordered > 0 && a.expected_stats.duplicates > 0 &&
             a.expected_stats.dropped_late > 0 && a.expected_stats.malformed > 0,
         "perturbation injects every fault kind");

  // The ingest layer accepts exactly the clean stream, in clean order.
  trustrate::core::IngestBuffer ingest({1.0, 1024});
  trustrate::RatingSeries released;
  for (const auto& r : a.arrivals) ingest.submit(r, released);
  ingest.drain(released);
  expect(released == a.clean, "perturbed arrivals release the clean stream");
  expect(ingest.stats() == a.expected_stats, "ingest counters match the plan");

  // Reference vs threaded pipeline on the perturbed stream.
  // Same seed, no perturbation: the same clean ratings, submitted in order.
  const auto clean = perfbench::generate(small_shape(), {}, 7);
  expect(clean.clean == a.clean, "perturbation leaves the clean stream unchanged");
  const auto ref = perfbench::memory_pass(setup(0.0, false), clean, false);
  expect(ref.errors.empty(), "reference pass runs clean");
  Outcome want = ref.outcome;
  want.stats = a.expected_stats;
  const auto got = perfbench::memory_pass(setup(1.0, true), a, true);
  expect(got.errors.empty() && got.failed == 0, "threaded traced pass runs clean");
  expect(check_outcome(want, got.outcome).empty(), "threaded pass matches the reference");
  expect(got.lag_ms.size() == a.close_arrival.size(), "one trust-lag sample per closed epoch");
  bool lags_positive = true;
  for (double l : got.lag_ms) lags_positive = lags_positive && l > 0.0;
  expect(lags_positive, "trust lag is positive (close follows its trigger)");

  // A pass result survives the trip out of a child process.
  const auto round = perfbench::decode(perfbench::encode(got));
  expect(round.outcome == got.outcome && round.lag_ms == got.lag_ms &&
             round.query_us == got.query_us && round.attempted == got.attempted &&
             round.errors == got.errors,
         "pass result encodes and decodes");

  // The gate rejects a wrong digest, wrong counters and a wrong malicious count.
  Outcome wrong = want;
  wrong.trust_digest ^= 1;
  const auto errors = check_outcome(want, wrong);
  expect(errors.size() == 1 && errors[0].rfind("trust_digest", 0) == 0,
         "gate rejects a wrong trust digest");
  wrong = want;
  wrong.stats.duplicates += 1;
  expect(!check_outcome(want, wrong).empty(), "gate rejects wrong ingest counters");
  wrong = want;
  wrong.malicious += 1;
  expect(!check_outcome(want, wrong).empty(), "gate rejects a wrong malicious count");

  // The stage replay reproduces the pipeline's outcome.
  const auto st = perfbench::stage_replay(setup(1.0, true), a);
  expect(st.trust_digest == want.trust_digest && st.malicious == want.malicious &&
             st.ingest_stats == a.expected_stats,
         "stage replay reproduces the pipeline digest");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
