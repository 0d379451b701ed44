#include "gate.hpp"

#include <sstream>

#include "testkit/digest.hpp"

namespace perfbench {

Outcome outcome_of(const trustrate::core::shard::ShardedRatingSystem& system) {
  Outcome out;
  const auto& store = system.system().trust_store();
  out.trust_digest = trustrate::testkit::fnv1a(trustrate::testkit::digest_trust(store));
  out.raters = store.size();
  out.malicious = system.malicious().size();
  out.stats = system.ingest_stats();
  return out;
}

std::vector<std::string> check_outcome(const Outcome& expected, const Outcome& got) {
  std::vector<std::string> errors;
  const auto field = [&](const char* name, std::uint64_t want, std::uint64_t have) {
    if (want == have) return;
    std::ostringstream line;
    line << name << ": expected " << want << ", got " << have;
    errors.push_back(line.str());
  };
  field("trust_digest", expected.trust_digest, got.trust_digest);
  field("raters", expected.raters, got.raters);
  field("malicious", expected.malicious, got.malicious);
  field("stats.submitted", expected.stats.submitted, got.stats.submitted);
  field("stats.accepted", expected.stats.accepted, got.stats.accepted);
  field("stats.reordered", expected.stats.reordered, got.stats.reordered);
  field("stats.duplicates", expected.stats.duplicates, got.stats.duplicates);
  field("stats.dropped_late", expected.stats.dropped_late, got.stats.dropped_late);
  field("stats.malformed", expected.stats.malformed, got.stats.malformed);
  field("stats.quarantined", expected.stats.quarantined, got.stats.quarantined);
  return errors;
}

}  // namespace perfbench
