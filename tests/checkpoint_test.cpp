// Checkpoint/recovery tests: a stream checkpointed mid-epoch (with ratings
// still in the reorder buffer), restored into a fresh process, and resumed
// must reproduce the uninterrupted run's trust values, aggregates, and
// ingestion counters bit-exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/streaming.hpp"
#include "testkit/oracle.hpp"

namespace trustrate {
namespace {

core::SystemConfig pipeline_config() {
  core::SystemConfig cfg;
  cfg.filter.q = 0.02;
  cfg.ar.window_days = 8.0;
  cfg.ar.step_days = 2.0;
  cfg.ar.error_threshold = 0.024;
  cfg.b = 10.0;
  return cfg;
}

RatingSeries mixed_stream(std::uint64_t seed, double days) {
  Rng rng(seed);
  RatingSeries stream;
  for (ProductId p = 1; p <= 3; ++p) {
    for (double t = rng.exponential(6.0); t < days; t += rng.exponential(6.0)) {
      stream.push_back(
          {t, quantize_unit(clamp_unit(rng.gaussian(0.55, 0.25)), 10, false),
           static_cast<RaterId>(rng.uniform_int(0, 150)), p,
           RatingLabel::kHonest});
    }
  }
  sort_by_time(stream);
  return stream;
}

void expect_bitwise_equal_state(const core::StreamingRatingSystem& a,
                                const core::StreamingRatingSystem& b) {
  EXPECT_EQ(a.epochs_closed(), b.epochs_closed());
  EXPECT_EQ(a.skipped_empty_epochs(), b.skipped_empty_epochs());
  EXPECT_EQ(a.pending_ratings(), b.pending_ratings());
  EXPECT_EQ(a.buffered_ratings(), b.buffered_ratings());
  EXPECT_EQ(a.ingest_stats(), b.ingest_stats());
  EXPECT_EQ(a.epoch_health(), b.epoch_health());

  const auto& ra = a.system().trust_store().records();
  const auto& rb = b.system().trust_store().records();
  ASSERT_EQ(ra.size(), rb.size());
  for (const auto& [id, rec] : ra) {
    ASSERT_TRUE(rb.contains(id)) << "rater " << id;
    EXPECT_EQ(rec.successes, rb.at(id).successes) << "rater " << id;
    EXPECT_EQ(rec.failures, rb.at(id).failures) << "rater " << id;
  }
  for (ProductId p = 1; p <= 3; ++p) {
    EXPECT_EQ(a.aggregate(p), b.aggregate(p)) << "product " << p;
  }
}

TEST(Checkpoint, RoundTripPreservesStateExactly) {
  const RatingSeries stream_data = mixed_stream(201, 75.0);
  core::StreamingRatingSystem original(pipeline_config(), 30.0, 2,
                                       {.max_lateness_days = 2.0});
  for (const Rating& r : stream_data) original.submit(r);
  // Mid-epoch, reorder buffer non-empty: the hard case.
  ASSERT_GT(original.pending_ratings(), 0u);
  ASSERT_GT(original.buffered_ratings(), 0u);

  std::ostringstream out;
  core::save_checkpoint(original, out);
  std::istringstream in(out.str());
  const auto restored = core::load_checkpoint(in, pipeline_config());

  expect_bitwise_equal_state(original, restored);
}

TEST(Checkpoint, SaveIsDeterministic) {
  const RatingSeries stream_data = mixed_stream(202, 50.0);
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  for (const Rating& r : stream_data) stream.submit(r);

  std::ostringstream a, b;
  core::save_checkpoint(stream, a);
  core::save_checkpoint(stream, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Checkpoint, ResumeReproducesUninterruptedRunExactly) {
  // The acceptance-criteria property: save mid-epoch, load, continue the
  // stream — final trust values and aggregates bitwise-match a run that was
  // never interrupted.
  const RatingSeries stream_data = mixed_stream(203, 95.0);
  const std::size_t cut = stream_data.size() / 2;

  // Uninterrupted reference.
  core::StreamingRatingSystem uninterrupted(pipeline_config(), 30.0, 2,
                                            {.max_lateness_days = 1.5});
  for (const Rating& r : stream_data) uninterrupted.submit(r);
  uninterrupted.flush();

  // Crash-and-recover run: first half, checkpoint, "restart", second half.
  core::StreamingRatingSystem first_half(pipeline_config(), 30.0, 2,
                                         {.max_lateness_days = 1.5});
  for (std::size_t i = 0; i < cut; ++i) first_half.submit(stream_data[i]);
  std::ostringstream out;
  core::save_checkpoint(first_half, out);

  std::istringstream in(out.str());
  auto resumed = core::load_checkpoint(in, pipeline_config());
  for (std::size_t i = cut; i < stream_data.size(); ++i) {
    resumed.submit(stream_data[i]);
  }
  resumed.flush();

  expect_bitwise_equal_state(uninterrupted, resumed);
}

TEST(Checkpoint, ResumedStreamStillDeduplicatesAcrossRestart) {
  core::StreamingRatingSystem stream(pipeline_config(), 30.0, 2,
                                     {.max_lateness_days = 5.0});
  const Rating r{10.0, 0.5, 1, 1, RatingLabel::kHonest};
  stream.submit(r);

  std::ostringstream out;
  core::save_checkpoint(stream, out);
  std::istringstream in(out.str());
  auto resumed = core::load_checkpoint(in, pipeline_config());

  // A client retry that straddles the restart is still a duplicate.
  EXPECT_EQ(resumed.submit(r), core::IngestClass::kDuplicate);
  EXPECT_EQ(resumed.ingest_stats().duplicates, 1u);
}

TEST(Checkpoint, QuarantineSurvivesRestart) {
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  stream.submit({1.5, 2.0, 2, 1, RatingLabel::kHonest});  // malformed
  ASSERT_EQ(stream.quarantine().size(), 1u);

  std::ostringstream out;
  core::save_checkpoint(stream, out);
  std::istringstream in(out.str());
  const auto resumed = core::load_checkpoint(in, pipeline_config());

  ASSERT_EQ(resumed.quarantine().size(), 1u);
  EXPECT_EQ(resumed.quarantine().front().reason,
            core::IngestClass::kMalformed);
  EXPECT_EQ(resumed.quarantine().front().rating.rater, 2u);
  EXPECT_EQ(resumed.ingest_stats().malformed, 1u);
}

TEST(Checkpoint, SkippedEmptyEpochCounterRoundTrips) {
  // The v2 anchor line carries the gap fast-forward counter.
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({0.0, 0.5, 1, 1, RatingLabel::kHonest});
  stream.submit({200.0, 0.5, 2, 1, RatingLabel::kHonest});  // skips [30,180)
  ASSERT_GT(stream.skipped_empty_epochs(), 0u);

  std::ostringstream out;
  core::save_checkpoint(stream, out);
  std::istringstream in(out.str());
  const auto restored = core::load_checkpoint(in, pipeline_config());
  EXPECT_EQ(restored.skipped_empty_epochs(), stream.skipped_empty_epochs());
  expect_bitwise_equal_state(stream, restored);
}

TEST(Checkpoint, LoadsVersion1WithoutSkippedCounter) {
  // Backward compatibility: a v1 checkpoint (no skipped-empty-epoch field,
  // no checksums, no quarantine detail) still loads, with the counter
  // defaulting to 0 and details restored empty.
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  stream.submit({1.5, 2.0, 2, 1, RatingLabel::kHonest});  // quarantined
  ASSERT_FALSE(stream.quarantine().front().detail.empty());
  std::ostringstream out;
  core::save_checkpoint(stream, out);
  const std::string v1 = testkit::downconvert_checkpoint_v1(out.str());
  ASSERT_NE(v1.find("trustrate-checkpoint 1"), std::string::npos);
  ASSERT_EQ(v1.find("crc "), std::string::npos);

  std::istringstream in(v1);
  const auto restored = core::load_checkpoint(in, pipeline_config());
  EXPECT_EQ(restored.skipped_empty_epochs(), 0u);
  EXPECT_EQ(restored.pending_ratings(), 1u);
  ASSERT_EQ(restored.quarantine().size(), 1u);
  EXPECT_TRUE(restored.quarantine().front().detail.empty());
}

TEST(Checkpoint, LoadsVersion2WithoutChecksums) {
  // A v2 checkpoint carries the skipped counter but no checksums and no
  // quarantine detail token.
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({0.0, 0.5, 1, 1, RatingLabel::kHonest});
  stream.submit({200.0, 0.5, 2, 1, RatingLabel::kHonest});  // skips epochs
  stream.submit({200.5, -3.0, 3, 1, RatingLabel::kHonest});  // quarantined
  ASSERT_GT(stream.skipped_empty_epochs(), 0u);
  std::ostringstream out;
  core::save_checkpoint(stream, out);

  // Rewrite v3 as v2: header version 2, checksum lines and quarantine
  // detail tokens dropped.
  std::istringstream lines(out.str());
  std::ostringstream v2;
  std::string line;
  std::size_t quarantine_entries = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("trustrate-checkpoint ", 0) == 0) {
      v2 << "trustrate-checkpoint 2\n";
      continue;
    }
    if (line.rfind("crc ", 0) == 0 || line.rfind("filecrc ", 0) == 0) continue;
    if (quarantine_entries > 0) {
      v2 << line.substr(0, line.find_last_of(' ')) << '\n';
      --quarantine_entries;
      continue;
    }
    if (line.rfind("quarantine ", 0) == 0) {
      std::istringstream fields(line);
      std::string keyword;
      fields >> keyword >> quarantine_entries;
    }
    v2 << line << '\n';
  }

  std::istringstream in(v2.str());
  const auto restored = core::load_checkpoint(in, pipeline_config());
  EXPECT_EQ(restored.skipped_empty_epochs(), stream.skipped_empty_epochs());
  ASSERT_EQ(restored.quarantine().size(), 1u);
  EXPECT_TRUE(restored.quarantine().front().detail.empty());
}

TEST(Checkpoint, QuarantineDetailStringRoundTrips) {
  // v3 persists the human-readable quarantine detail (free text with
  // spaces) byte-exactly through the percent-escaped wire token.
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  stream.submit({1.5, 2.0, 2, 1, RatingLabel::kHonest});   // value > 1
  stream.submit({2.0, -1.0, 3, 1, RatingLabel::kHonest});  // value < 0
  ASSERT_EQ(stream.quarantine().size(), 2u);
  ASSERT_FALSE(stream.quarantine().front().detail.empty());

  std::ostringstream out;
  core::save_checkpoint(stream, out);
  std::istringstream in(out.str());
  const auto restored = core::load_checkpoint(in, pipeline_config());

  ASSERT_EQ(restored.quarantine().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(restored.quarantine()[i].detail, stream.quarantine()[i].detail);
    EXPECT_EQ(restored.quarantine()[i].reason, stream.quarantine()[i].reason);
  }
}

TEST(Checkpoint, SectionChecksumDetectsSingleFlippedByte) {
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  std::ostringstream out;
  core::save_checkpoint(stream, out);
  const std::string intact = out.str();
  ASSERT_NE(intact.find("crc config "), std::string::npos);
  ASSERT_NE(intact.find("filecrc "), std::string::npos);

  // Flip one payload byte mid-file: the section checksum must reject it.
  std::string corrupt = intact;
  const std::size_t at = intact.find("trust ");
  ASSERT_NE(at, std::string::npos);
  corrupt[at + 2] ^= 0x01;
  std::istringstream in(corrupt);
  EXPECT_THROW(core::load_checkpoint(in, pipeline_config()), CheckpointError);
}

TEST(Checkpoint, ErrorsCarryLineNumbers) {
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  std::ostringstream out;
  core::save_checkpoint(stream, out);

  // Checksum failures name the crc line...
  std::string corrupt = out.str();
  corrupt[corrupt.find("stats ") + 6] ^= 0x01;
  std::istringstream bad_crc(corrupt);
  try {
    core::load_checkpoint(bad_crc, pipeline_config());
    FAIL() << "corrupted checkpoint loaded";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
        << e.what();
  }

  // ...and token-level parse errors (reachable in the unchecksummed v1
  // format) carry the offending token's line number.
  std::string v1 = testkit::downconvert_checkpoint_v1(out.str());
  v1[v1.find("stats ") + 6] = 'x';
  std::istringstream bad_token(v1);
  try {
    core::load_checkpoint(bad_token, pipeline_config());
    FAIL() << "corrupted v1 checkpoint loaded";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("(line 4)"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, EmptySystemRoundTrips) {
  core::StreamingRatingSystem empty(pipeline_config(), 30.0);
  std::ostringstream out;
  core::save_checkpoint(empty, out);
  std::istringstream in(out.str());
  const auto restored = core::load_checkpoint(in, pipeline_config());
  EXPECT_EQ(restored.epochs_closed(), 0u);
  EXPECT_EQ(restored.pending_ratings(), 0u);
  EXPECT_EQ(restored.ingest_stats(), core::IngestStats{});
}

TEST(Checkpoint, RejectsBadHeaderVersionAndTruncation) {
  std::istringstream empty("");
  EXPECT_THROW(core::load_checkpoint(empty, pipeline_config()),
               CheckpointError);

  std::istringstream wrong_magic("not-a-checkpoint 1");
  EXPECT_THROW(core::load_checkpoint(wrong_magic, pipeline_config()),
               CheckpointError);

  std::istringstream future_version("trustrate-checkpoint 99");
  EXPECT_THROW(core::load_checkpoint(future_version, pipeline_config()),
               CheckpointError);

  // A valid checkpoint cut short mid-section.
  core::StreamingRatingSystem stream(pipeline_config(), 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  std::ostringstream out;
  core::save_checkpoint(stream, out);
  const std::string full = out.str();
  std::istringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(core::load_checkpoint(truncated, pipeline_config()),
               CheckpointError);

  // Corrupted numeric field.
  std::string corrupted = full;
  corrupted.replace(corrupted.find("stats ") + 6, 1, "x");
  std::istringstream bad(corrupted);
  EXPECT_THROW(core::load_checkpoint(bad, pipeline_config()), CheckpointError);
}

}  // namespace
}  // namespace trustrate
