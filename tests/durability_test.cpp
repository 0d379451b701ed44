// Durability-layer tests (ISSUE 4): WAL framing and torn-tail recovery,
// checkpoint v3 integrity fuzzing, the recovery ladder, and the crash-point
// sweep proving bit-exact recovery with no acknowledged rating lost.
//
// Environment knobs (the nightly CI job sets these for a date-seeded,
// densely-strided run under ASan):
//   TRUSTRATE_DURABILITY_SEED    scenario seed for the crash sweep
//   TRUSTRATE_DURABILITY_STRIDE  distance between sampled crash budgets
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/durable/crc32c.hpp"
#include "core/durable/durable_stream.hpp"
#include "core/durable/wal.hpp"
#include "testkit/crash.hpp"
#include "testkit/scenario.hpp"

namespace trustrate {
namespace {

namespace fs = std::filesystem;
using core::durable::DurableOptions;
using core::durable::DurableStream;
using core::durable::FsyncPolicy;
using core::durable::WalOptions;
using core::durable::WalRecord;
using core::durable::WalRecordType;
using core::durable::WalWriter;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Fresh per-test scratch directory under the system temp dir.
fs::path test_dir(const std::string& name) {
#ifndef _WIN32
  const std::string uniq = std::to_string(::getpid());
#else
  const std::string uniq = "w";
#endif
  const fs::path dir = fs::temp_directory_path() /
                       ("trustrate-durability-" + uniq) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::SystemConfig pipeline_config() {
  core::SystemConfig cfg;
  cfg.filter.q = 0.02;
  cfg.ar.window_days = 8.0;
  cfg.ar.step_days = 2.0;
  cfg.ar.error_threshold = 0.024;
  cfg.b = 10.0;
  return cfg;
}

/// Small deterministic rating stream: a few products, enough time span to
/// close epochs, one malformed rating to populate the quarantine.
RatingSeries small_stream() {
  RatingSeries stream;
  double t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += 0.75;
    stream.push_back({t, (i % 10) * 0.1,
                      static_cast<RaterId>(1 + i % 13),
                      static_cast<ProductId>(1 + i % 3), RatingLabel::kHonest});
  }
  stream.push_back({t + 0.5, 2.5, 99, 1, RatingLabel::kHonest});  // malformed
  return stream;
}

std::vector<WalRecord> sample_records() {
  std::vector<WalRecord> records;
  WalRecord r;
  r.type = WalRecordType::kRating;
  r.rating = {12.5, 0.7, 42, 7, RatingLabel::kHonest};
  r.ingest_class = core::IngestClass::kAccepted;
  records.push_back(r);

  r.rating = {11.0, std::nan(""), 43, 7, RatingLabel::kCollaborative1};
  r.ingest_class = core::IngestClass::kMalformed;  // NaN must survive bitwise
  records.push_back(r);

  WalRecord close;
  close.type = WalRecordType::kEpochClose;
  close.epochs_closed = 3;
  close.epoch_start = 90.0;
  records.push_back(close);

  WalRecord flush;
  flush.type = WalRecordType::kFlush;
  flush.epochs_closed = 4;
  records.push_back(flush);
  return records;
}

std::string flip_byte(std::string text, std::size_t offset) {
  text[offset] = static_cast<char>(text[offset] ^ 0x01);
  return text;
}

void overwrite_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Flips one byte in the middle of `path` (corrupting a checkpoint or
/// segment in place).
void corrupt_file(const fs::path& path) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 2u);
  overwrite_file(path, flip_byte(std::move(bytes), bytes.size() / 2));
}

std::string state_bytes(const core::StreamingRatingSystem& stream) {
  std::ostringstream out;
  core::save_checkpoint(stream, out);
  return out.str();
}

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 CRC32C test vector.
  EXPECT_EQ(core::durable::crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(core::durable::crc32c(std::string_view("")), 0x00000000u);
  // Chunked computation chains through the seed parameter.
  const std::uint32_t first = core::durable::crc32c("12345", 5);
  EXPECT_EQ(core::durable::crc32c("6789", 4, first), 0xE3069283u);
}

TEST(Wal, RoundTripsAllRecordTypesBitExactly) {
  const fs::path dir = test_dir("wal-roundtrip");
  const std::vector<WalRecord> records = sample_records();
  {
    WalWriter writer(dir, 0, WalOptions{});
    for (const WalRecord& r : records) writer.append(r);
    writer.sync();
  }
  const auto recovered = core::durable::read_wal(dir);
  EXPECT_FALSE(recovered.tail_truncated);
  EXPECT_EQ(recovered.next_lsn, records.size());
  ASSERT_EQ(recovered.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(recovered.records[i].first, i);
    // encode_frame is a bijection over valid records, so frame equality is
    // record equality — including NaN payload bits.
    EXPECT_EQ(core::durable::encode_frame(recovered.records[i].second),
              core::durable::encode_frame(records[i]));
  }
}

TEST(Wal, TornTailIsTruncatedNotFatal) {
  const fs::path dir = test_dir("wal-torn");
  const std::vector<WalRecord> records = sample_records();
  {
    WalWriter writer(dir, 0, WalOptions{});
    for (const WalRecord& r : records) writer.append(r);
  }
  const auto segments = core::durable::wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string intact = slurp(segments[0].path);
  overwrite_file(segments[0].path, intact + "GARBAGE-TORN-WRITE");

  const auto recovered = core::durable::read_wal(dir);
  EXPECT_TRUE(recovered.tail_truncated);
  EXPECT_EQ(recovered.truncated_bytes, std::strlen("GARBAGE-TORN-WRITE"));
  EXPECT_EQ(recovered.records.size(), records.size());
  // The truncation is physical: a second scan sees a clean log.
  EXPECT_EQ(slurp(segments[0].path), intact);
  EXPECT_FALSE(core::durable::read_wal(dir).tail_truncated);
}

TEST(Wal, MidLogCorruptionThrows) {
  const fs::path dir = test_dir("wal-midlog");
  {
    WalWriter writer(dir, 0, WalOptions{});
    for (const WalRecord& r : sample_records()) writer.append(r);
  }
  const auto segments = core::durable::wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  // Flip a byte inside the FIRST frame: valid frames follow, so this is
  // corruption, not a torn tail.
  overwrite_file(segments[0].path, flip_byte(slurp(segments[0].path), 20));
  EXPECT_THROW(core::durable::read_wal(dir), WalError);
}

TEST(Wal, SegmentGapThrows) {
  const fs::path dir = test_dir("wal-gap");
  WalOptions options;
  options.segment_bytes = 64;  // rotate every couple of frames
  {
    WalWriter writer(dir, 0, options);
    for (int i = 0; i < 4; ++i) {
      for (const WalRecord& r : sample_records()) writer.append(r);
    }
  }
  auto segments = core::durable::wal_segments(dir);
  ASSERT_GE(segments.size(), 3u);
  fs::remove(segments[1].path);  // a middle segment vanishes
  EXPECT_THROW(core::durable::read_wal(dir), WalError);
}

TEST(Wal, TornSegmentCreationIsRemoved) {
  const fs::path dir = test_dir("wal-torn-create");
  const std::vector<WalRecord> records = sample_records();
  {
    WalWriter writer(dir, 0, WalOptions{});
    for (const WalRecord& r : records) writer.append(r);
  }
  // The process died while writing the next segment's magic.
  overwrite_file(dir / WalWriter::segment_name(records.size()), "trustr");
  const auto recovered = core::durable::read_wal(dir);
  EXPECT_EQ(recovered.records.size(), records.size());
  EXPECT_EQ(recovered.next_lsn, records.size());
  EXPECT_FALSE(fs::exists(dir / WalWriter::segment_name(records.size())));
}

TEST(Wal, FlippedByteRecoversPrefixOrThrows) {
  const fs::path dir = test_dir("wal-fuzz-src");
  const std::vector<WalRecord> records = sample_records();
  {
    WalWriter writer(dir, 0, WalOptions{});
    for (int rep = 0; rep < 3; ++rep) {
      for (const WalRecord& r : records) writer.append(r);
    }
  }
  const auto segments = core::durable::wal_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string intact = slurp(segments[0].path);
  const std::string segment_name = segments[0].path.filename().string();

  // Frame end offsets: a flip inside frame j leaves exactly the frames
  // that end at or before the flip (0..j-1) recoverable.
  const auto reference = core::durable::read_wal(dir);
  std::vector<std::size_t> frame_ends;
  {
    std::size_t offset = 16;  // past the magic
    for (const auto& [lsn, record] : reference.records) {
      offset += core::durable::encode_frame(record).size();
      frame_ends.push_back(offset);
    }
  }
  const std::size_t magic_size = 16;

  const fs::path fuzz_dir = test_dir("wal-fuzz");
  for (std::size_t offset = 0; offset < intact.size(); offset += 3) {
    fs::remove_all(fuzz_dir);
    fs::create_directories(fuzz_dir);
    overwrite_file(fuzz_dir / segment_name, flip_byte(intact, offset));
    try {
      const auto read = core::durable::read_wal(fuzz_dir);
      // No error: the only legitimate silent outcome is a clean prefix —
      // every frame that ends at or before the flipped byte survives
      // verbatim, everything from the flipped frame on is gone (a flip in
      // the final frame is indistinguishable from a torn tail).
      ASSERT_GE(offset, magic_size)
          << "flip in the magic at " << offset << " was not detected";
      std::size_t survivors = 0;
      while (survivors < frame_ends.size() && frame_ends[survivors] <= offset) {
        ++survivors;
      }
      ASSERT_EQ(read.records.size(), survivors) << "flip at " << offset;
      for (std::size_t i = 0; i < read.records.size(); ++i) {
        ASSERT_EQ(core::durable::encode_frame(read.records[i].second),
                  core::durable::encode_frame(reference.records[i].second))
            << "flip at " << offset;
      }
    } catch (const WalError&) {
      // Detected corruption is always an acceptable outcome.
    }
  }
}

TEST(CheckpointFuzz, FlippedByteLoadsIdenticalOrThrows) {
  core::StreamingRatingSystem stream(pipeline_config(), 30.0, 2,
                                     {.max_lateness_days = 2.0});
  for (const Rating& r : small_stream()) stream.submit(r);
  const std::string intact = state_bytes(stream);
  ASSERT_NE(intact.find("crc "), std::string::npos);

  // Bytes before the filecrc line are covered by the whole-file checksum:
  // flipping any of them MUST be detected. The filecrc line and the `end`
  // trailer protect themselves structurally, but a flip that only perturbs
  // token whitespace there can legally parse — then the restored state must
  // still be identical (round-trip-or-throw).
  const std::size_t covered = intact.find("\nfilecrc ") + 1;
  ASSERT_NE(covered, std::string::npos + 1);
  for (std::size_t offset = 0; offset < intact.size(); offset += 3) {
    const std::string mutated = flip_byte(intact, offset);
    try {
      std::istringstream in(mutated);
      const auto loaded = core::load_checkpoint(in, pipeline_config());
      EXPECT_GE(offset, covered)
          << "flip at " << offset << " inside the checksummed bytes "
          << "was not detected";
      EXPECT_EQ(state_bytes(loaded), intact) << "flip at " << offset;
    } catch (const CheckpointError&) {
      // Detection is always acceptable.
    }
  }
}

TEST(DurableStream, RecoveryFallsBackPastCorruptNewestCheckpoint) {
  const fs::path dir = test_dir("ladder");
  const RatingSeries ratings = small_stream();
  const std::size_t cut = ratings.size() / 2;

  core::StreamingRatingSystem reference(pipeline_config(), 30.0, 2, {});
  for (const Rating& r : ratings) reference.submit(r);

  {
    DurableStream durable(dir, pipeline_config(), 30.0, 2, {});
    for (std::size_t i = 0; i < ratings.size(); ++i) {
      durable.submit(ratings[i]);
      if (i == cut || i + 1 == ratings.size()) durable.checkpoint();
    }
  }
  auto newest = fs::path();
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 &&
        (newest.empty() || name > newest.filename().string())) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  corrupt_file(newest);

  DurableStream recovered(dir, pipeline_config(), 30.0, 2, {});
  EXPECT_EQ(recovered.recovery().corrupt_checkpoints, 1u);
  EXPECT_TRUE(recovered.recovery().loaded_checkpoint);
  EXPECT_GT(recovered.recovery().replayed_ratings, 0u);
  EXPECT_EQ(state_bytes(recovered.stream()), state_bytes(reference));
}

TEST(DurableStream, FreshReplayWhenEveryCheckpointIsCorrupt) {
  const fs::path dir = test_dir("ladder-fresh");
  const RatingSeries ratings = small_stream();

  core::StreamingRatingSystem reference(pipeline_config(), 30.0, 2, {});
  for (const Rating& r : ratings) reference.submit(r);

  {
    DurableStream durable(dir, pipeline_config(), 30.0, 2, {});
    for (std::size_t i = 0; i < ratings.size(); ++i) {
      durable.submit(ratings[i]);
      if (i == ratings.size() / 2) durable.checkpoint();
    }
    durable.checkpoint();
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      corrupt_file(entry.path());
    }
  }

  DurableStream recovered(dir, pipeline_config(), 30.0, 2, {});
  EXPECT_EQ(recovered.recovery().corrupt_checkpoints, 2u);
  EXPECT_FALSE(recovered.recovery().loaded_checkpoint);
  EXPECT_EQ(recovered.recovery().replayed_ratings, ratings.size());
  EXPECT_EQ(state_bytes(recovered.stream()), state_bytes(reference));
}

TEST(DurableStream, UnreachablePrunedLogIsARecoveryError) {
  const fs::path dir = test_dir("ladder-pruned");
  DurableOptions options;
  options.segment_bytes = 256;  // many small segments
  options.keep_checkpoints = 1;
  {
    DurableStream durable(dir, pipeline_config(), 30.0, 2, {}, options);
    const RatingSeries ratings = small_stream();
    for (const Rating& r : ratings) durable.submit(r);
    durable.checkpoint();  // prunes everything before it
  }
  // Pruning must have dropped the head of the log...
  ASSERT_GT(core::durable::wal_segments(dir).front().first_lsn, 0u);
  // ...so when the only checkpoint rots, nothing can rebuild the state.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      corrupt_file(entry.path());
    }
  }
  EXPECT_THROW(
      (DurableStream(dir, pipeline_config(), 30.0, 2, {}, options)),
      RecoveryError);
}

TEST(DurableStream, ShardedRecordInPlainLogFailsRecovery) {
  // A plain DurableStream directory whose log holds a sharded-stream frame
  // (kShardRating): recovery must refuse it, naming the record, rather than
  // skip the submission and still count it as replayed.
  const fs::path dir = test_dir("plain-holds-sharded");
  {
    WalWriter writer(dir, 0, WalOptions{});
    WalRecord rating;
    rating.type = WalRecordType::kRating;
    rating.rating = {1.0, 0.5, 1, 1, RatingLabel::kHonest};
    writer.append(rating);
    WalRecord sharded = rating;
    sharded.type = WalRecordType::kShardRating;
    sharded.rating.time = 2.0;
    sharded.seq = 1;
    writer.append(sharded);
    writer.sync();
  }
  try {
    DurableStream recovered(dir, pipeline_config(), 30.0, 2, {}, {});
    FAIL() << "recovered past a sharded record, replayed "
           << recovered.recovery().replayed_records;
  } catch (const WalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 1"), std::string::npos) << what;
    EXPECT_NE(what.find("type 4"), std::string::npos) << what;
  }
}

TEST(DurableStream, CheckpointPrunesObsoleteSegmentsAndCheckpoints) {
  const fs::path dir = test_dir("prune");
  DurableOptions options;
  options.segment_bytes = 256;
  options.keep_checkpoints = 2;
  DurableStream durable(dir, pipeline_config(), 30.0, 2, {}, options);
  const RatingSeries ratings = small_stream();
  std::size_t checkpoints_taken = 0;
  for (std::size_t i = 0; i < ratings.size(); ++i) {
    durable.submit(ratings[i]);
    if (i % 40 == 39) {
      durable.checkpoint();
      ++checkpoints_taken;
    }
  }
  ASSERT_GE(checkpoints_taken, 3u);
  std::size_t kept = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    kept += entry.path().filename().string().rfind("ckpt-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(kept, 2u);
  // The surviving log must still cover the oldest kept checkpoint, and a
  // recovery over the pruned directory still works.
  DurableStream recovered(dir, pipeline_config(), 30.0, 2, {}, options);
  EXPECT_EQ(state_bytes(recovered.stream()), state_bytes(durable.stream()));
}

TEST(CrashSweep, RecoveryIsBitExactAtEveryCrashPoint) {
  const std::uint64_t seed = env_u64("TRUSTRATE_DURABILITY_SEED", 11);
  const testkit::Scenario scenario = testkit::make_scenario(seed);
  testkit::CrashSweepOptions options;
  options.checkpoint_every = 48;
  options.stride = env_u64("TRUSTRATE_DURABILITY_STRIDE", 509);
  const auto result =
      testkit::run_crash_sweep(scenario, test_dir("sweep"), options);
  EXPECT_TRUE(result.ok) << result.divergence;
  EXPECT_GT(result.total_bytes, 0u);
  EXPECT_GT(result.crash_points, 0u);
  EXPECT_GT(result.clean_points, 0u);
}

TEST(CrashSweep, AllFsyncPoliciesRecover) {
  // The byte stream is policy-independent; what moves is where the sync
  // barriers sit, i.e. which budgets die before an fsync vs after. A
  // coarser stride per policy keeps the matrix cheap.
  const testkit::Scenario scenario = testkit::make_scenario(3);
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kEpoch, FsyncPolicy::kAlways}) {
    testkit::CrashSweepOptions options;
    options.checkpoint_every = 64;
    options.stride = env_u64("TRUSTRATE_DURABILITY_STRIDE", 509) * 4;
    options.first = 13;
    options.fsync = policy;
    const auto result = testkit::run_crash_sweep(
        scenario,
        test_dir(std::string("sweep-") + core::durable::to_string(policy)),
        options);
    EXPECT_TRUE(result.ok)
        << core::durable::to_string(policy) << ": " << result.divergence;
    EXPECT_GT(result.crash_points, 0u)
        << core::durable::to_string(policy);
  }
}

}  // namespace
}  // namespace trustrate
