// Checkpoint codec conformance (DESIGN.md §10): the writer renders every
// byte exactly as the checked-in goldens (produced by the iostream-based
// writer it replaced), the reader parses them back bit-exactly, numbers in
// spellings the writer never produces keep the accept/reject verdict, value
// and "(line N)" message strtod/strtoull gave them, and the dispatched
// CRC32C agrees with the table on every length, alignment and seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "checkpoint_edge_snapshot.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/durable/crc32c.hpp"

namespace trustrate {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(TRUSTRATE_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void expect_same_rating(const Rating& a, const Rating& b) {
  EXPECT_EQ(bits_of(a.time), bits_of(b.time));
  EXPECT_EQ(bits_of(a.value), bits_of(b.value));
  EXPECT_EQ(a.rater, b.rater);
  EXPECT_EQ(a.product, b.product);
  EXPECT_EQ(a.label, b.label);
}

void expect_same_series(const RatingSeries& a, const RatingSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_rating(a[i], b[i]);
}

/// Field-by-field, doubles by bit pattern (so -0, nan signs and subnormals
/// count).
void expect_bitwise_equal(const core::StreamSnapshot& a,
                          const core::StreamSnapshot& b) {
  EXPECT_EQ(bits_of(a.epoch_days), bits_of(b.epoch_days));
  EXPECT_EQ(a.retention_epochs, b.retention_epochs);
  EXPECT_EQ(bits_of(a.ingest_config.max_lateness_days),
            bits_of(b.ingest_config.max_lateness_days));
  EXPECT_EQ(a.ingest_config.max_quarantine, b.ingest_config.max_quarantine);
  EXPECT_EQ(a.anchored, b.anchored);
  EXPECT_EQ(bits_of(a.epoch_start), bits_of(b.epoch_start));
  EXPECT_EQ(bits_of(a.last_time), bits_of(b.last_time));
  EXPECT_EQ(a.epochs_closed, b.epochs_closed);
  EXPECT_EQ(a.skipped_empty_epochs, b.skipped_empty_epochs);
  EXPECT_EQ(a.system_epochs, b.system_epochs);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.ingest_anchored, b.ingest_anchored);
  EXPECT_EQ(bits_of(a.ingest_max_time), bits_of(b.ingest_max_time));
  expect_same_series(a.buffer, b.buffer);
  ASSERT_EQ(a.seen.size(), b.seen.size());
  for (std::size_t i = 0; i < a.seen.size(); ++i) {
    EXPECT_EQ(bits_of(std::get<0>(a.seen[i])), bits_of(std::get<0>(b.seen[i])));
    EXPECT_EQ(std::get<1>(a.seen[i]), std::get<1>(b.seen[i]));
    EXPECT_EQ(std::get<2>(a.seen[i]), std::get<2>(b.seen[i]));
    EXPECT_EQ(bits_of(std::get<3>(a.seen[i])), bits_of(std::get<3>(b.seen[i])));
  }
  ASSERT_EQ(a.quarantine.size(), b.quarantine.size());
  for (std::size_t i = 0; i < a.quarantine.size(); ++i) {
    expect_same_rating(a.quarantine[i].rating, b.quarantine[i].rating);
    EXPECT_EQ(a.quarantine[i].reason, b.quarantine[i].reason);
    EXPECT_EQ(a.quarantine[i].detail, b.quarantine[i].detail);
  }
  ASSERT_EQ(a.pending.size(), b.pending.size());
  for (const auto& [product, series] : a.pending) {
    ASSERT_TRUE(b.pending.contains(product)) << "product " << product;
    expect_same_series(series, b.pending.at(product));
  }
  ASSERT_EQ(a.retained.size(), b.retained.size());
  for (const auto& [product, epochs] : a.retained) {
    ASSERT_TRUE(b.retained.contains(product)) << "product " << product;
    ASSERT_EQ(epochs.size(), b.retained.at(product).size());
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      expect_same_series(epochs[e], b.retained.at(product)[e]);
    }
  }
  ASSERT_EQ(a.trust.size(), b.trust.size());
  for (std::size_t i = 0; i < a.trust.size(); ++i) {
    EXPECT_EQ(a.trust[i].first, b.trust[i].first);
    EXPECT_EQ(bits_of(a.trust[i].second.successes),
              bits_of(b.trust[i].second.successes));
    EXPECT_EQ(bits_of(a.trust[i].second.failures),
              bits_of(b.trust[i].second.failures));
  }
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.shard_skipped_cells, b.shard_skipped_cells);
}

struct Golden {
  const char* file;
  int version;
  std::size_t shards;
};

constexpr Golden kGoldens[] = {
    {"checkpoint_v3_edge.golden", core::kCheckpointVersion, 3},
    {"checkpoint_v4_edge.golden", core::kShardedCheckpointVersion, 3},
    {"checkpoint_v4_1shard_edge.golden", core::kShardedCheckpointVersion, 1},
};

TEST(CheckpointCodec, WriterReproducesGoldensByteForByte) {
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.file);
    const std::string golden = read_golden(g.file);
    ASSERT_FALSE(golden.empty());
    const core::StreamSnapshot snapshot = testing::edge_snapshot(g.shards);
    EXPECT_EQ(core::render_checkpoint(snapshot, g.version), golden);
    // The ostream adapter writes the same bytes.
    std::ostringstream out;
    core::write_checkpoint(snapshot, g.version, out);
    EXPECT_EQ(out.str(), golden);
  }
}

TEST(CheckpointCodec, GoldensParseBitExactlyAndRerender) {
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.file);
    const std::string golden = read_golden(g.file);
    const core::StreamSnapshot parsed = core::parse_checkpoint(golden);
    core::StreamSnapshot expected = testing::edge_snapshot(g.shards);
    if (g.version == core::kCheckpointVersion) {
      // v3 carries no layout.
      expected.shards = 0;
      expected.shard_skipped_cells.clear();
    }
    expect_bitwise_equal(parsed, expected);
    EXPECT_EQ(core::render_checkpoint(parsed, g.version), golden);
  }
}

TEST(CheckpointCodec, HexfloatSpellingMatchesPrintfForRandomBitPatterns) {
  // Trust records carry arbitrary doubles: every rendered one must be the
  // `%a` spelling, and every non-nan must parse back to the same bits.
  Rng rng(20261017);
  core::StreamSnapshot s;
  std::vector<double> values;
  for (std::size_t i = 0; i < 20000; ++i) {
    std::uint64_t bits = 0;
    for (int k = 0; k < 4; ++k) {
      bits = (bits << 16) |
             static_cast<std::uint64_t>(rng.uniform_int(0, 0xFFFF));
    }
    // Every fourth value gets a short mantissa (trailing zero digits), every
    // eighth a tiny exponent (subnormals).
    if (i % 4 == 1) bits &= ~((1ull << (4 * (i % 13))) - 1);
    if (i % 8 == 3) bits &= 0x800FFFFFFFFFFFFFull;
    values.push_back(testing::double_from_bits(bits));
  }
  for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
    trust::TrustRecord record;
    record.successes = values[i];
    record.failures = values[i + 1];
    s.trust.push_back({static_cast<RaterId>(i), record});
  }
  const std::string text = core::render_checkpoint(s, core::kCheckpointVersion);
  std::string expected_lines;
  for (const auto& [id, record] : s.trust) {
    char line[96];
    std::snprintf(line, sizeof line, "%u %a %a\n", id, record.successes,
                  record.failures);
    expected_lines += line;
  }
  EXPECT_NE(text.find(expected_lines), std::string::npos);

  const core::StreamSnapshot parsed = core::parse_checkpoint(text);
  ASSERT_EQ(parsed.trust.size(), s.trust.size());
  for (std::size_t i = 0; i < s.trust.size(); ++i) {
    const trust::TrustRecord& in = s.trust[i].second;
    const trust::TrustRecord& out = parsed.trust[i].second;
    for (const auto& [got, want] : {std::pair{out.successes, in.successes},
                                    std::pair{out.failures, in.failures}}) {
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got));
        EXPECT_EQ(std::signbit(got), std::signbit(want));
      } else {
        EXPECT_EQ(bits_of(got), bits_of(want)) << std::hexfloat << want;
      }
    }
  }
}

/// A v1 checkpoint (no checksums) with `dbl` as epoch_days (line 2) and
/// `count` as the submitted counter (line 4).
std::string v1_with(const std::string& dbl, const std::string& count) {
  return "trustrate-checkpoint 1\nconfig " + dbl +
         " 2 0x0p+0 1024\nanchor 0 0x0p+0 0x0p+0 0 0\nstats " + count +
         " 0 0 0 0 0 0\nhealth 0\ningest 0 0x0p+0\nbuffer 0\nseen 0\n"
         "quarantine 0\npending 0\nretained 0\ntrust 0\nend\n";
}

struct ParityCase {
  const char* token;
  bool accepted;
  std::uint64_t value;  ///< bit pattern (doubles) or count
};

// Verdicts and values recorded from the strtod/strtoull reader the
// from_chars fast path replaced; the fast path must not move any. A
// rejected token must also keep that reader's exact message, which names
// the token, the field and its line.
constexpr ParityCase kDoubleCases[] = {
    {"0.5", true, 0x3fe0000000000000ull},
    {"0X1P-1", true, 0x3fe0000000000000ull},
    {"+3", true, 0x4008000000000000ull},
    {"inf", true, 0x7ff0000000000000ull},
    {"nan", true, 0x7ff8000000000000ull},
    {"-nan", true, 0xfff8000000000000ull},
    {"18446744073709551616", true, 0x43f0000000000000ull},
    {"0x1.p+0", true, 0x3ff0000000000000ull},
    {"0x1P+0", true, 0x3ff0000000000000ull},
    {"0x1.8P+1", true, 0x4008000000000000ull},
    {"1e400", true, 0x7ff0000000000000ull},
    {"-1e400", true, 0xfff0000000000000ull},
    {"0x1p-1075", true, 0x0000000000000000ull},
    {"0x1p-1074", true, 0x0000000000000001ull},
    {"0x1p+1024", true, 0x7ff0000000000000ull},
    {"0x", false, 0},
    {"0x1p", false, 0},
    {"0x1.8p+", false, 0},
    {"-", false, 0},
    {"+", false, 0},
    {"0x-1p+0", false, 0},
    {"--0x1p+0", false, 0},
    {"0x1.8p+1x", false, 0},
    {"0x1.fffffffffffff8p+0", true, 0x4000000000000000ull},
    {"0x1.00000000000008p+0", true, 0x3ff0000000000000ull},
    {"0x1.000000000000081p+0", true, 0x3ff0000000000001ull},
    {"0x.8p+1", true, 0x3ff0000000000000ull},
    {"1e", false, 0},
    {"infinity", true, 0x7ff0000000000000ull},
    {"-INF", true, 0xfff0000000000000ull},
    {"nan(123)", true, 0x7ff800000000007bull},
    {"0x0x1", false, 0},
    {"0x1.8", true, 0x3ff8000000000000ull},
    {"0x18", true, 0x4038000000000000ull},
    {"0x1.8p+1.5", false, 0},
    {"-0x0p+0", true, 0x8000000000000000ull},
    {"0x0.0000000000001p-1022", true, 0x0000000000000001ull},
    {"0x1p-1080", true, 0x0000000000000000ull},
    {"0xg", false, 0},
    {"0x1.ffffffffffffffffp+1023", true, 0x7ff0000000000000ull},
};

constexpr ParityCase kCountCases[] = {
    {"0.5", false, 0},
    {"+3", true, 3ull},
    {"18446744073709551616", true, 18446744073709551615ull},
    {"18446744073709551615", true, 18446744073709551615ull},
    {"99999999999999999999", true, 18446744073709551615ull},
    {"-0", false, 0},
    {"-3", false, 0},
    {"0x10", false, 0},
    {"3x", false, 0},
    {"00000000000000000000042", true, 42ull},
    {"0000000000000000042", true, 42ull},
    {"1e3", false, 0},
    {"+", false, 0},
    {"-", false, 0},
    {"inf", false, 0},
    {"007", true, 7ull},
};

TEST(CheckpointCodec, NonCanonicalDoubleSpellingsKeepStrtodVerdicts) {
  for (const ParityCase& c : kDoubleCases) {
    SCOPED_TRACE(c.token);
    const std::string text = v1_with(c.token, "7");
    if (c.accepted) {
      const core::StreamSnapshot s = core::parse_checkpoint(text);
      EXPECT_EQ(bits_of(s.epoch_days), c.value);
    } else {
      try {
        core::parse_checkpoint(text);
        ADD_FAILURE() << "accepted";
      } catch (const CheckpointError& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("checkpoint corrupt: bad number '") + c.token +
                      "' for epoch_days (line 2)");
      }
    }
  }
}

TEST(CheckpointCodec, NonCanonicalCountSpellingsKeepStrtoullVerdicts) {
  for (const ParityCase& c : kCountCases) {
    SCOPED_TRACE(c.token);
    const std::string text = v1_with("0x1p+0", c.token);
    if (c.accepted) {
      EXPECT_EQ(core::parse_checkpoint(text).stats.submitted, c.value);
    } else {
      try {
        core::parse_checkpoint(text);
        ADD_FAILURE() << "accepted";
      } catch (const CheckpointError& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("checkpoint corrupt: bad count '") + c.token +
                      "' for submitted (line 4)");
      }
    }
  }
}

TEST(CheckpointCodec, TruncatedTokensKeepTheirLineNumbers) {
  const std::string full = v1_with("0x1.8p+1", "12");
  const struct {
    std::size_t cut;
    const char* message;
  } cases[] = {
      // Cut inside a double: the prefix "0x1.8" is itself a number, so the
      // next field is what is missing.
      {full.find("0x1.8p+1") + 5,
       "checkpoint truncated: expected retention_epochs (line 2)"},
      {full.find("stats 12") + 7,
       "checkpoint truncated: expected accepted (line 4)"},
      {full.size() - 2,
       "checkpoint corrupt: expected 'end', found 'en' (line 13)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.cut);
    try {
      core::parse_checkpoint(std::string_view(full).substr(0, c.cut));
      ADD_FAILURE() << "accepted";
    } catch (const CheckpointError& e) {
      EXPECT_STREQ(e.what(), c.message);
    }
  }
}

/// A streambuf that can neither seek nor report its size: load must fall
/// back to reading it in chunks.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(CheckpointCodec, LoadReadsSeekableAndUnseekableStreamsAlike) {
  core::StreamingRatingSystem stream(core::SystemConfig{}, 30.0);
  stream.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  stream.submit({1.5, 2.0, 2, 1, RatingLabel::kHonest});  // quarantined
  std::ostringstream saved;
  core::save_checkpoint(stream, saved);
  const std::string text = saved.str();

  // Seekable, positioned past a prefix the caller already consumed.
  std::istringstream seekable("junk\n" + text);
  std::string junk;
  std::getline(seekable, junk);
  std::ostringstream a;
  core::save_checkpoint(core::load_checkpoint(seekable, core::SystemConfig{}),
                        a);
  EXPECT_EQ(a.str(), text);

  UnseekableBuf buf(text);
  std::istream unseekable(&buf);
  std::ostringstream b;
  core::save_checkpoint(
      core::load_checkpoint(unseekable, core::SystemConfig{}), b);
  EXPECT_EQ(b.str(), text);
}

TEST(Crc32c, DispatchedBackendMatchesTable) {
  // Lengths 0..4096 at every alignment 0..7, fresh and chained seeds. On
  // a host without SSE4.2 both sides are the table and this is trivially
  // true; where it exists it is what the checksum of every durable byte
  // runs on.
  std::vector<unsigned char> bytes(4096 + 8);
  Rng rng(7);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  using core::durable::crc32c;
  using core::durable::crc32c_table;
  std::size_t mismatches = 0;
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const unsigned char* p = bytes.data() + align;
      const std::uint32_t seed = static_cast<std::uint32_t>(len * 2654435761u);
      const std::uint32_t reference = crc32c_table(p, len);
      mismatches += crc32c(p, len) != reference;
      mismatches += crc32c(p, len, seed) != crc32c_table(p, len, seed);
      // Chained: two pieces split at an uneven point equal one pass.
      const std::size_t cut = len / 3;
      mismatches += crc32c(p + cut, len - cut, crc32c(p, cut)) != reference;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "backend " << core::durable::crc32c_backend();
  EXPECT_EQ(crc32c_table("123456789", 9), 0xE3069283u);
  const std::string backend = core::durable::crc32c_backend();
  EXPECT_TRUE(backend == "sse4.2" || backend == "table") << backend;
}

}  // namespace
}  // namespace trustrate
