// Sharded-engine tests (ISSUE 8): SPSC ring semantics (FIFO, wraparound,
// backpressure, a two-thread hammer — the TSan target for the shard
// transport), cross-shard merge determinism under adversarial placement
// skew, per-shard quarantine caps and skipped-cell accounting, checkpoint
// v3<->v4 compatibility at changing shard counts, and the sharded durable
// front-end's recovery: clean reopen, a torn shard WAL (cross-shard
// ordinal gap -> discard + WAL reset), and an on-disk layout change.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/durable/sharded_durable.hpp"
#include "core/durable/wal.hpp"
#include "core/shard/sharded_system.hpp"
#include "core/shard/spsc_queue.hpp"
#include "core/streaming.hpp"
#include "testkit/threadfault.hpp"

namespace trustrate {
namespace {

namespace fs = std::filesystem;
using core::durable::ShardedDurableOptions;
using core::durable::ShardedDurableStream;
using core::shard::ShardedRatingSystem;
using core::shard::ShardOptions;
using core::shard::SpscQueue;

/// Fresh per-test scratch directory under the system temp dir.
fs::path test_dir(const std::string& name) {
#ifndef _WIN32
  const std::string uniq = std::to_string(::getpid());
#else
  const std::string uniq = "w";
#endif
  const fs::path dir =
      fs::temp_directory_path() / ("trustrate-sharding-" + uniq) / name;
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

/// Deterministic mixed stream: 7 products, 13 raters, in-bound reorder,
/// exact duplicates, watermark-late drops, and malformed values — enough
/// ingest texture that a layout-dependent bug in the classifier front door
/// or the dead-letter routing shows up in the checkpoint bytes.
RatingSeries mixed_stream() {
  RatingSeries s;
  double t = 0.0;
  for (int i = 0; i < 240; ++i) {
    t += 0.5;
    s.push_back({t, (i % 11) * 0.09, static_cast<RaterId>(1 + i % 13),
                 static_cast<ProductId>(1 + i % 7), RatingLabel::kHonest});
    if (i % 37 == 5) s.push_back(s.back());  // exact duplicate
    if (i % 41 == 7) {
      // In-bound reorder: 1 day behind the watermark, lateness allows 2.
      s.push_back({t - 1.0, 0.4, static_cast<RaterId>(2 + i % 5),
                   static_cast<ProductId>(1 + (i + 3) % 7),
                   RatingLabel::kHonest});
    }
    if (i % 53 == 9) {
      s.push_back({t - 30.0, 0.5, 3, 2, RatingLabel::kHonest});  // late drop
    }
    if (i % 61 == 11) {
      s.push_back({t, 2.5, 4, 3, RatingLabel::kHonest});  // malformed value
    }
  }
  return s;
}

core::IngestConfig mixed_ingest() { return {.max_lateness_days = 2.0}; }

ShardOptions make_options(std::size_t shards, bool threaded = false,
                          std::size_t queue_capacity = 4096) {
  ShardOptions options;
  options.shards = shards;
  options.threaded = threaded;
  options.queue_capacity = queue_capacity;
  return options;
}

/// Layout with predictable placement (p % shards) — tests that aim at a
/// specific shard use it instead of the default hash.
ShardOptions modulo_layout(std::size_t shards) {
  ShardOptions options = make_options(shards);
  options.shard_fn = [](ProductId p, std::size_t n) {
    return static_cast<std::size_t>(p) % n;
  };
  return options;
}

/// Collapsed-v3 rendering of a sharded system's state: byte-comparable
/// against save_checkpoint of a plain stream AND against any other shard
/// layout (v3 has no layout section).
std::string v3_bytes(ShardedRatingSystem& system) {
  std::ostringstream out;
  core::write_checkpoint(system.snapshot(), core::kCheckpointVersion, out);
  return out.str();
}

std::string v3_bytes(const core::StreamingRatingSystem& stream) {
  std::ostringstream out;
  core::save_checkpoint(stream, out);
  return out.str();
}

std::string v4_bytes(ShardedRatingSystem& system) {
  std::ostringstream out;
  system.save(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// SPSC ring.

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(1024).capacity(), 1024u);
}

TEST(SpscQueue, FifoAcrossManyWraparounds) {
  SpscQueue<std::uint64_t> q(4);
  ASSERT_EQ(q.capacity(), 4u);
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  // Varying batch sizes walk every head/tail phase of the ring many times
  // past the capacity, so a wraparound off-by-one cannot hide.
  for (int round = 0; round < 300; ++round) {
    const std::size_t batch = 1 + round % 4;
    for (std::size_t i = 0; i < batch; ++i) {
      ASSERT_TRUE(q.try_push(std::uint64_t{produced}));
      ++produced;
    }
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      ASSERT_TRUE(q.try_pop(out));
      ASSERT_EQ(out, consumed);
      ++consumed;
    }
    ASSERT_TRUE(q.empty());
  }
  EXPECT_EQ(produced, consumed);
}

TEST(SpscQueue, TryPushFailsOnlyWhenFull) {
  SpscQueue<int> q(2);
  ASSERT_EQ(q.capacity(), 2u);
  // Every slot is usable: a capacity-2 ring holds 2 elements.
  EXPECT_TRUE(q.try_push(10));
  EXPECT_TRUE(q.try_push(11));
  EXPECT_FALSE(q.try_push(12));  // full: this IS the backpressure signal
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(q.try_push(12));  // one free slot again
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 11);
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 12);
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, RejectedPushLeavesValueIntact) {
  SpscQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(q.try_push(std::make_unique<int>(2)));
  auto extra = std::make_unique<int>(3);
  // A failed try_push must not consume the moved-from argument.
  ASSERT_FALSE(q.try_push(std::move(extra)));
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 3);
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(*out, 1);
  ASSERT_TRUE(q.try_push(std::move(extra)));
  EXPECT_EQ(extra, nullptr);  // accepted push does consume it
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(*out, 2);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(*out, 3);
}

TEST(SpscQueue, HammerProducerRacesConsumer) {
  // The TSan target for the shard transport: a tiny ring forces constant
  // backpressure, so both the blocking push path (spin -> yield) and the
  // cached-index refresh paths run millions of times under contention.
  constexpr std::uint64_t kCount = 50000;
  SpscQueue<std::uint64_t> q(8);
  std::atomic<bool> in_order{true};
  std::thread consumer([&q, &in_order] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      std::uint64_t value = 0;
      if (!q.pop(value) || value != i) {
        in_order.store(false);
        return;
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) q.push(std::uint64_t{i});
  consumer.join();
  EXPECT_TRUE(in_order.load());
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Cross-shard merge determinism.

TEST(ShardedEngine, MatchesPlainStreamAtEveryShardCount) {
  const RatingSeries stream = mixed_stream();
  core::StreamingRatingSystem plain(pipeline_config(), 10.0, 2,
                                    mixed_ingest());
  for (const Rating& r : stream) plain.submit(r);
  plain.flush();
  const std::string reference = v3_bytes(plain);

  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    ShardedRatingSystem sharded(pipeline_config(), make_options(shards), 10.0,
                                2, mixed_ingest());
    for (const Rating& r : stream) sharded.submit(r);
    sharded.flush();
    EXPECT_EQ(v3_bytes(sharded), reference) << "shards=" << shards;
    EXPECT_EQ(sharded.epochs_closed(), plain.epochs_closed());
    EXPECT_EQ(sharded.ingest_stats(), plain.ingest_stats());
  }
}

TEST(ShardedEngine, AdversarialSkewAllProductsOnOneShard) {
  // Placement is layout, not semantics: routing EVERY product to shard 2 of
  // 4 (three shards permanently empty) must not move a single bit.
  const RatingSeries stream = mixed_stream();
  core::StreamingRatingSystem plain(pipeline_config(), 10.0, 2,
                                    mixed_ingest());
  for (const Rating& r : stream) plain.submit(r);
  plain.flush();

  ShardOptions skew;
  skew.shards = 4;
  skew.shard_fn = [](ProductId, std::size_t) -> std::size_t { return 2; };
  ShardedRatingSystem sharded(pipeline_config(), skew, 10.0, 2,
                              mixed_ingest());
  for (const Rating& r : stream) sharded.submit(r);
  sharded.flush();
  EXPECT_EQ(v3_bytes(sharded), v3_bytes(plain));
  // The idle shards really were idle: every close skipped them.
  const auto skipped = sharded.shard_skipped_cells();
  ASSERT_EQ(skipped.size(), 4u);
  EXPECT_EQ(skipped[2], 0u);
  EXPECT_GT(skipped[0], 0u);
  EXPECT_EQ(skipped[0], skipped[1]);
  EXPECT_EQ(skipped[0], skipped[3]);
}

TEST(ShardedEngine, SingleRaterSpanningEveryShard) {
  // Rater 1 rates all 7 products — its C(i) terms come from every shard and
  // must fold in canonical product order regardless of layout.
  RatingSeries stream;
  for (int day = 1; day <= 90; ++day) {
    for (ProductId p = 1; p <= 7; ++p) {
      stream.push_back({day + p * 0.01, ((day + p) % 10) * 0.1, 1, p,
                        RatingLabel::kHonest});
      stream.push_back({day + p * 0.01 + 0.005, ((day * p) % 10) * 0.1,
                        static_cast<RaterId>(1 + p), p, RatingLabel::kHonest});
    }
  }
  core::StreamingRatingSystem plain(pipeline_config(), 30.0, 2, {});
  for (const Rating& r : stream) plain.submit(r);
  plain.flush();

  ShardOptions one_per_product;
  one_per_product.shards = 7;
  one_per_product.shard_fn = [](ProductId p, std::size_t n) {
    return static_cast<std::size_t>(p - 1) % n;
  };
  ShardedRatingSystem sharded(pipeline_config(), one_per_product, 30.0, 2,
                              {});
  for (const Rating& r : stream) sharded.submit(r);
  sharded.flush();
  EXPECT_EQ(v3_bytes(sharded), v3_bytes(plain));
  // Bitwise, not approximately: the spanning rater's trust value.
  const double spanning = sharded.trust(1);
  const double expected = plain.trust(1);
  EXPECT_EQ(std::memcmp(&spanning, &expected, sizeof(double)), 0);
}

TEST(ShardedEngine, ThreadedModeMatchesInline) {
  const RatingSeries stream = mixed_stream();
  ShardedRatingSystem inline_system(pipeline_config(), make_options(3), 10.0,
                                    2, mixed_ingest());
  for (const Rating& r : stream) inline_system.submit(r);
  inline_system.flush();

  ShardedRatingSystem threaded(pipeline_config(),
                               make_options(3, true), 10.0, 2,
                               mixed_ingest());
  for (const Rating& r : stream) threaded.submit(r);
  threaded.flush();
  EXPECT_EQ(v3_bytes(threaded), v3_bytes(inline_system));
  EXPECT_EQ(threaded.epochs_closed(), inline_system.epochs_closed());
}

TEST(ShardedEngine, ThreadedTinyQueuesBackpressureStillExact) {
  // capacity 2 rings: the coordinator blocks on nearly every route and the
  // merge thread on nearly every cell — the full-pipeline TSan hammer. The
  // result must not move a bit relative to inline execution.
  const RatingSeries stream = mixed_stream();
  ShardedRatingSystem inline_system(pipeline_config(), make_options(2), 10.0,
                                    2, mixed_ingest());
  for (const Rating& r : stream) inline_system.submit(r);
  inline_system.flush();

  ShardedRatingSystem threaded(
      pipeline_config(), make_options(2, true, 2),
      10.0, 2, mixed_ingest());
  for (const Rating& r : stream) threaded.submit(r);
  threaded.flush();
  EXPECT_EQ(v3_bytes(threaded), v3_bytes(inline_system));
}

// ---------------------------------------------------------------------------
// Span publication: the threaded submitter stages each shard's events and
// publishes them 32 at a time; closes, flush(), every query and teardown
// publish whatever is staged.

/// Events published to the shards' inboxes so far.
std::uint64_t published(const ShardedRatingSystem& system) {
  std::uint64_t n = 0;
  for (const obs::ShardProbe& s : system.probe().shards) n += s.events_pushed;
  return n;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_dead_letters(const std::vector<core::QuarantinedRating>& a,
                       const std::vector<core::QuarantinedRating>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rating != b[i].rating || a[i].reason != b[i].reason ||
        a[i].detail != b[i].detail) {
      return false;
    }
  }
  return true;
}

TEST(ShardedPublication, EveryQuerySeesUnpublishedSpans) {
  const RatingSeries stream = mixed_stream();
  ShardedRatingSystem inline_system(pipeline_config(), make_options(3), 10.0,
                                    2, mixed_ingest());
  ShardedRatingSystem threaded(pipeline_config(), make_options(3, true), 10.0,
                               2, mixed_ingest());
  std::size_t queries = 0;
  std::size_t queries_that_published = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    inline_system.submit(stream[i]);
    threaded.submit(stream[i]);
    // A query every 7 submits, far fewer than a span: each one finds the
    // threaded system with routed events still staged.
    if (i % 7 != 3) continue;
    const Rating& r = stream[i];
    const std::uint64_t before = published(threaded);
    switch (queries++ % 6) {
      case 0:
        EXPECT_TRUE(same_bits(threaded.trust(r.rater),
                              inline_system.trust(r.rater)))
            << "trust of rater " << r.rater << " at submit " << i;
        break;
      case 1: {
        const std::optional<double> got = threaded.aggregate(r.product);
        const std::optional<double> want = inline_system.aggregate(r.product);
        ASSERT_EQ(got.has_value(), want.has_value()) << "submit " << i;
        if (got) {
          EXPECT_TRUE(same_bits(*got, *want)) << "submit " << i;
        }
        break;
      }
      case 2:
        EXPECT_TRUE(same_dead_letters(threaded.quarantine(),
                                      inline_system.quarantine()))
            << "submit " << i;
        break;
      case 3:
        for (std::size_t k = 0; k < 3; ++k) {
          EXPECT_TRUE(same_dead_letters(threaded.shard_quarantine(k),
                                        inline_system.shard_quarantine(k)))
              << "shard " << k << " at submit " << i;
        }
        break;
      case 4:
        EXPECT_EQ(threaded.epochs_closed(), inline_system.epochs_closed())
            << "submit " << i;
        break;
      case 5:
        EXPECT_EQ(v4_bytes(threaded), v4_bytes(inline_system))
            << "submit " << i;
        break;
    }
    if (published(threaded) > before) ++queries_that_published;
  }
  // The queries above really did find staged events to publish.
  EXPECT_GT(queries_that_published, queries / 2);
  threaded.flush();
  inline_system.flush();
  EXPECT_EQ(v4_bytes(threaded), v4_bytes(inline_system));
}

TEST(ShardedPublication, CloseHandsEveryStagedSpanToTheWorkers) {
  ShardOptions options = modulo_layout(3);
  options.threaded = true;
  ShardedRatingSystem system(pipeline_config(), options, 10.0, 2, {});
  // Sorted, at lateness 0: each rating is routed at once. Ten ratings in
  // the first epoch leave every shard's span part-filled.
  for (int i = 0; i < 10; ++i) {
    system.submit({0.5 * (i + 1), 0.5, static_cast<RaterId>(i),
                   static_cast<ProductId>(i % 5), RatingLabel::kHonest});
  }
  EXPECT_EQ(published(system), 0u);
  // The first rating of the next epoch closes the first: its close goes
  // out behind every staged rating, with no query to publish them, so the
  // workers can analyze the cell while the submitter carries on.
  system.submit({12.0, 0.5, 10, 0, RatingLabel::kHonest});
  EXPECT_EQ(published(system), 10u + 3u);
  system.flush();
  EXPECT_EQ(system.epochs_closed(), 2u);
}

TEST(ShardedPublication, DestroyMidSpanDeliversEveryStagedEvent) {
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{4096}}) {
    SCOPED_TRACE("queue capacity " + std::to_string(capacity));
    std::vector<std::atomic<std::uint64_t>> events(3);
    ShardOptions options = modulo_layout(3);
    options.threaded = true;
    options.queue_capacity = capacity;
    options.event_hook = [&events](const core::shard::ShardEventContext& ctx) {
      events[ctx.shard].fetch_add(1, std::memory_order_relaxed);
    };
    std::vector<std::uint64_t> expected(3, 1);  // each shard's stop event
    {
      // Sorted and inside one epoch at lateness 0: each rating is routed
      // at once and nothing closes, so every event is a rating or a dead
      // letter, and 40 of them leave a part-filled span on every shard.
      ShardedRatingSystem system(pipeline_config(), options, 30.0, 2, {});
      for (int i = 0; i < 40; ++i) {
        const auto product = static_cast<ProductId>(i % 5);
        const double value = i % 9 == 4 ? 3.0 : 0.5;  // some malformed
        system.submit({0.25 * (i + 1), value, static_cast<RaterId>(i),
                       product, RatingLabel::kHonest});
        ++expected[product % 3];
      }
    }  // destroyed with spans staged: must neither hang nor drop them
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(events[k].load(), expected[k]) << "shard " << k;
    }
  }
}

TEST(ShardedPublication, StallInsideUnpublishedSpanClassifiedByFlush) {
  testkit::ThreadFaultPlan plan;
  plan.shard = 0;
  plan.at_ordinal = 3;
  plan.kind = testkit::ThreadFaultKind::kStall;
  plan.slices = 60000;  // minutes if un-aborted: the watchdog must cut in
  testkit::ThreadFaultInjector injector(plan);
  ShardOptions options = modulo_layout(2);
  options.threaded = true;
  // 20 ms: far above any real event here, far below the stall.
  options.supervision.stall_ticks = 200;
  options.event_hook = injector.hook();
  {
    ShardedRatingSystem system(pipeline_config(), options, 30.0, 2, {});
    // Ten ratings for even products, all staged for shard 0: none is
    // published, so the worker cannot have reached ordinal 3.
    for (int i = 0; i < 10; ++i) {
      system.submit({0.5 * (i + 1), 0.5, static_cast<RaterId>(i),
                     static_cast<ProductId>(2 * (i % 3)),
                     RatingLabel::kHonest});
    }
    EXPECT_FALSE(injector.fired());
    EXPECT_FALSE(system.failed());
    try {
      system.flush();
      ADD_FAILURE() << "flush() returned with shard 0 stalled";
    } catch (const ShardFailure& failure) {
      EXPECT_EQ(failure.kind(), ShardFailureKind::kStalled);
      EXPECT_EQ(failure.shard(), 0u);
    }
  }
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(injector.aborted());
}

// ---------------------------------------------------------------------------
// Per-shard accounting: quarantine caps and skipped cells.

TEST(ShardedEngine, PerShardQuarantineCapPreservesGlobalMetric) {
  core::IngestConfig ingest;
  ingest.max_quarantine = 2;
  ShardOptions options;
  options.shards = 2;
  options.shard_fn = [](ProductId p, std::size_t n) {
    return static_cast<std::size_t>(p) % n;
  };
  ShardedRatingSystem sharded(pipeline_config(), options, 30.0, 2, ingest);
  core::StreamingRatingSystem plain(pipeline_config(), 30.0, 2, ingest);
  // Six malformed ratings alternating products 1, 2 — three per shard.
  for (int i = 0; i < 6; ++i) {
    const Rating bad{1.0 + i, 5.0, static_cast<RaterId>(1 + i),
                     static_cast<ProductId>(1 + i % 2), RatingLabel::kHonest};
    EXPECT_EQ(sharded.submit(bad), core::IngestClass::kMalformed);
    plain.submit(bad);
  }
  // The counter is global and layout-independent...
  EXPECT_EQ(sharded.ingest_stats().quarantined, 6u);
  EXPECT_EQ(sharded.ingest_stats(), plain.ingest_stats());
  // ...while the cap is per-shard: each store keeps its newest 2, so the
  // sharded system retains 4 dead letters where the plain one keeps 2.
  EXPECT_EQ(sharded.shard_quarantine(0).size(), 2u);
  EXPECT_EQ(sharded.shard_quarantine(1).size(), 2u);
  const auto merged = sharded.quarantine();
  ASSERT_EQ(merged.size(), 4u);
  // Merged back into global arrival order: the survivors are the last two
  // per shard, i.e. global ordinals 2,3,4,5 -> times 3,4,5,6.
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].rating.time, 3.0 + i);
    EXPECT_EQ(merged[i].reason, core::IngestClass::kMalformed);
  }
}

TEST(ShardedEngine, GapOnOneShardIsASkippedCellNotAFastForward) {
  ShardOptions options;
  options.shards = 2;
  options.shard_fn = [](ProductId p, std::size_t n) {
    return static_cast<std::size_t>(p) % n;
  };
  // Product 2 -> shard 0, product 1 -> shard 1. Shard 1 has data in every
  // epoch; shard 0 only in the first and last.
  ShardedRatingSystem sharded(pipeline_config(), options, 10.0, 2, {});
  sharded.submit({1.0, 0.5, 1, 2, RatingLabel::kHonest});
  sharded.submit({1.1, 0.5, 2, 1, RatingLabel::kHonest});
  sharded.submit({12.0, 0.6, 2, 1, RatingLabel::kHonest});   // closes epoch 1
  sharded.submit({22.0, 0.4, 2, 1, RatingLabel::kHonest});   // closes epoch 2
  sharded.submit({32.0, 0.7, 2, 1, RatingLabel::kHonest});   // closes epoch 3
  sharded.submit({32.5, 0.7, 1, 2, RatingLabel::kHonest});
  sharded.flush();                                           // closes epoch 4
  EXPECT_EQ(sharded.epochs_closed(), 4u);
  // Shard 1 always had pending data, so the global cursor never
  // fast-forwarded — shard 0 just sat out epochs 2 and 3.
  EXPECT_EQ(sharded.skipped_empty_epochs(), 0u);
  const auto skipped = sharded.shard_skipped_cells();
  ASSERT_EQ(skipped.size(), 2u);
  EXPECT_EQ(skipped[0], 2u);
  EXPECT_EQ(skipped[1], 0u);
}

TEST(ShardedEngine, FullyEmptyGapFastForwardsWithoutShardSkips) {
  // Product 1 -> shard 1, product 2 -> shard 0; both epochs that actually
  // close hold data on BOTH shards.
  ShardedRatingSystem sharded(pipeline_config(), modulo_layout(2), 10.0, 2,
                              {});
  sharded.submit({1.0, 0.5, 1, 1, RatingLabel::kHonest});
  sharded.submit({1.2, 0.6, 2, 2, RatingLabel::kHonest});
  // Next ratings land 4 epochs later: epoch 1 closes with data, epochs
  // [11,21), [21,31), [31,41) are empty EVERYWHERE and fast-forward in O(1)
  // — no shard records a skipped cell because no cell was ever issued.
  sharded.submit({45.0, 0.4, 1, 1, RatingLabel::kHonest});
  sharded.submit({45.3, 0.5, 2, 2, RatingLabel::kHonest});
  sharded.flush();
  EXPECT_EQ(sharded.epochs_closed(), 2u);
  EXPECT_EQ(sharded.skipped_empty_epochs(), 3u);
  for (const std::size_t cells : sharded.shard_skipped_cells()) {
    EXPECT_EQ(cells, 0u);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint compatibility across versions and layouts.

TEST(ShardedCheckpoint, V3PreShardCheckpointLoadsBitExact) {
  const RatingSeries stream = mixed_stream();
  const std::size_t cut = stream.size() / 2;
  core::StreamingRatingSystem plain(pipeline_config(), 10.0, 2,
                                    mixed_ingest());
  for (std::size_t i = 0; i < cut; ++i) plain.submit(stream[i]);
  std::ostringstream checkpoint;
  core::save_checkpoint(plain, checkpoint);  // v3: no layout section

  std::istringstream in(checkpoint.str());
  auto sharded = ShardedRatingSystem::load(in, pipeline_config(),
                                           make_options(3));
  ASSERT_EQ(sharded->shards(), 3u);
  // Both continue through the second half; the resumed sharded system must
  // shadow the uninterrupted plain stream exactly.
  for (std::size_t i = cut; i < stream.size(); ++i) {
    plain.submit(stream[i]);
    sharded->submit(stream[i]);
  }
  plain.flush();
  sharded->flush();
  EXPECT_EQ(v3_bytes(*sharded), v3_bytes(plain));
  EXPECT_EQ(sharded->ingest_stats(), plain.ingest_stats());
}

TEST(ShardedCheckpoint, V4ResumesAtDifferentShardCount) {
  const RatingSeries stream = mixed_stream();
  const std::size_t cut = stream.size() / 3;
  core::StreamingRatingSystem plain(pipeline_config(), 10.0, 2,
                                    mixed_ingest());
  ShardedRatingSystem first(pipeline_config(), make_options(2), 10.0, 2,
                            mixed_ingest());
  for (std::size_t i = 0; i < cut; ++i) {
    plain.submit(stream[i]);
    first.submit(stream[i]);
  }
  std::istringstream in(v4_bytes(first));
  auto resumed = ShardedRatingSystem::load(
      in, pipeline_config(), make_options(5, true));
  ASSERT_EQ(resumed->shards(), 5u);
  for (std::size_t i = cut; i < stream.size(); ++i) {
    plain.submit(stream[i]);
    resumed->submit(stream[i]);
  }
  plain.flush();
  resumed->flush();
  EXPECT_EQ(v3_bytes(*resumed), v3_bytes(plain));
}

TEST(ShardedCheckpoint, V4LoadsIntoPlainStream) {
  const RatingSeries stream = mixed_stream();
  core::StreamingRatingSystem plain(pipeline_config(), 10.0, 2,
                                    mixed_ingest());
  ShardedRatingSystem sharded(pipeline_config(), make_options(4), 10.0, 2,
                              mixed_ingest());
  for (const Rating& r : stream) {
    plain.submit(r);
    sharded.submit(r);
  }
  std::istringstream in(v4_bytes(sharded));
  const auto loaded = core::load_checkpoint(in, pipeline_config());
  EXPECT_EQ(v3_bytes(loaded), v3_bytes(plain));
}

TEST(ShardedCheckpoint, SkippedCellCountersAreLayoutScoped) {
  ShardOptions options;
  options.shards = 2;
  options.shard_fn = [](ProductId p, std::size_t n) {
    return static_cast<std::size_t>(p) % n;
  };
  ShardedRatingSystem sharded(pipeline_config(), options, 10.0, 2, {});
  sharded.submit({1.0, 0.5, 2, 1, RatingLabel::kHonest});
  sharded.submit({12.0, 0.6, 2, 1, RatingLabel::kHonest});
  sharded.submit({22.0, 0.4, 2, 1, RatingLabel::kHonest});
  const std::vector<std::size_t> expected{2u, 0u};
  ASSERT_EQ(sharded.shard_skipped_cells(), expected);

  const std::string bytes = v4_bytes(sharded);
  {
    // Same shard count: the diagnostic counters survive the round trip.
    std::istringstream in(bytes);
    auto same = ShardedRatingSystem::load(in, pipeline_config(), options);
    EXPECT_EQ(same->shard_skipped_cells(), expected);
  }
  {
    // Different shard count: cells are a property of the old layout and
    // reset to zero rather than restoring somewhere meaningless.
    std::istringstream in(bytes);
    auto moved = ShardedRatingSystem::load(in, pipeline_config(),
                                           make_options(3));
    const std::vector<std::size_t> zeros{0u, 0u, 0u};
    EXPECT_EQ(moved->shard_skipped_cells(), zeros);
  }
}

// ---------------------------------------------------------------------------
// Sharded durable front-end.

/// Sorted two-product stream for the durable tests: the placement function
/// p % shards makes which shard owns each global ordinal predictable, so
/// the torn-tail test can aim at a specific record.
RatingSeries alternating_stream(int count) {
  RatingSeries s;
  for (int i = 0; i < count; ++i) {
    s.push_back({1.0 + i, (i % 10) * 0.1, static_cast<RaterId>(1 + i % 5),
                 static_cast<ProductId>(1 + i % 2), RatingLabel::kHonest});
  }
  return s;
}

std::size_t count_checkpoints(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    n += entry.path().filename().string().rfind("ckpt-", 0) == 0 ? 1 : 0;
  }
  return n;
}

TEST(ShardedDurable, CleanReopenReplaysTailBitExact) {
  const fs::path dir = test_dir("clean-reopen");
  const RatingSeries stream = mixed_stream();
  ShardedDurableOptions durable_options;
  durable_options.segment_bytes = 512;
  durable_options.keep_checkpoints = 2;
  std::uint64_t last_seq = 0;
  {
    ShardedDurableStream durable(dir, pipeline_config(), make_options(2), 10.0,
                                 2, mixed_ingest(), durable_options);
    EXPECT_FALSE(durable.recovery().recovered);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      durable.submit(stream[i]);
      if (i == 60 || i == 120 || i == 180) last_seq = durable.checkpoint();
    }
    EXPECT_EQ(durable.acknowledged(), stream.size());
  }
  // Three checkpoints taken, two kept.
  EXPECT_EQ(count_checkpoints(dir), 2u);
  EXPECT_EQ(last_seq, 181u);

  ShardedDurableStream reopened(dir, pipeline_config(), make_options(2), 10.0,
                                2, mixed_ingest(), durable_options);
  EXPECT_TRUE(reopened.recovery().recovered);
  EXPECT_TRUE(reopened.recovery().loaded_checkpoint);
  EXPECT_EQ(reopened.recovery().checkpoint_seq, last_seq);
  EXPECT_EQ(reopened.recovery().replayed_ratings, stream.size() - last_seq);
  EXPECT_EQ(reopened.recovery().torn_shards, 0u);
  EXPECT_EQ(reopened.recovery().discarded_records, 0u);
  EXPECT_FALSE(reopened.recovery().wal_reset);
  EXPECT_EQ(reopened.acknowledged(), stream.size());

  ShardedRatingSystem reference(pipeline_config(), make_options(2), 10.0, 2,
                                mixed_ingest());
  for (const Rating& r : stream) reference.submit(r);
  EXPECT_EQ(v4_bytes(reopened.system()), v4_bytes(reference));
}

TEST(ShardedDurable, TornShardWalDiscardsCrossShardSuffixAndResets) {
  const fs::path dir = test_dir("torn-shard");
  const RatingSeries stream = alternating_stream(60);
  {
    ShardedDurableStream durable(dir, pipeline_config(), modulo_layout(2));
    for (const Rating& r : stream) durable.submit(r);
  }
  // Global ordinal 58 is product 1 -> shard 1; ordinal 59 is product 2 ->
  // shard 0. Tearing shard 1's tail (a partial final frame) loses ordinal
  // 58; ordinal 59 survives on shard 0 but sits past the hole.
  const auto segments =
      core::durable::wal_segments(ShardedDurableStream::shard_dir(dir, 1));
  ASSERT_FALSE(segments.empty());
  const fs::path tail = segments.back().path;
  ASSERT_GT(fs::file_size(tail), 5u);
  fs::resize_file(tail, fs::file_size(tail) - 5);

  ShardedRatingSystem reference(pipeline_config(), modulo_layout(2));
  for (std::size_t i = 0; i < 58; ++i) reference.submit(stream[i]);
  const std::string expected = v4_bytes(reference);

  {
    ShardedDurableStream recovered(dir, pipeline_config(), modulo_layout(2));
    EXPECT_TRUE(recovered.recovery().recovered);
    EXPECT_FALSE(recovered.recovery().loaded_checkpoint);
    EXPECT_EQ(recovered.recovery().torn_shards, 1u);
    EXPECT_EQ(recovered.recovery().replayed_ratings, 58u);
    // The stream cannot skip an acknowledged submission: ordinal 59 is
    // unreplayable past the hole at 58 and is discarded...
    EXPECT_EQ(recovered.recovery().discarded_records, 1u);
    // ...which forces a fresh checkpoint + WAL reset so the orphaned frame
    // can never resurface.
    EXPECT_TRUE(recovered.recovery().wal_reset);
    EXPECT_EQ(recovered.acknowledged(), 58u);
    EXPECT_EQ(v4_bytes(recovered.system()), expected);
  }

  // The reset converged: a third open finds the post-reset checkpoint,
  // replays nothing, and loses nothing more.
  ShardedDurableStream third(dir, pipeline_config(), modulo_layout(2));
  EXPECT_TRUE(third.recovery().loaded_checkpoint);
  EXPECT_EQ(third.recovery().replayed_records, 0u);
  EXPECT_EQ(third.recovery().torn_shards, 0u);
  EXPECT_EQ(third.recovery().discarded_records, 0u);
  EXPECT_FALSE(third.recovery().wal_reset);
  EXPECT_EQ(v4_bytes(third.system()), expected);
}

TEST(ShardedDurable, OnDiskLayoutChangeRepartitionsAndResets) {
  const fs::path dir = test_dir("layout-change");
  const RatingSeries stream = alternating_stream(80);
  {
    ShardedDurableStream durable(dir, pipeline_config(), modulo_layout(2));
    for (const Rating& r : stream) durable.submit(r);
    durable.checkpoint();
  }
  // Reopen at 3 shards: recovery reassembles the global order, replays it
  // into the new layout, then re-checkpoints and resets the WALs (the old
  // shard-count logs are unusable under the new layout).
  ShardedDurableStream moved(dir, pipeline_config(), modulo_layout(3));
  EXPECT_TRUE(moved.recovery().recovered);
  EXPECT_TRUE(moved.recovery().loaded_checkpoint);
  EXPECT_EQ(moved.recovery().discarded_records, 0u);
  EXPECT_TRUE(moved.recovery().wal_reset);
  EXPECT_EQ(moved.acknowledged(), stream.size());
  EXPECT_EQ(moved.system().shards(), 3u);

  // Semantically bit-exact: compare the layout-collapsed v3 rendering —
  // per-shard skipped-cell counters are diagnostics of the OLD layout and
  // deliberately reset to zero across the reshard, so the v4 `layout`
  // section legitimately differs from an uninterrupted 3-shard run's.
  ShardedRatingSystem reference(pipeline_config(), modulo_layout(3));
  for (const Rating& r : stream) reference.submit(r);
  EXPECT_EQ(v3_bytes(moved.system()), v3_bytes(reference));
  const std::vector<std::size_t> zeros{0u, 0u, 0u};
  EXPECT_EQ(moved.system().shard_skipped_cells(), zeros);
}

}  // namespace
}  // namespace trustrate
