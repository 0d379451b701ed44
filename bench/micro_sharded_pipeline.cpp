// Micro-benchmark: sharded pipeline throughput (DESIGN.md §14).
//
// BM_ShardedStream pushes one pre-generated, time-sorted rating stream
// through ShardedRatingSystem at several shard counts, inline (threaded=0,
// the partitioned-state baseline — bitwise the reference, zero threads)
// and threaded (threaded=1, one worker per shard plus a merge thread).
// Each iteration builds a fresh system: ingest is stateful (watermark,
// duplicate horizon), so re-streaming into a warm system would measure a
// different — and degenerate — code path. Throughput is items_per_second
// over submitted ratings.
//
// Scaling expectation: threaded 4-shard throughput > 2x threaded 1-shard
// on a >= 4-core host (the CI perf-smoke gate checks exactly that, and
// relaxes to a no-regression bound on smaller runners — on a single
// hardware thread the extra shards only add queue hops and yields).
//
// BM_IngestSubmit isolates the classifier every rating crosses first, on
// the submit thread: IngestBuffer alone (reorder buffer, duplicate
// horizon, dead letters) on a stream perturbed like perfbench's
// serve_mixed — a 1-day lateness bound, 3% of ratings displaced by up to
// 32 arrivals, 2% exact retries, 0.5% stale and 0.5% malformed junk.
//
// BM_SpscTransfer isolates the transport: one producer and one consumer
// thread moving 64-byte payloads through the bounded ring, the hot edge
// every routed rating crosses twice in threaded mode.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <thread>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/ingest.hpp"
#include "core/shard/sharded_system.hpp"
#include "core/shard/spsc_queue.hpp"

using namespace trustrate;

namespace {

core::SystemConfig bench_config() {
  core::SystemConfig cfg;
  cfg.filter.q = 0.02;
  cfg.ar.window_days = 8.0;
  cfg.ar.step_days = 2.0;
  cfg.ar.error_threshold = 0.024;
  cfg.b = 10.0;
  return cfg;
}

/// Time-sorted stream: 32 products round-robin over 120 days (4 epochs at
/// 30 days), ~24k ratings, 500 raters.
const RatingSeries& bench_stream() {
  static const RatingSeries stream = [] {
    Rng rng(17);
    RatingSeries s;
    double t = 0.0;
    for (int i = 0; i < 24000; ++i) {
      t += 0.005;
      s.push_back({t, quantize_unit(clamp_unit(rng.gaussian(0.5, 0.2)), 10,
                                    false),
                   static_cast<RaterId>(1 + rng.uniform_int(0, 500)),
                   static_cast<ProductId>(1 + i % 32), RatingLabel::kHonest});
    }
    return s;
  }();
  return stream;
}

void BM_ShardedStream(benchmark::State& state) {
  const RatingSeries& stream = bench_stream();
  core::shard::ShardOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.threaded = state.range(1) != 0;
  for (auto _ : state) {
    core::shard::ShardedRatingSystem system(bench_config(), options, 30.0, 2,
                                            {});
    for (const Rating& r : stream) system.submit(r);
    benchmark::DoNotOptimize(system.flush());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
  state.counters["shards"] = static_cast<double>(options.shards);
  state.counters["threaded"] = options.threaded ? 1.0 : 0.0;
}
BENCHMARK(BM_ShardedStream)
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({7, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// ~200k arrivals: a time-sorted stream at about 800 ratings per day (the
/// reorder buffer's serve_mixed occupancy at a 1-day bound), perturbed.
const RatingSeries& ingest_stream() {
  static const RatingSeries stream = [] {
    Rng rng(23);
    RatingSeries clean;
    double t = 0.0;
    for (int i = 0; i < 200000; ++i) {
      t += 1.0 / 800.0;
      clean.push_back({t, quantize_unit(clamp_unit(rng.gaussian(0.5, 0.2)), 10,
                                        false),
                       static_cast<RaterId>(rng.uniform_int(0, 40000)),
                       static_cast<ProductId>(rng.uniform_int(0, 200)),
                       RatingLabel::kHonest});
    }
    // Displace 3% of ratings up to 32 positions later (within the bound).
    for (std::size_t i = 0; i + 33 < clean.size(); ++i) {
      if (rng.uniform() < 0.03) {
        const std::size_t to = i + static_cast<std::size_t>(rng.uniform_int(1, 32));
        std::rotate(clean.begin() + static_cast<std::ptrdiff_t>(i),
                    clean.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    clean.begin() + static_cast<std::ptrdiff_t>(to) + 1);
      }
    }
    RatingSeries arrivals;
    arrivals.reserve(clean.size() * 103 / 100);
    for (const Rating& r : clean) {
      arrivals.push_back(r);
      const double u = rng.uniform();
      if (u < 0.02) {
        arrivals.push_back(r);  // exact client retry
      } else if (u < 0.025) {
        Rating stale = r;  // two days behind: late
        stale.time -= 2.0;
        arrivals.push_back(stale);
      } else if (u < 0.03) {
        Rating bad = r;  // malformed
        bad.value = std::numeric_limits<double>::quiet_NaN();
        arrivals.push_back(bad);
      }
    }
    return arrivals;
  }();
  return stream;
}

void BM_IngestSubmit(benchmark::State& state) {
  const RatingSeries& stream = ingest_stream();
  RatingSeries released;
  released.reserve(stream.size());
  for (auto _ : state) {
    core::IngestBuffer ingest({.max_lateness_days = 1.0});
    released.clear();
    for (const Rating& r : stream) ingest.submit(r, released);
    ingest.drain(released);
    benchmark::DoNotOptimize(released.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_IngestSubmit)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SpscTransfer(benchmark::State& state) {
  using Payload = std::array<std::uint64_t, 8>;  // one cache line, as ShardEvent-ish
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kBatch = 100000;
  for (auto _ : state) {
    core::shard::SpscQueue<Payload> q(capacity);
    std::thread consumer([&q] {
      Payload p{};
      std::uint64_t sink = 0;
      for (std::int64_t i = 0; i < kBatch; ++i) {
        q.pop(p);
        sink += p[0];
      }
      benchmark::DoNotOptimize(sink);
    });
    for (std::int64_t i = 0; i < kBatch; ++i) {
      Payload p{};
      p[0] = static_cast<std::uint64_t>(i);
      q.push(std::move(p));
    }
    consumer.join();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["capacity"] = static_cast<double>(capacity);
}
BENCHMARK(BM_SpscTransfer)->Arg(16)->Arg(4096)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SpscTransferBatch(benchmark::State& state) {
  // Same payload volume as BM_SpscTransfer, moved with try_push_n/pop_n
  // spans: one index handoff per span instead of per item, which is the
  // delta the classifier and merge paths now ride (DESIGN.md §15).
  using Payload = std::array<std::uint64_t, 8>;
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kBatch = 100000;
  constexpr std::size_t kSpan = 32;
  for (auto _ : state) {
    core::shard::SpscQueue<Payload> q(capacity);
    std::thread consumer([&q] {
      std::array<Payload, kSpan> span;
      std::uint64_t sink = 0;
      std::int64_t seen = 0;
      while (seen < kBatch) {
        const std::size_t n = q.pop_n(span.data(), kSpan);
        for (std::size_t i = 0; i < n; ++i) sink += span[i][0];
        seen += static_cast<std::int64_t>(n);
      }
      benchmark::DoNotOptimize(sink);
    });
    std::array<Payload, kSpan> out;
    std::int64_t sent = 0;
    while (sent < kBatch) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::int64_t>(kSpan, kBatch - sent));
      for (std::size_t i = 0; i < want; ++i) {
        out[i] = Payload{};
        out[i][0] = static_cast<std::uint64_t>(sent + static_cast<std::int64_t>(i));
      }
      std::size_t done = 0;
      std::size_t spins = 0;
      while (done < want) {
        const std::size_t pushed = q.try_push_n(out.data() + done, want - done);
        done += pushed;
        // Same spin-then-yield discipline as the pipeline's producer
        // (span publication): a hot retry loop would hammer the
        // consumer's index line with acquire loads and starve the drain.
        if (pushed == 0 && ++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      sent += static_cast<std::int64_t>(want);
    }
    consumer.join();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["capacity"] = static_cast<double>(capacity);
  state.counters["span"] = static_cast<double>(kSpan);
}
BENCHMARK(BM_SpscTransferBatch)->Arg(16)->Arg(4096)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

TRUSTRATE_BENCH_MAIN("micro_sharded_pipeline");
