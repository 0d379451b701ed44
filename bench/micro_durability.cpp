// Micro-benchmarks: what durability costs. The in-memory streaming
// front-end is the baseline; the durable front-end (WAL append per rating,
// fsync per the policy, atomic checkpoints) is measured against it at each
// FsyncPolicy so the per-rating WAL overhead is directly readable from the
// items/s column:
//
//   none    append only — the OS flushes when it pleases
//   epoch   fsync at epoch closes and flushes (the default)
//   always  fsync after every record (group-commit territory)
//
// Plus the two recovery-path costs an operator plans around: writing an
// atomic checkpoint, and cold recovery (checkpoint restore + WAL replay);
// the checkpoint codec alone (render and parse at ~200k retained ratings,
// the size a marketplace checkpoint carries); and CRC32C on the table
// reference vs the dispatched backend (SSE4.2 where cpuid reports it).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <filesystem>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/durable/crc32c.hpp"
#include "core/durable/durable_stream.hpp"
#include "core/streaming.hpp"

using namespace trustrate;

namespace {

namespace fs = std::filesystem;

core::SystemConfig bench_config() {
  core::SystemConfig config;
  config.filter.q = 0.02;
  config.ar.window_days = 8.0;
  config.ar.step_days = 2.0;
  config.b = 10.0;
  return config;
}

/// ~90 days of a single product's stream: enough to close two epochs and
/// rotate past the first WAL segment boundary under small segment_bytes.
RatingSeries bench_stream(std::size_t ratings) {
  Rng rng(29);
  RatingSeries out;
  out.reserve(ratings);
  const double span_days = 90.0;
  for (std::size_t i = 0; i < ratings; ++i) {
    out.push_back({span_days * static_cast<double>(i) /
                       static_cast<double>(ratings),
                   quantize_unit(clamp_unit(rng.gaussian(0.55, 0.25)), 10,
                                 false),
                   static_cast<RaterId>(rng.uniform_int(0, 300)), 1,
                   RatingLabel::kHonest});
  }
  return out;
}

fs::path bench_dir(const char* name) {
  return fs::temp_directory_path() /
         (std::string("trustrate-micro-durability-") + name);
}

void BM_SubmitInMemory(benchmark::State& state) {
  const auto arrivals = bench_stream(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::StreamingRatingSystem stream(bench_config(), /*epoch_days=*/30.0,
                                       /*retention_epochs=*/2);
    for (const auto& r : arrivals) {
      benchmark::DoNotOptimize(stream.submit(r));
    }
  }
  state.SetItemsProcessed(state.iterations() * arrivals.size());
}
BENCHMARK(BM_SubmitInMemory)->Arg(512);

void BM_SubmitDurable(benchmark::State& state) {
  const auto arrivals = bench_stream(static_cast<std::size_t>(state.range(0)));
  const auto policy = static_cast<core::durable::FsyncPolicy>(state.range(1));
  core::durable::DurableOptions options;
  options.fsync = policy;
  const fs::path dir = bench_dir(core::durable::to_string(policy));
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);  // each iteration starts from an empty directory
    state.ResumeTiming();
    core::durable::DurableStream durable(dir, bench_config(),
                                         /*epoch_days=*/30.0,
                                         /*retention_epochs=*/2, {}, options);
    for (const auto& r : arrivals) {
      benchmark::DoNotOptimize(durable.submit(r));
    }
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * arrivals.size());
  state.SetLabel(std::string("fsync=") + core::durable::to_string(policy));
}
BENCHMARK(BM_SubmitDurable)
    ->Args({512, static_cast<int>(core::durable::FsyncPolicy::kNone)})
    ->Args({512, static_cast<int>(core::durable::FsyncPolicy::kEpoch)})
    ->Args({512, static_cast<int>(core::durable::FsyncPolicy::kAlways)});

/// The fault layer's hot-path cost when nothing is failing: a FaultInjector
/// with an exhausted (empty) plan attached, so every durable write/fsync
/// runs the injector gate and the retry-loop bookkeeping but no fault ever
/// fires. Compare against BM_SubmitDurable at the same policy: the delta is
/// what shipping the fault hooks costs a healthy deployment.
void BM_SubmitDurableFaultLayerQuiescent(benchmark::State& state) {
  const auto arrivals = bench_stream(static_cast<std::size_t>(state.range(0)));
  const auto policy = static_cast<core::durable::FsyncPolicy>(state.range(1));
  core::durable::FaultInjector quiescent;  // empty plan: never injects
  core::durable::DurableOptions options;
  options.fsync = policy;
  options.faults = &quiescent;
  const fs::path dir =
      bench_dir((std::string("quiescent-") + core::durable::to_string(policy))
                    .c_str());
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    core::durable::DurableStream durable(dir, bench_config(),
                                         /*epoch_days=*/30.0,
                                         /*retention_epochs=*/2, {}, options);
    for (const auto& r : arrivals) {
      benchmark::DoNotOptimize(durable.submit(r));
    }
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * arrivals.size());
  state.SetLabel(std::string("fsync=") + core::durable::to_string(policy) +
                 " faults=quiescent");
}
BENCHMARK(BM_SubmitDurableFaultLayerQuiescent)
    ->Args({512, static_cast<int>(core::durable::FsyncPolicy::kNone)})
    ->Args({512, static_cast<int>(core::durable::FsyncPolicy::kEpoch)})
    ->Args({512, static_cast<int>(core::durable::FsyncPolicy::kAlways)});

void BM_Checkpoint(benchmark::State& state) {
  const auto arrivals = bench_stream(static_cast<std::size_t>(state.range(0)));
  const fs::path dir = bench_dir("checkpoint");
  fs::remove_all(dir);
  core::durable::DurableStream durable(dir, bench_config(),
                                       /*epoch_days=*/30.0,
                                       /*retention_epochs=*/2);
  for (const auto& r : arrivals) durable.submit(r);
  // next_lsn is stable between checkpoints, so each iteration atomically
  // rewrites the same file: pure checkpoint write cost, no growth.
  for (auto _ : state) {
    benchmark::DoNotOptimize(durable.checkpoint());
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_Checkpoint)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_ColdRecovery(benchmark::State& state) {
  const auto arrivals = bench_stream(static_cast<std::size_t>(state.range(0)));
  const fs::path dir = bench_dir("recovery");
  fs::remove_all(dir);
  {
    // Half the stream behind a checkpoint, half live in the WAL: recovery
    // restores the checkpoint and replays the second half.
    core::durable::DurableStream durable(dir, bench_config(),
                                         /*epoch_days=*/30.0,
                                         /*retention_epochs=*/2);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (i == arrivals.size() / 2) durable.checkpoint();
      durable.submit(arrivals[i]);
    }
  }
  for (auto _ : state) {
    core::durable::DurableStream durable(dir, bench_config(),
                                         /*epoch_days=*/30.0,
                                         /*retention_epochs=*/2);
    benchmark::DoNotOptimize(durable.recovery().replayed_records);
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * arrivals.size());
}
BENCHMARK(BM_ColdRecovery)->Arg(512)->Unit(benchmark::kMicrosecond);

/// A snapshot shaped like a marketplace checkpoint: `ratings` retained
/// ratings over 2,000 products (two retained epochs each), one pending
/// epoch's worth on top at a tenth of that, and 8,000 trust records.
core::StreamSnapshot bench_snapshot(std::size_t ratings) {
  Rng rng(31);
  const auto rating = [&rng](ProductId product, double day) {
    return Rating{day + rng.uniform(0.0, 30.0),
                  quantize_unit(clamp_unit(rng.gaussian(0.55, 0.25)), 10,
                                false),
                  static_cast<RaterId>(rng.uniform_int(0, 7999)), product,
                  RatingLabel::kHonest};
  };
  constexpr std::size_t kProducts = 2000;
  core::StreamSnapshot s;
  s.anchored = true;
  s.epoch_start = 60.0;
  s.last_time = 75.5;
  for (std::size_t i = 0; i < ratings; ++i) {
    const auto product = static_cast<ProductId>(i % kProducts);
    auto& epochs = s.retained[product];
    epochs.resize(2);
    epochs[(i / kProducts) % 2].push_back(
        rating(product, 30.0 * static_cast<double>((i / kProducts) % 2)));
  }
  for (std::size_t i = 0; i < ratings / 10; ++i) {
    const auto product = static_cast<ProductId>(i % kProducts);
    s.pending[product].push_back(rating(product, 60.0));
  }
  for (RaterId id = 0; id < 8000; ++id) {
    trust::TrustRecord record;
    record.successes = rng.uniform(0.0, 200.0);
    record.failures = rng.uniform(0.0, 40.0);
    s.trust.push_back({id, record});
  }
  return s;
}

void BM_CheckpointRender(benchmark::State& state) {
  const core::StreamSnapshot snapshot =
      bench_snapshot(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text =
        core::render_checkpoint(snapshot, core::kCheckpointVersion);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointRender)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_CheckpointParse(benchmark::State& state) {
  const std::string text = core::render_checkpoint(
      bench_snapshot(static_cast<std::size_t>(state.range(0))),
      core::kCheckpointVersion);
  for (auto _ : state) {
    const core::StreamSnapshot parsed = core::parse_checkpoint(text);
    benchmark::DoNotOptimize(parsed.trust.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_CheckpointParse)->Arg(200000)->Unit(benchmark::kMillisecond);

/// Arg 0: 0 = the table reference, 1 = the dispatched crc32c(); arg 1:
/// buffer bytes. The perf-smoke CI job requires /1/ to beat /0/.
void BM_Crc32c(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  std::vector<unsigned char> bytes(static_cast<std::size_t>(state.range(1)));
  Rng rng(37);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatched ? core::durable::crc32c(bytes.data(), bytes.size())
                   : core::durable::crc32c_table(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
  state.SetLabel(dispatched ? core::durable::crc32c_backend() : "table");
}
BENCHMARK(BM_Crc32c)->Args({0, 1 << 20})->Args({1, 1 << 20});

}  // namespace

TRUSTRATE_BENCH_MAIN("micro_durability");
