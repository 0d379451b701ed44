// The repository benchmark program.
//
//   perfbench --workload <serve_mixed|durable_ckpt>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--corrupt-reference]
//
// Generates the workload's inputs from the seed, computes the reference
// outcome (an inline single-shard run of the clean stream), then replays the
// stream through the public front end in repeated closed-loop passes until
// --seconds have been measured. The reference and each untraced pass run in
// forked children (child.hpp). Every pass must
// reproduce the reference (trust digest, ingest counters, malicious count);
// a mismatch counts the pass's operations as failed and the command exits 1.
// --corrupt-reference flips one bit of the reference digest, so the self-test
// can show that every pass is then rejected.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — end-to-end metrics untraced (--trace 0), per-layer
// metrics from a separate traced run (--trace 1). Diagnostics go to stderr.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "child.hpp"
#include "gate.hpp"
#include "generator.hpp"
#include "passes.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using trustrate::core::shard::ShardedRatingSystem;

struct Workload {
  std::string name;
  StreamShape shape;
  Perturbation perturbation;
  PassSetup setup;
  bool durable = false;
  /// Durable: share of arrivals covered by the seeded checkpoint, and the
  /// share reached by the seeded WAL tail; the pass ingests the rest.
  double checkpoint_share = 0.0;
  double tail_share = 0.0;
};

PassSetup base_setup() {
  PassSetup s;
  // Paper defaults; one epoch-engine worker so the threaded layout is
  // exactly submitter + 2 shard workers + merger = 4 threads (no nested
  // epoch-engine pools).
  s.config.epoch_workers = 1;
  s.layout.shards = 2;
  s.layout.threaded = true;
  s.layout.epoch_workers = 1;
  return s;
}

/// The §IV marketplace at scale. 120 epochs give >= 100 epoch closes per
/// pass (trust-lag p90 keeps >= 10 samples beyond it in one pass). 34
/// products launched per epoch, each rated for 6 epochs, keep ~200 products
/// active with ~100 ratings per product-epoch (~33 per 10-day AR window,
/// enough for the order-4 fit); launches never stop, so retained state grows
/// with epochs seen the way a real catalogue does (each product keeps its
/// last 2 epochs, about a third of its ratings). 1 product in 5 is
/// dishonest (paper: 4 honest + 1 dishonest per month) with 20-40 recruits.
/// 40k raters (reliable:careless:PC = 2:1:1, as the paper's 400:200:200)
/// make trust state tens of thousands of records. ~2.4M ratings take about
/// three seconds per serve_mixed pass on a 4-vCPU x86 VM, so a 50-second
/// run holds about 15 passes to take medians over.
StreamShape marketplace_shape() {
  StreamShape s;
  s.epochs = 120;
  s.products_per_epoch = 34;
  s.lifetime_epochs = 6;
  s.dishonest_every = 5;
  s.reliable_raters = 20000;
  s.careless_raters = 10000;
  s.pc_raters = 10000;
  s.ratings_lo = 80;
  s.ratings_hi = 120;
  s.recruits_lo = 20;
  s.recruits_hi = 40;
  return s;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.setup = base_setup();
  if (name == "serve_mixed") {
    // The marketplace stream perturbed like testkit::make_arrivals: a 1-day
    // lateness bound (about 800 ratings in the reorder buffer and dedup
    // horizon at this density), 3% of ratings displaced by up to 32
    // arrivals within the bound, 2% exact client retries, 0.5% stale and
    // 0.5% malformed junk. One trust()/aggregate() read per 1,000 submits
    // (each quiesces the threaded pipeline) and one scrape (Prometheus
    // render + probe()) per 10,000 submits with a MetricsRegistry attached.
    w.shape = marketplace_shape();
    w.perturbation.lateness_days = 1.0;
    w.perturbation.move_share = 0.03;
    w.perturbation.max_move_span = 32;
    w.perturbation.retry_share = 0.02;
    w.perturbation.stale_share = 0.005;
    w.perturbation.malformed_share = 0.005;
    w.setup.ingest.max_lateness_days = 1.0;
    w.setup.query_every = 1000;
    w.setup.scrape_every = 10000;
  } else if (name == "durable_ckpt") {
    // ShardedDurableStream, default FsyncPolicy::kEpoch. Durable ingest is
    // an order of magnitude slower than in-memory, so the catalogue is 8x
    // smaller (4 launches per epoch, 8k raters) over twice the epochs
    // (240, ~580k ratings). Each pass reopens a directory seeded with a
    // checkpoint at 50% of the stream plus a WAL tail to 55% (setup_s is
    // cold recovery from ~290k ratings of state), ingests the remaining
    // ~108 epochs (>= 100 trust-lag samples per pass) with a checkpoint
    // every 20,000 submissions (about 13 per pass), and flushes. One read
    // per 250 submits gives ~1,000 reads per pass, >= 10 beyond the p99,
    // and about one read in ten waits for an epoch close (~2,400 ratings
    // per epoch). 1,024 untimed reads after flush() check that every
    // product and rater reads back a value.
    w.shape = marketplace_shape();
    w.shape.epochs = 240;
    w.shape.products_per_epoch = 4;
    w.shape.reliable_raters = 4000;
    w.shape.careless_raters = 2000;
    w.shape.pc_raters = 2000;
    w.durable = true;
    w.checkpoint_share = 0.50;
    w.tail_share = 0.55;
    w.setup.checkpoint_every = 20000;
    w.setup.query_every = 250;
    w.setup.post_queries = 1024;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// Epochs of the stream prefix the traced run replays through the durable
/// front end on in-memory workloads.
constexpr std::size_t kDurablePrefixEpochs = 10;
/// Minimum trust-lag samples per run.
constexpr std::size_t kMinLagSamples = 100;

struct Metrics {
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

struct Run {
  const Workload& w;
  const GeneratedStream& stream;
  Outcome expected;
  fs::path workdir;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  /// Counts a pass's operations and gates its outcome.
  void account(const PassResult& r, const Outcome& want, const char* what) {
    std::vector<std::string> errors = r.errors;
    for (const std::string& e : check_outcome(want, r.outcome)) errors.push_back(e);
    attempted += r.attempted;
    if (errors.empty() && r.failed == 0) return;
    correct = false;
    failed += errors.empty() ? r.failed : r.attempted;
    for (const std::string& e : errors) std::cerr << "perfbench: " << what << ": " << e << "\n";
  }
};

std::size_t durable_index(const GeneratedStream& s, double share) {
  return static_cast<std::size_t>(share * static_cast<double>(s.arrivals.size()));
}

Metrics run_untraced(Run& run, double seconds) {
  const Workload& w = run.w;
  const GeneratedStream& stream = run.stream;
  // Per-pass percentiles; the run reports their median over passes, so
  // one pass caught in a host stall cannot move the result.
  std::vector<double> setups, rps, rss, lag_p50, lag_p90, query_p99, checkpoint_p50;
  std::size_t lag_samples = 0, query_samples = 0, checkpoint_samples = 0;
  const Clock::time_point begin = Clock::now();

  fs::path seed_dir = run.workdir / "seed";
  const std::size_t tail_end = durable_index(stream, w.tail_share);
  if (w.durable) {
    seed_durable_dir(w.setup, stream, durable_index(stream, w.checkpoint_share),
                     tail_end, seed_dir);
  }

  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (std::size_t pass = 0;
       rps.empty() || lag_samples < kMinLagSamples || Clock::now() < deadline; ++pass) {
    // Each pass runs in a child process: a fresh heap, and a peak RSS of
    // its own.
    const ChildResult child = run_in_child([&] {
      return encode(w.durable ? durable_pass(w.setup, stream, tail_end, stream.arrivals.size(),
                                             seed_dir, run.workdir / "pass", false)
                              : memory_pass(w.setup, stream, false));
    });
    const PassResult r = decode(child.bytes);
    run.account(r, run.expected, "pass");
    rss.push_back(child.peak_rss_mb);
    setups.push_back(r.setup_s);
    rps.push_back(static_cast<double>(r.submitted) / r.ingest_s);
    lag_p50.push_back(quantile(r.lag_ms, 0.5));
    lag_p90.push_back(quantile(r.lag_ms, 0.9));
    lag_samples += r.lag_ms.size();
    query_p99.push_back(quantile(r.query_us, 0.99));
    query_samples += r.query_us.size();
    checkpoint_p50.push_back(median(r.checkpoint_ms));
    checkpoint_samples += r.checkpoint_ms.size();
    std::cerr << "perfbench: pass " << pass + 1 << ": " << rps.back()
              << " ratings/s, trust lag p50 " << lag_p50.back() << " ms, p90 "
              << lag_p90.back() << " ms, query p50 " << quantile(r.query_us, 0.5) << " us, p99 "
              << query_p99.back() << " us, checkpoint " << checkpoint_p50.back()
              << " ms, setup " << r.setup_s << " s\n";
    if (seconds_between(begin, Clock::now()) > 2 * seconds) break;
  }
  if (w.durable) fs::remove_all(seed_dir);
  std::cerr << "perfbench: " << w.name << ": " << rps.size() << " passes, "
            << lag_samples << " lag samples, " << query_samples << " queries, "
            << checkpoint_samples << " checkpoints\n";

  Metrics m;
  m.set("ingest_rps", median(rps), "ratings/s");
  m.set("trust_lag_p50_ms", median(lag_p50), "ms");
  m.set("trust_lag_p90_ms", median(lag_p90), "ms");
  m.set("query_p99_us", median(query_p99), "us");
  m.set("checkpoint_p50_ms", median(checkpoint_p50), "ms");
  m.set("setup_s", median(setups), "s");
  m.set("peak_rss_mb", median(rss), "MB");
  return m;
}

/// Gathers the layer numbers of a run's traced passes.
struct TracedPasses {
  std::vector<double> submit_ns, flush_ms, quiesce_us, read_us, scrape_us;
  std::vector<double> save_ms, load_ms, route_skew, inbox_stalls, outbox_stalls;
  std::vector<double> recovery_s, durable_flush_ms;
  std::uint64_t series = 0, merge_lag_max = 0, inbox_high_water = 0;
  std::uint64_t checkpoint_bytes = 0, replayed = 0, wal_records = 0;
  std::uint64_t wal_segments = 0, wal_bytes = 0;

  void add_shard(const PassResult& r) {
    const PassTrace& t = r.trace;
    submit_ns.insert(submit_ns.end(), t.submit_ns.begin(), t.submit_ns.end());
    flush_ms.push_back(t.flush_ms);
    merge_lag_max = std::max(merge_lag_max, t.merge_lag_max);
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0, in_stalls = 0, out_stalls = 0;
    for (const auto& s : t.probe.shards) {
      lo = std::min(lo, s.events_pushed);
      hi = std::max(hi, s.events_pushed);
      inbox_high_water = std::max(inbox_high_water, s.inbox.high_water);
      in_stalls += s.inbox.stalls;
      out_stalls += s.outbox.stalls;
    }
    route_skew.push_back(lo == 0 ? 1.0 : static_cast<double>(hi) / static_cast<double>(lo));
    inbox_stalls.push_back(static_cast<double>(in_stalls));
    outbox_stalls.push_back(static_cast<double>(out_stalls));
  }
  void add_reads(const PassResult& r) {
    const PassTrace& t = r.trace;
    quiesce_us.insert(quiesce_us.end(), t.quiesce_us.begin(), t.quiesce_us.end());
    read_us.insert(read_us.end(), t.read_us.begin(), t.read_us.end());
    scrape_us.insert(scrape_us.end(), t.scrape_us.begin(), t.scrape_us.end());
    series = std::max(series, t.series);
    save_ms.insert(save_ms.end(), t.save_ms.begin(), t.save_ms.end());
    load_ms.push_back(t.load_ms);
    checkpoint_bytes = std::max(checkpoint_bytes, t.checkpoint_bytes);
  }
  void add_durable(const PassResult& r) {
    const PassTrace& t = r.trace;
    submit_ns.insert(submit_ns.end(), t.submit_ns.begin(), t.submit_ns.end());
    durable_flush_ms.push_back(t.flush_ms);
    recovery_s.push_back(t.recovery_s);
    replayed = t.replayed_records;
    wal_records = t.durability.wal_records;
    wal_segments = t.durability.wal_segments;
    wal_bytes = t.wal_bytes;
  }
};

Metrics run_traced(Run& run, double seconds) {
  const Workload& w = run.w;
  const GeneratedStream& stream = run.stream;
  const Clock::time_point begin = Clock::now();
  Metrics m;

  // Paired untraced / traced passes of the workload itself, for half the
  // budget: the traced ones give the layers the workload drives, the pairs
  // give the tracing overhead.
  TracedPasses shard, durable;
  TracedPasses& front = w.durable ? durable : shard;
  std::vector<double> plain_rps, traced_rps;
  const fs::path seed_dir = run.workdir / "seed";
  const std::size_t tail_end = durable_index(stream, w.tail_share);
  if (w.durable) {
    seed_durable_dir(w.setup, stream, durable_index(stream, w.checkpoint_share),
                     tail_end, seed_dir);
  }
  const auto pass = [&](bool traced) {
    PassSetup setup = w.setup;
    setup.save_after_flush = traced;  // the overhead pairs compare ingest only
    return w.durable ? durable_pass(setup, stream, tail_end, stream.arrivals.size(),
                                    seed_dir, run.workdir / "pass", traced)
                     : memory_pass(setup, stream, traced);
  };
  while (traced_rps.empty() || seconds_between(begin, Clock::now()) < seconds / 2) {
    const PassResult plain = pass(false);
    run.account(plain, run.expected, "untraced pass");
    plain_rps.push_back(static_cast<double>(plain.submitted) / plain.ingest_s);
    const PassResult traced = pass(true);
    run.account(traced, run.expected, "traced pass");
    traced_rps.push_back(static_cast<double>(traced.submitted) / traced.ingest_s);
    if (w.durable) {
      durable.add_durable(traced);
    } else {
      shard.add_shard(traced);
    }
    front.add_reads(traced);
  }
  if (w.durable) fs::remove_all(seed_dir);

  // Layers the workload's own pass does not call, driven on its inputs:
  // the in-memory threaded engine (durable_ckpt), or the durable front end
  // over a prefix of the stream (in-memory workloads).
  if (w.durable) {
    const PassResult r = memory_pass(w.setup, stream, true);
    run.account(r, run.expected, "shard pass");
    shard.add_shard(r);
  } else {
    GeneratedStream prefix;
    const std::size_t cut = stream.close_arrival.at(kDurablePrefixEpochs);
    prefix.arrivals.assign(stream.arrivals.begin(), stream.arrivals.begin() + cut);
    prefix.close_arrival.assign(stream.close_arrival.begin(),
                                stream.close_arrival.begin() + kDurablePrefixEpochs);
    PassSetup inline_setup = w.setup;
    inline_setup.layout.shards = 1;
    inline_setup.layout.threaded = false;
    inline_setup.save_after_flush = false;
    const Outcome want = memory_pass(inline_setup, prefix, false).outcome;
    const fs::path prefix_seed = run.workdir / "prefix-seed";
    seed_durable_dir(w.setup, prefix, cut * 4 / 10, cut / 2, prefix_seed);
    const PassResult r = durable_pass(w.setup, prefix, cut / 2, cut, prefix_seed,
                                      run.workdir / "prefix-pass", true);
    fs::remove_all(prefix_seed);
    run.account(r, want, "durable prefix pass");
    durable.add_durable(r);
  }

  // Stage replay: the same job through ingest -> parallel -> system, which
  // must reproduce the pipeline's outcome.
  const StageReplay st = stage_replay(w.setup, stream);
  {
    Outcome got;
    got.trust_digest = st.trust_digest;
    got.raters = st.raters;
    got.malicious = st.malicious;
    got.stats = st.ingest_stats;
    PassResult r;
    r.attempted = 1;
    r.outcome = got;
    run.account(r, run.expected, "stage replay");
  }

  // Single-thread baseline of the same job: inline, one shard.
  PassSetup inline_setup = w.setup;
  inline_setup.layout.shards = 1;
  inline_setup.layout.threaded = false;
  inline_setup.save_after_flush = false;
  const PassResult baseline = memory_pass(inline_setup, stream, false);
  run.account(baseline, run.expected, "inline baseline");
  const double inline_rps = static_cast<double>(baseline.submitted) / baseline.ingest_s;

  m.set("ingest.busy_s", st.ingest_busy_s, "s");
  m.set("ingest.submit_ns_p50", quantile(st.ingest_submit_ns, 0.5), "ns");
  m.set("ingest.submit_ns_p99", quantile(st.ingest_submit_ns, 0.99), "ns");
  m.set("ingest.reordered", static_cast<double>(st.ingest_stats.reordered), "count");
  m.set("ingest.duplicates", static_cast<double>(st.ingest_stats.duplicates), "count");
  m.set("ingest.late", static_cast<double>(st.ingest_stats.dropped_late), "count");
  m.set("ingest.malformed", static_cast<double>(st.ingest_stats.malformed), "count");
  m.set("ingest.buffered_max", static_cast<double>(st.buffered_max), "count");

  m.set("shard.submit_ns_p50", quantile(shard.submit_ns, 0.5), "ns");
  m.set("shard.submit_ns_p99", quantile(shard.submit_ns, 0.99), "ns");
  m.set("shard.flush_ms", median(shard.flush_ms), "ms");
  m.set("shard.inbox_high_water", static_cast<double>(shard.inbox_high_water), "count");
  m.set("shard.inbox_stalls", median(shard.inbox_stalls), "count");
  m.set("shard.outbox_stalls", median(shard.outbox_stalls), "count");
  m.set("shard.merge_lag_max", static_cast<double>(shard.merge_lag_max), "count");
  m.set("shard.route_skew", median(shard.route_skew), "1");
  m.set("shard.inline_rps", inline_rps, "ratings/s");

  m.set("parallel.busy_s", st.parallel_busy_s, "s");
  m.set("parallel.epoch_ms_p50", quantile(st.epoch_ms, 0.5), "ms");
  m.set("parallel.epoch_ms_p90", quantile(st.epoch_ms, 0.9), "ms");
  m.set("parallel.products", static_cast<double>(st.products), "count");
  m.set("parallel.ratings", static_cast<double>(st.ratings), "count");
  m.set("parallel.degraded_products", static_cast<double>(st.degraded), "count");
  m.set("parallel.flagged_ratings", static_cast<double>(st.flagged), "count");

  m.set("system.busy_s", st.system_busy_s, "s");
  m.set("system.merge_ms_p50", quantile(st.merge_ms, 0.5), "ms");
  m.set("system.merge_ms_p90", quantile(st.merge_ms, 0.9), "ms");
  m.set("system.raters", static_cast<double>(st.raters), "count");

  m.set("query.quiesce_us_p50", quantile(front.quiesce_us, 0.5), "us");
  m.set("query.quiesce_us_p99", quantile(front.quiesce_us, 0.99), "us");
  m.set("query.read_us_p50", quantile(front.read_us, 0.5), "us");
  m.set("query.read_us_p99", quantile(front.read_us, 0.99), "us");
  m.set("query.count", static_cast<double>(front.read_us.size()), "count");

  m.set("obs.scrape_us_p50", quantile(front.scrape_us, 0.5), "us");
  m.set("obs.scrape_us_p99", quantile(front.scrape_us, 0.99), "us");
  m.set("obs.series", static_cast<double>(front.series), "count");

  m.set("durable.submit_us_p50", quantile(durable.submit_ns, 0.5) / 1e3, "us");
  m.set("durable.submit_us_p99", quantile(durable.submit_ns, 0.99) / 1e3, "us");
  m.set("durable.flush_ms", median(durable.durable_flush_ms), "ms");
  m.set("durable.recovery_s", median(durable.recovery_s), "s");
  m.set("durable.replayed_records", static_cast<double>(durable.replayed), "count");
  m.set("durable.wal_records", static_cast<double>(durable.wal_records), "count");
  m.set("durable.wal_segments", static_cast<double>(durable.wal_segments), "count");
  m.set("durable.wal_bytes", static_cast<double>(durable.wal_bytes), "bytes");

  m.set("checkpoint.write_ms_p50", median(front.save_ms), "ms");
  m.set("checkpoint.load_ms", median(front.load_ms), "ms");
  m.set("checkpoint.bytes_max", static_cast<double>(front.checkpoint_bytes), "bytes");

  const double accounted = st.ingest_busy_s + st.parallel_busy_s + st.system_busy_s;
  m.set("trace.accounted_share", accounted / baseline.ingest_s, "1");
  m.set("trace.overhead", median(traced_rps) / median(plain_rps), "1");
  std::cerr << "perfbench: inline baseline " << baseline.ingest_s
            << " s; ingest " << st.ingest_busy_s << " s + parallel "
            << st.parallel_busy_s << " s + system " << st.system_busy_s
            << " s accounted; unaccounted " << baseline.ingest_s - accounted
            << " s, of which cell assembly (grid walk, per-product pending maps) "
               "measured "
            << st.assemble_s << " s in the stage replay; the rest is shard "
               "routing and retention bookkeeping inside ShardedRatingSystem\n";
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  fs::path workdir = ".bench_build/work";
  bool corrupt_reference = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return a;
}

int run_main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload w = make_workload(args.workload);

  const Clock::time_point g0 = Clock::now();
  const GeneratedStream stream = generate(w.shape, w.perturbation, args.seed);
  std::cerr << "perfbench: " << w.name << " seed " << args.seed << ": "
            << stream.clean.size() << " ratings, " << stream.arrivals.size()
            << " arrivals, " << stream.close_arrival.size() + 1 << " epochs, generated in "
            << seconds_between(g0, Clock::now()) << " s\n";

  // Reference: inline, one shard, the clean stream, lateness 0.
  PassSetup ref_setup = w.setup;
  ref_setup.layout.shards = 1;
  ref_setup.layout.threaded = false;
  ref_setup.ingest = {};
  const ChildResult ref_child = run_in_child([&] {
    ShardedRatingSystem system(ref_setup.config, ref_setup.layout, ref_setup.epoch_days,
                               ref_setup.retention_epochs, ref_setup.ingest);
    for (const auto& r : stream.clean) system.submit(r);
    system.flush();
    const Outcome out = outcome_of(system);
    return std::string(reinterpret_cast<const char*>(&out), sizeof out);
  });
  Outcome ref;
  if (ref_child.bytes.size() != sizeof ref) throw std::runtime_error("reference run failed");
  std::memcpy(&ref, ref_child.bytes.data(), sizeof ref);

  Run run{w, stream, ref, args.workdir};
  run.expected.stats = stream.expected_stats;
  if (args.corrupt_reference) run.expected.trust_digest ^= 1;
  trustrate::core::IngestStats clean_stats;
  clean_stats.submitted = clean_stats.accepted = stream.clean.size();
  if (ref.stats != clean_stats) {
    std::cerr << "perfbench: reference run did not accept the clean stream as-is\n";
    run.correct = false;
  }
  fs::create_directories(args.workdir);

  Metrics m = args.trace == 0 ? run_untraced(run, args.seconds)
                              : run_traced(run, args.seconds);
  if (args.trace == 1) {
    // Failures are reported in the top-level fields as well.
    m.set(
        "fail_ratio",
        run.attempted == 0 ? 0.0
                           : static_cast<double>(run.failed) / static_cast<double>(run.attempted),
        "1");
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (run.correct ? "true" : "false")
       << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m.values) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << v.value
         << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
