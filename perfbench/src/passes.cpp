#include "passes.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <type_traits>
#include <unordered_map>

#include "core/durable/sharded_durable.hpp"
#include "core/parallel/epoch_engine.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "testkit/digest.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using trustrate::Rating;
using trustrate::RatingSeries;
using trustrate::core::shard::ShardedRatingSystem;
using trustrate::core::durable::ShardedDurableStream;

/// Traced passes sample probe() (and scrape, when the workload does not)
/// this often.
constexpr std::size_t kProbeEvery = 10000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return 1e6 * seconds_between(a, b);
}

/// Output sink that only counts bytes.
struct CountingBuf : std::streambuf {
  std::uint64_t bytes = 0;
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

/// Epoch-close timestamps recorded by the epoch observer (the merge thread
/// in threaded mode). Read only after flush(), which quiesces.
struct CloseClock {
  std::vector<Clock::time_point> at;
  std::size_t count = 0;
  explicit CloseClock(std::size_t capacity) : at(capacity) {}
  void tick() {
    if (count < at.size()) at[count] = Clock::now();
    ++count;
  }
};

/// The per-arrival work shared by the in-memory and durable passes: reads,
/// scrapes and probe samples at fixed submit intervals, and the epoch-close
/// clock. `Front` is ShardedRatingSystem or ShardedDurableStream.
class LoadLoop {
 public:
  LoadLoop(const PassSetup& setup, const GeneratedStream& stream, bool traced,
         PassResult& result)
      : setup_(setup), stream_(stream), traced_(traced), r_(result) {
    scrape_every_ = setup.scrape_every != 0 ? setup.scrape_every
                    : traced                ? kProbeEvery
                                            : 0;
    submit_at_.resize(stream.close_arrival.size());
    if (traced) r_.trace.submit_ns.reserve(stream.arrivals.size());
  }

  trustrate::obs::Observability observability() {
    trustrate::obs::Observability o;
    if (scrape_every_ != 0) o.metrics = &registry_;
    return o;
  }

  /// Attaches the close clock; `closed_before` epochs are already closed.
  void watch(ShardedRatingSystem& system, std::size_t closed_before) {
    closed_before_ = closed_before;
    clock_ = std::make_unique<CloseClock>(stream_.close_arrival.size() + 2);
    CloseClock* clock = clock_.get();
    system.set_epoch_observer(
        [clock](const trustrate::core::EpochReport&, double, double) { clock->tick(); });
    next_close_ = closed_before;
  }

  /// Submits arrivals [begin, end). Returns when the last submit returns;
  /// `first_done` is when the first one did.
  template <class Front>
  void submit_range(Front& front, ShardedRatingSystem& system, std::size_t begin,
                    std::size_t end, Clock::time_point& first_start,
                    Clock::time_point& first_done) {
    const auto& arrivals = stream_.arrivals;
    const auto& closes = stream_.close_arrival;
    std::size_t since_checkpoint = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Rating& a = arrivals[i];
      const Clock::time_point start = Clock::now();
      while (next_close_ < closes.size() && closes[next_close_] == i) {
        submit_at_[next_close_++] = start;
      }
      ++r_.attempted;
      try {
        front.submit(a);
      } catch (const std::exception& e) {
        fail(e.what());
      }
      if (i == begin || traced_) {
        const Clock::time_point done = Clock::now();
        if (i == begin) {
          first_start = start;
          first_done = done;
        }
        if (traced_) r_.trace.submit_ns.push_back(1e9 * seconds_between(start, done));
      }
      ++r_.submitted;
      if (a.rater != kJunkRater) last_target_ = i;
      const std::size_t n = i - begin + 1;
      if (setup_.query_every != 0 && n % setup_.query_every == 0) {
        query(system, arrivals[last_target_]);
      }
      if (scrape_every_ != 0 && n % scrape_every_ == 0) scrape(front, system);
      if (traced_ && n % kProbeEvery == 0) {
        r_.trace.merge_lag_max =
            std::max(r_.trace.merge_lag_max, system.probe().merge_lag);
      }
      if constexpr (std::is_same_v<Front, ShardedDurableStream>) {
        if (setup_.checkpoint_every != 0 && ++since_checkpoint == setup_.checkpoint_every) {
          since_checkpoint = 0;
          ++r_.attempted;
          const Clock::time_point c0 = Clock::now();
          try {
            front.checkpoint();
          } catch (const std::exception& e) {
            fail(e.what());
          }
          r_.checkpoint_ms.push_back(1e3 * seconds_between(c0, Clock::now()));
        }
      }
    }
  }

  template <class Front>
  void flush(Front& front, Clock::time_point first_start) {
    ++r_.attempted;
    const Clock::time_point f0 = Clock::now();
    try {
      front.flush();
    } catch (const std::exception& e) {
      fail(e.what());
    }
    const Clock::time_point f1 = Clock::now();
    r_.ingest_s = seconds_between(first_start, f1);
    if (traced_) r_.trace.flush_ms = 1e3 * seconds_between(f0, f1);
  }

  /// Trust lag per epoch closed by a submit in this pass; checks that the
  /// observer fired for every such epoch plus at least once for the flush
  /// (more when the drained reorder buffer crosses an epoch end).
  void collect_lags() {
    const std::size_t closes = stream_.close_arrival.size();
    const std::size_t fired = clock_->count;
    if (closed_before_ + fired < closes + 1) {
      fail("epoch observer fired " + std::to_string(fired) + " times, expected " +
           std::to_string(closes + 1 - closed_before_) + " or more");
      return;
    }
    for (std::size_t k = closed_before_; k < closes; ++k) {
      r_.lag_ms.push_back(1e3 * seconds_between(submit_at_[k],
                                                clock_->at[k - closed_before_]));
    }
  }

  /// Untimed reads after flush(), aimed at raters and products spread
  /// evenly over the whole stream: every one must return a value in [0, 1].
  void post_queries(const ShardedRatingSystem& system) {
    const auto& arrivals = stream_.arrivals;
    const std::size_t n = arrivals.size();
    for (std::size_t q = 0; q < setup_.post_queries; ++q) {
      std::size_t i = q * n / setup_.post_queries;
      while (i + 1 < n && arrivals[i].rater == kJunkRater) ++i;
      ++r_.attempted;
      try {
        if (!read(system, arrivals[i], true)) fail("post-flush read returned no value");
      } catch (const std::exception& e) {
        fail(e.what());
      }
    }
  }

  template <class Front>
  void scrape(Front& front, const ShardedRatingSystem& system) {
    ++r_.attempted;
    const Clock::time_point s0 = Clock::now();
    const std::string text = registry_.prometheus();
    const trustrate::obs::PipelineProbe probe = system.probe();
    bool ok = !text.empty() && !probe.failed;
    if constexpr (std::is_same_v<Front, ShardedDurableStream>) {
      ok = ok && front.probe().present;
    }
    const Clock::time_point s1 = Clock::now();
    if (!ok) fail("scrape returned an empty or failed snapshot");
    if (traced_) {
      r_.trace.scrape_us.push_back(us_between(s0, s1));
      // Exposition series: every line that is not a # HELP / # TYPE comment.
      std::uint64_t series = 0;
      for (std::size_t at = 0; at < text.size();) {
        const std::size_t eol = std::min(text.find('\n', at), text.size());
        if (eol > at && text[at] != '#') ++series;
        at = eol + 1;
      }
      r_.trace.series = series;
    }
  }

  /// Checkpoint save of the final state into a byte-counting sink (the
  /// writer's cost without buffering hundreds of MB); traced, also a load
  /// of the saved bytes, whose trust digest must match.
  void save_load(ShardedRatingSystem& system, bool record_checkpoint) {
    {
      ++r_.attempted;
      CountingBuf sink;
      std::ostream out(&sink);
      const Clock::time_point c0 = Clock::now();
      try {
        system.save(out);
      } catch (const std::exception& e) {
        fail(e.what());
      }
      const double ms = 1e3 * seconds_between(c0, Clock::now());
      if (record_checkpoint) r_.checkpoint_ms.push_back(ms);
      if (traced_) r_.trace.save_ms.push_back(ms);
      r_.trace.checkpoint_bytes = std::max(r_.trace.checkpoint_bytes, sink.bytes);
    }
    if (!traced_) return;
    ++r_.attempted;
    try {
      std::ostringstream saved;
      system.save(saved);
      auto layout = setup_.layout;
      layout.threaded = false;  // no extra threads beside the running pipeline
      std::istringstream in(saved.str());
      const Clock::time_point l0 = Clock::now();
      const auto loaded = ShardedRatingSystem::load(in, setup_.config, layout);
      r_.trace.load_ms = 1e3 * seconds_between(l0, Clock::now());
      if (outcome_of(*loaded).trust_digest != outcome_of(system).trust_digest) {
        fail("checkpoint load does not reproduce the trust digest");
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  void fail(const std::string& what) {
    ++r_.failed;
    if (r_.errors.size() < 8) r_.errors.push_back(what);
  }

 private:
  /// One read: trust() of the target's rater or aggregate() of its
  /// product (1:3). True when it returns a value in [0, 1]. Mid-stream, a
  /// product whose ratings all sit in the reorder buffer has no aggregate
  /// yet; after flush() every product has one.
  bool read(const ShardedRatingSystem& system, const Rating& target, bool require_value) {
    if (query_seq_++ % 4 == 0) {
      const double v = system.trust(target.rater);
      return v >= 0.0 && v <= 1.0;
    }
    const auto v = system.aggregate(target.product);
    return v.has_value() ? *v >= 0.0 && *v <= 1.0 : !require_value;
  }

  /// A timed read during ingest.
  void query(const ShardedRatingSystem& system, const Rating& target) {
    ++r_.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      Clock::time_point t1 = t0;
      if (traced_) {
        system.quiesce();
        t1 = Clock::now();
      }
      const bool ok = read(system, target, false);
      const Clock::time_point t2 = Clock::now();
      r_.query_us.push_back(us_between(t0, t2));
      if (traced_) {
        r_.trace.quiesce_us.push_back(us_between(t0, t1));
        r_.trace.read_us.push_back(us_between(t1, t2));
      }
      if (!ok) fail("query returned no value or one outside [0, 1]");
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  const PassSetup& setup_;
  const GeneratedStream& stream_;
  bool traced_;
  PassResult& r_;
  std::size_t scrape_every_ = 0;
  trustrate::obs::MetricsRegistry registry_;
  std::unique_ptr<CloseClock> clock_;
  std::vector<Clock::time_point> submit_at_;
  std::size_t closed_before_ = 0;
  std::size_t next_close_ = 0;
  std::size_t last_target_ = 0;
  std::size_t query_seq_ = 0;
};

std::uint64_t wal_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".log") {
      total += entry.file_size();
    }
  }
  return total;
}

/// Flat little-endian-as-host encoding; both ends are the same binary.
class Writer {
 public:
  template <class T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&value), sizeof value);
  }
  void doubles(const std::vector<double>& values) {
    pod(values.size());
    out_.append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(double));
  }
  void text(const std::string& value) {
    pod(value.size());
    out_.append(value);
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}
  template <class T>
  T pod() {
    T value;
    std::memcpy(&value, take(sizeof value), sizeof value);
    return value;
  }
  std::vector<double> doubles() {
    std::vector<double> values(pod<std::size_t>());
    std::memcpy(values.data(), take(values.size() * sizeof(double)),
                values.size() * sizeof(double));
    return values;
  }
  std::string text() {
    const auto size = pod<std::size_t>();
    return std::string(take(size), size);
  }

 private:
  const char* take(std::size_t n) {
    if (n > in_.size() - at_) throw std::runtime_error("truncated pass result");
    const char* p = in_.data() + at_;
    at_ += n;
    return p;
  }
  const std::string& in_;
  std::size_t at_ = 0;
};

}  // namespace

std::string encode(const PassResult& r) {
  Writer w;
  w.pod(r.setup_s);
  w.pod(r.ingest_s);
  w.pod(r.submitted);
  w.pod(r.attempted);
  w.pod(r.failed);
  w.pod(r.outcome);
  w.doubles(r.lag_ms);
  w.doubles(r.query_us);
  w.doubles(r.checkpoint_ms);
  w.pod(r.errors.size());
  for (const std::string& e : r.errors) w.text(e);
  return w.take();
}

PassResult decode(const std::string& bytes) {
  Reader in(bytes);
  PassResult r;
  r.setup_s = in.pod<double>();
  r.ingest_s = in.pod<double>();
  r.submitted = in.pod<std::size_t>();
  r.attempted = in.pod<std::size_t>();
  r.failed = in.pod<std::size_t>();
  r.outcome = in.pod<Outcome>();
  r.lag_ms = in.doubles();
  r.query_us = in.doubles();
  r.checkpoint_ms = in.doubles();
  const auto errors = in.pod<std::size_t>();
  for (std::size_t i = 0; i < errors; ++i) r.errors.push_back(in.text());
  return r;
}

PassResult memory_pass(const PassSetup& setup, const GeneratedStream& stream,
                       bool traced) {
  PassResult r;
  LoadLoop loop(setup, stream, traced, r);
  const Clock::time_point t0 = Clock::now();
  auto system = std::make_unique<ShardedRatingSystem>(
      setup.config, setup.layout, setup.epoch_days, setup.retention_epochs,
      setup.ingest);
  system->set_observability(loop.observability());
  loop.watch(*system, 0);
  Clock::time_point first_start, first_done;
  loop.submit_range(*system, *system, 0, stream.arrivals.size(), first_start,
                      first_done);
  r.setup_s = seconds_between(t0, first_done);
  loop.flush(*system, first_start);
  loop.collect_lags();
  loop.post_queries(*system);
  if (setup.save_after_flush) loop.save_load(*system, /*record_checkpoint=*/true);
  if (traced) r.trace.probe = system->probe();
  try {
    r.outcome = outcome_of(*system);
  } catch (const std::exception& e) {
    loop.fail(e.what());
  }
  return r;
}

void seed_durable_dir(const PassSetup& setup, const GeneratedStream& stream,
                      std::size_t ckpt_at, std::size_t tail_end,
                      const fs::path& dir) {
  fs::remove_all(dir);
  ShardedDurableStream front(dir, setup.config, setup.layout, setup.epoch_days,
                             setup.retention_epochs, setup.ingest);
  for (std::size_t i = 0; i < tail_end; ++i) {
    if (i == ckpt_at) front.checkpoint();
    front.submit(stream.arrivals[i]);
  }
  // Destroyed without flush(): the directory is what a crash leaves behind.
}

PassResult durable_pass(const PassSetup& setup, const GeneratedStream& stream,
                        std::size_t tail_end, std::size_t end,
                        const fs::path& seed_dir, const fs::path& work_dir,
                        bool traced) {
  PassResult r;
  fs::remove_all(work_dir);
  fs::copy(seed_dir, work_dir, fs::copy_options::recursive);
  LoadLoop loop(setup, stream, traced, r);
  trustrate::core::durable::ShardedDurableOptions options;
  options.obs = loop.observability();

  const Clock::time_point t0 = Clock::now();
  auto front = std::make_unique<ShardedDurableStream>(
      work_dir, setup.config, setup.layout, setup.epoch_days,
      setup.retention_epochs, setup.ingest, options);
  const Clock::time_point t1 = Clock::now();
  ShardedRatingSystem& system = front->system();
  if (front->acknowledged() != tail_end) {
    loop.fail("recovered cursor " + std::to_string(front->acknowledged()) +
                ", expected " + std::to_string(tail_end));
  }
  loop.watch(system, system.epochs_closed());
  Clock::time_point first_start, first_done;
  loop.submit_range(*front, system, tail_end, end, first_start, first_done);
  r.setup_s = seconds_between(t0, t1) + seconds_between(first_start, first_done);
  loop.flush(*front, first_start);
  loop.collect_lags();
  loop.post_queries(system);
  if (traced) {
    r.trace.recovery_s = seconds_between(t0, t1);
    r.trace.replayed_records = front->recovery().replayed_records;
    r.trace.durability = front->probe();
    r.trace.wal_bytes = wal_bytes(work_dir);
    r.trace.probe = system.probe();
    loop.save_load(system, /*record_checkpoint=*/false);
  }
  try {
    r.outcome = outcome_of(system);
  } catch (const std::exception& e) {
    loop.fail(e.what());
  }
  front.reset();
  fs::remove_all(work_dir);
  return r;
}

StageReplay stage_replay(const PassSetup& setup, const GeneratedStream& stream) {
  using namespace trustrate;
  StageReplay out;

  // ingest: the arrivals through the classifier alone.
  core::IngestBuffer ingest(setup.ingest);
  RatingSeries released;
  released.reserve(stream.clean.size());
  out.ingest_submit_ns.reserve(stream.arrivals.size());
  for (const Rating& a : stream.arrivals) {
    const Clock::time_point t0 = Clock::now();
    ingest.submit(a, released);
    const Clock::time_point t1 = Clock::now();
    const double s = seconds_between(t0, t1);
    out.ingest_busy_s += s;
    out.ingest_submit_ns.push_back(1e9 * s);
    out.buffered_max = std::max<std::uint64_t>(out.buffered_max, ingest.buffered());
  }
  {
    const Clock::time_point t0 = Clock::now();
    ingest.drain(released);
    out.ingest_busy_s += seconds_between(t0, Clock::now());
  }
  out.ingest_stats = ingest.stats();

  // parallel + system: cells assembled the way testkit::run_batch_reference
  // walks the epoch grid, analyzed at one worker, merged into Procedure 2.
  const detect::BetaQuantileFilter filter(setup.config.filter);
  const detect::ArSuspicionDetector detector(setup.config.ar);
  core::parallel::StageContext ctx;
  ctx.config = &setup.config;
  ctx.filter = &filter;
  ctx.detector = &detector;
  core::parallel::EpochEngine engine(1);
  core::TrustEnhancedRatingSystem merge(setup.config);

  const Clock::time_point walk0 = Clock::now();
  std::unordered_map<ProductId, RatingSeries> pending;
  bool anchored = false;
  double epoch_start = 0.0;
  double last_time = 0.0;
  const double epoch_days = setup.epoch_days;
  const auto close = [&](double epoch_end) {
    std::vector<core::ProductObservation> observations;
    observations.reserve(pending.size());
    for (auto& [product, series] : pending) {
      core::ProductObservation obs;
      obs.product = product;
      obs.t_start = epoch_start;
      obs.t_end = epoch_end;
      obs.ratings = std::move(series);
      observations.push_back(std::move(obs));
    }
    pending.clear();
    std::sort(observations.begin(), observations.end(),
              [](const auto& a, const auto& b) { return a.product < b.product; });
    const Clock::time_point a0 = Clock::now();
    std::vector<core::ProductReport> reports = engine.analyze(observations, ctx);
    const Clock::time_point a1 = Clock::now();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      out.ratings += observations[i].ratings.size();
      out.degraded += reports[i].detector_degraded ? 1 : 0;
      out.flagged += static_cast<std::uint64_t>(
          std::count(reports[i].flagged.begin(), reports[i].flagged.end(), true));
    }
    out.products += reports.size();
    const Clock::time_point m0 = Clock::now();
    merge.merge_epoch(observations, std::move(reports));
    const Clock::time_point m1 = Clock::now();
    out.parallel_busy_s += seconds_between(a0, a1);
    out.epoch_ms.push_back(1e3 * seconds_between(a0, a1));
    out.system_busy_s += seconds_between(m0, m1);
    out.merge_ms.push_back(1e3 * seconds_between(m0, m1));
    epoch_start = epoch_end;
  };
  for (const Rating& rating : released) {
    if (!anchored) {
      anchored = true;
      epoch_start = rating.time;
    }
    last_time = rating.time;
    while (rating.time >= epoch_start + epoch_days) {
      if (pending.empty()) {
        // Fully empty gap: the generated streams have none; stay on the grid.
        while (rating.time >= epoch_start + epoch_days) epoch_start += epoch_days;
        break;
      }
      close(epoch_start + epoch_days);
    }
    pending[rating.product].push_back(rating);
  }
  if (anchored && !pending.empty()) {
    close(std::max(last_time + 1e-9, epoch_start + epoch_days));
  }
  out.assemble_s = seconds_between(walk0, Clock::now()) - out.parallel_busy_s -
                   out.system_busy_s;

  const auto& store = merge.trust_store();
  out.raters = store.size();
  out.trust_digest = testkit::fnv1a(testkit::digest_trust(store));
  out.malicious = merge.malicious().size();
  return out;
}

}  // namespace perfbench
