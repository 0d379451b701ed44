// Live-introspection tests (ISSUE 10): endpoint goldens for the /healthz
// and /status renderers, the Prometheus exposition-format contract for
// labeled metric families and histogram snapshots, the retired flat shard
// counter names staying gone, causal-ID threading through
// the ingest → shard ring → epoch close → merge trace chain, SPSC ring
// backpressure telemetry, the HTTP exposition server's lifecycle and
// malformed-request robustness, a scrape-while-ingesting hammer (the TSan
// target for the probe path), the server-on-vs-off bitwise digest oracle,
// the durable-layer probe's clock-free record ages, and the acceptance
// path: a ThreadFaultPlan-poisoned shard is visible on /healthz before
// try_heal() and the pipeline reports ok after.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/checkpoint.hpp"
#include "core/durable/durable_stream.hpp"
#include "core/durable/sharded_durable.hpp"
#include "core/shard/sharded_system.hpp"
#include "core/shard/spsc_queue.hpp"
#include "obs/http.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testkit/threadfault.hpp"

namespace trustrate {
namespace {

namespace fs = std::filesystem;
using core::durable::DurableStream;
using core::durable::ShardedDurableOptions;
using core::durable::ShardedDurableStream;
using core::shard::ShardedRatingSystem;
using core::shard::ShardOptions;
using core::shard::SpscQueue;
using obs::ExpositionServer;
using obs::bind_introspection;
using testkit::ThreadFaultInjector;
using testkit::ThreadFaultKind;
using testkit::ThreadFaultPlan;

fs::path test_dir(const std::string& name) {
#ifndef _WIN32
  const std::string uniq = std::to_string(::getpid());
#else
  const std::string uniq = "w";
#endif
  const fs::path dir =
      fs::temp_directory_path() / ("trustrate-introspection-" + uniq) / name;
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

/// Deterministic multi-epoch stream over 16 products (modulo placement
/// reaches every shard at the counts these tests use).
RatingSeries wide_stream(int count = 320) {
  RatingSeries stream;
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += 0.45;
    stream.push_back({t, (i % 10) * 0.1, static_cast<RaterId>(1 + i % 13),
                      static_cast<ProductId>(1 + i % 16),
                      RatingLabel::kHonest});
  }
  return stream;
}

ShardOptions threaded_options(std::size_t shards) {
  ShardOptions options;
  options.shards = shards;
  options.threaded = true;
  options.shard_fn = [](ProductId p, std::size_t n) {
    return static_cast<std::size_t>(p) % n;
  };
  return options;
}

/// Bitwise state digest: the serialized checkpoint, as the supervision
/// oracle uses it.
std::string state_digest(ShardedRatingSystem& system) {
  std::ostringstream out;
  core::write_checkpoint(system.snapshot(), core::kCheckpointVersion, out);
  return out.str();
}

// --------------------------------------------------------- HTTP client

/// Sends raw bytes to 127.0.0.1:port and drains the response until the
/// server closes (every response is Connection: close).
std::string http_raw(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) break;  // server may close early (oversized head): fine
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_raw(port, "GET " + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n");
}

int status_of(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// ------------------------------------------------------ endpoint goldens

TEST(IntrospectGolden, HealthzIdleDefaults) {
  const obs::PipelineProbe pipeline;
  const obs::DurabilityProbe durability;
  EXPECT_EQ(obs::render_healthz(pipeline, durability),
            "{\"status\":\"ok\",\"pipeline\":{\"mode\":\"inline\","
            "\"failed\":false,\"merge_lag\":0,\"merge_stall_age\":0,"
            "\"stall_budget\":0,\"shards\":[]},"
            "\"durability\":{\"present\":false}}\n");
}

TEST(IntrospectGolden, StatusIdleDefaults) {
  const obs::PipelineProbe pipeline;
  const obs::DurabilityProbe durability;
  EXPECT_EQ(obs::render_status(pipeline, durability),
            "{\"epoch\":{\"anchored\":false,\"epoch_start\":0,"
            "\"last_time\":0,\"cells_issued\":0,\"cells_merged\":0,"
            "\"merge_lag\":0,\"skipped_empty_epochs\":0},"
            "\"ingest\":{\"submitted\":0,\"pending\":0,\"buffered\":0},"
            "\"shards\":[],\"durability\":{\"present\":false}}\n");
}

TEST(IntrospectGolden, HealthzFailedPipelineWithPoisonedShard) {
  obs::PipelineProbe p;
  p.threaded = true;
  p.failed = true;
  p.failure_kind = "poisoned";
  p.failure_shard = 1;
  p.failure_message = "worker died";
  p.merge_lag = 2;
  p.stall_budget = 100;
  obs::ShardProbe ok;
  ok.index = 0;
  obs::ShardProbe bad;
  bad.index = 1;
  bad.health = obs::ShardHealth::kPoisoned;
  bad.poisoned = true;
  bad.heartbeat_age = 1;
  p.shards = {ok, bad};
  obs::DurabilityProbe d;
  d.present = true;
  d.state = "durable";
  d.heals = 1;
  EXPECT_EQ(obs::render_healthz(p, d),
            "{\"status\":\"failed\",\"pipeline\":{\"mode\":\"threaded\","
            "\"failed\":true,\"failure_kind\":\"poisoned\","
            "\"failure_shard\":1,\"failure_message\":\"worker died\","
            "\"merge_lag\":2,\"merge_stall_age\":0,\"stall_budget\":100,"
            "\"shards\":[{\"shard\":0,\"state\":\"ok\",\"heartbeat_age\":0,"
            "\"stall_age\":0},{\"shard\":1,\"state\":\"poisoned\","
            "\"heartbeat_age\":1,\"stall_age\":0}]},"
            "\"durability\":{\"present\":true,\"state\":\"durable\","
            "\"heals\":1,\"failstops\":0}}\n");
}

TEST(IntrospectGolden, HealthzDegradedDurabilityCarriesLastFailure) {
  const obs::PipelineProbe p;
  obs::DurabilityProbe d;
  d.present = true;
  d.state = "degraded";
  d.last_failure = "fsync on 'wal': EIO";
  const std::string body = obs::render_healthz(p, d);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"last_failure\":\"fsync on 'wal': EIO\""),
            std::string::npos)
      << body;
}

TEST(IntrospectGolden, StatusFullSnapshot) {
  obs::PipelineProbe p;
  p.threaded = true;
  p.anchored = true;
  p.epoch_start = 30.5;
  p.last_time = 29.25;
  p.cells_issued = 4;
  p.cells_merged = 3;
  p.merge_lag = 1;
  p.skipped_empty_epochs = 2;
  p.submitted = 100;
  p.pending = 3;
  p.buffered = 2;
  obs::ShardProbe s;
  s.index = 0;
  s.health = obs::ShardHealth::kSlow;
  s.stall_age = 7;
  s.events_pushed = 50;
  s.events_processed = 48;
  s.inbox = {2, 10, 1, 4096};
  s.outbox = {0, 3, 0, 4096};
  s.quarantine_size = 5;
  s.skipped_cells = 1;
  p.shards = {s};
  obs::DurabilityProbe d;
  d.present = true;
  d.state = "durable";
  d.acknowledged = 100;
  d.durable_acknowledged = 100;
  d.last_checkpoint = 40;
  d.records_since_checkpoint = 60;
  d.wal_records = 100;
  d.active_segment_records = 60;
  d.wal_segments = 2;
  EXPECT_EQ(
      obs::render_status(p, d),
      "{\"epoch\":{\"anchored\":true,\"epoch_start\":30.5,"
      "\"last_time\":29.25,\"cells_issued\":4,\"cells_merged\":3,"
      "\"merge_lag\":1,\"skipped_empty_epochs\":2},"
      "\"ingest\":{\"submitted\":100,\"pending\":3,\"buffered\":2},"
      "\"shards\":[{\"shard\":0,\"state\":\"slow\",\"events_pushed\":50,"
      "\"events_processed\":48,\"inbox\":{\"depth\":2,\"high_water\":10,"
      "\"stalls\":1,\"capacity\":4096},\"outbox\":{\"depth\":0,"
      "\"high_water\":3,\"stalls\":0,\"capacity\":4096},\"quarantine\":5,"
      "\"skipped_cells\":1}],\"durability\":{\"present\":true,"
      "\"state\":\"durable\",\"heals\":0,\"failstops\":0,"
      "\"acknowledged\":100,\"durable_acknowledged\":100,"
      "\"backlog_records\":0,\"last_checkpoint\":40,"
      "\"records_since_checkpoint\":60,\"wal_records\":100,"
      "\"wal_segments\":2,\"active_segment_records\":60}}\n");
}

TEST(IntrospectGolden, ShardHealthNamesAreStable) {
  EXPECT_STREQ(obs::to_string(obs::ShardHealth::kOk), "ok");
  EXPECT_STREQ(obs::to_string(obs::ShardHealth::kSlow), "slow");
  EXPECT_STREQ(obs::to_string(obs::ShardHealth::kStalled), "stalled");
  EXPECT_STREQ(obs::to_string(obs::ShardHealth::kPoisoned), "poisoned");
}

// ----------------------------------------- Prometheus exposition format

TEST(PrometheusExposition, LabeledSeriesShareOneFamilyHeader) {
  obs::MetricsRegistry m;
  m.counter("trustrate_shard_routed_total{shard=\"0\"}", "Routed per shard")
      .add(3);
  m.counter("trustrate_shard_routed_total{shard=\"1\"}", "Routed per shard")
      .add(4);
  m.gauge("trustrate_pending_ratings", "Pending ratings").set(6.0);
  EXPECT_EQ(m.prometheus(),
            "# HELP trustrate_pending_ratings Pending ratings\n"
            "# TYPE trustrate_pending_ratings gauge\n"
            "trustrate_pending_ratings 6\n"
            "# HELP trustrate_shard_routed_total Routed per shard\n"
            "# TYPE trustrate_shard_routed_total counter\n"
            "trustrate_shard_routed_total{shard=\"0\"} 3\n"
            "trustrate_shard_routed_total{shard=\"1\"} 4\n");
}

TEST(PrometheusExposition, HistogramSnapshotGolden) {
  // Exposition-format contract: cumulative le buckets, an explicit +Inf
  // bucket, _sum, and _count EQUAL to the +Inf bucket.
  obs::MetricsRegistry m;
  obs::Histogram& h = m.histogram("demo_seconds", {0.5, 2.0}, "Demo latency");
  h.observe(0.25);
  h.observe(1.0);
  h.observe(5.0);
  EXPECT_EQ(m.prometheus(),
            "# HELP demo_seconds Demo latency\n"
            "# TYPE demo_seconds histogram\n"
            "demo_seconds_bucket{le=\"0.5\"} 1\n"
            "demo_seconds_bucket{le=\"2\"} 2\n"
            "demo_seconds_bucket{le=\"+Inf\"} 3\n"
            "demo_seconds_sum 6.25\n"
            "demo_seconds_count 3\n");
}

TEST(PrometheusExposition, LabeledHistogramKeepsLabelsOnEverySeries) {
  // The series labels move inside every _bucket/_sum/_count line, with le
  // appended after them; one family header covers every shard.
  obs::MetricsRegistry m;
  m.histogram("demo_seconds{shard=\"0\"}", {0.5}, "Demo latency").observe(0.25);
  m.histogram("demo_seconds{shard=\"1\"}", {0.5}, "Demo latency").observe(1.0);
  EXPECT_EQ(m.prometheus(),
            "# HELP demo_seconds Demo latency\n"
            "# TYPE demo_seconds histogram\n"
            "demo_seconds_bucket{shard=\"0\",le=\"0.5\"} 1\n"
            "demo_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1\n"
            "demo_seconds_sum{shard=\"0\"} 0.25\n"
            "demo_seconds_count{shard=\"0\"} 1\n"
            "demo_seconds_bucket{shard=\"1\",le=\"0.5\"} 0\n"
            "demo_seconds_bucket{shard=\"1\",le=\"+Inf\"} 1\n"
            "demo_seconds_sum{shard=\"1\"} 1\n"
            "demo_seconds_count{shard=\"1\"} 1\n");
  // The JSON snapshot escapes the label quotes inside its keys.
  EXPECT_NE(m.json().find("\"demo_seconds{shard=\\\"0\\\"}\""),
            std::string::npos)
      << m.json();
}

TEST(MetricNaming, DeprecatedFlatShardNamesAreAbsent) {
  // The flat trustrate_shard<K>_* aliases and the gauge that counted them
  // were retired after their one-release window: only the labeled
  // families remain, next to the sharded stage histograms.
  obs::MetricsRegistry metrics;
  obs::Observability o;
  o.metrics = &metrics;
  ShardOptions options = threaded_options(2);
  options.threaded = false;
  ShardedRatingSystem system(pipeline_config(), options, 30.0, 2, {});
  system.set_observability(o);
  for (const Rating& r : wide_stream(160)) system.submit(r);
  system.flush();

  const std::string text = metrics.prometheus();
  for (int k = 0; k < 2; ++k) {
    const std::string flat = "trustrate_shard" + std::to_string(k) + "_";
    EXPECT_EQ(text.find("\n" + flat), std::string::npos) << flat;
  }
  EXPECT_EQ(text.find("trustrate_deprecated_metric_names"), std::string::npos);
  EXPECT_EQ(text.find("DEPRECATED"), std::string::npos);
  EXPECT_GT(metrics.counter("trustrate_shard_routed_total{shard=\"0\"}")
                .value(),
            0u);
  // The sharded stage histograms: one analyze observation per cell a
  // shard analyzed, one merge_cell observation per closed epoch.
  for (int k = 0; k < 2; ++k) {
    const std::string label = "{shard=\"" + std::to_string(k) + "\"}";
    EXPECT_EQ(metrics
                  .histogram("trustrate_shard_analyze_seconds" + label,
                             obs::default_seconds_buckets())
                  .count(),
              metrics.counter("trustrate_shard_cells_total" + label).value())
        << label;
  }
  EXPECT_EQ(metrics
                .histogram("trustrate_merge_cell_seconds",
                           obs::default_seconds_buckets())
                .count(),
            system.epochs_closed());
  EXPECT_NE(text.find("trustrate_merge_cell_seconds_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("trustrate_shard_analyze_seconds_bucket{shard=\"1\",le="),
            std::string::npos);
  // One family header for the labeled series, however many shards.
  std::size_t headers = 0;
  for (std::size_t at = 0;
       (at = text.find("# TYPE trustrate_shard_routed_total counter", at)) !=
       std::string::npos;
       ++at) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u) << text;
}

// ------------------------------------------------------- causal tracing

TEST(CausalTrace, JsonlEmitsCausalOnlyWhenSet) {
  obs::TraceSpan span;
  span.name = "ingest.classify";
  span.start_ns = 1;
  span.duration_ns = 2;
  span.id = 7;
  span.causal = 42;
  span.detail = "verdict=accepted";
  EXPECT_EQ(obs::to_jsonl(span),
            "{\"span\":\"ingest.classify\",\"start_ns\":1,\"duration_ns\":2,"
            "\"id\":7,\"causal\":42,\"detail\":\"verdict=accepted\"}");
  span.causal = 0;
  EXPECT_EQ(obs::to_jsonl(span),
            "{\"span\":\"ingest.classify\",\"start_ns\":1,\"duration_ns\":2,"
            "\"id\":7,\"detail\":\"verdict=accepted\"}");
}

/// Parses "causal=[lo,hi]" from a span detail; returns {0,0} when absent.
std::pair<std::uint64_t, std::uint64_t> causal_range(
    const std::string& detail) {
  const auto at = detail.find("causal=[");
  if (at == std::string::npos) return {0, 0};
  unsigned long long lo = 0;
  unsigned long long hi = 0;
  if (std::sscanf(detail.c_str() + at, "causal=[%llu,%llu]", &lo, &hi) != 2) {
    return {0, 0};
  }
  return {static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)};
}

TEST(CausalTrace, IngestToMergeChainIsReconstructible) {
  // The causal ID is the 1-based global submission ordinal, threaded from
  // ingest classification through the shard ring to the merge. From the
  // span stream alone we must be able to reconstruct which submissions
  // each merged cell covered.
  const RatingSeries stream = wide_stream();
  obs::RingBufferTraceSink trace(1 << 16);
  obs::Observability o;
  o.trace = &trace;
  ShardedRatingSystem system(pipeline_config(), threaded_options(3), 30.0, 2,
                             {});
  system.set_observability(o);
  for (const Rating& r : stream) system.submit(r);
  system.flush();

  std::uint64_t classify_spans = 0;
  std::uint64_t last_classify = 0;
  std::map<std::uint64_t, std::uint64_t> analyze_hi_by_epoch;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> merges;
  for (const obs::TraceSpan& span : trace.snapshot()) {
    if (span.name == "ingest.classify") {
      ++classify_spans;
      EXPECT_GT(span.causal, last_classify)
          << "submission ordinals must be strictly increasing";
      last_classify = span.causal;
      EXPECT_NE(span.detail.find("verdict="), std::string::npos);
    } else if (span.name.find(".analyze") != std::string::npos &&
               span.causal != 0) {
      const auto [lo, hi] = causal_range(span.detail);
      ASSERT_NE(lo, 0u) << span.detail;
      EXPECT_LE(lo, hi);
      EXPECT_EQ(hi, span.causal);
      EXPECT_LE(hi, stream.size());
      std::uint64_t& epoch_hi = analyze_hi_by_epoch[span.epoch];
      if (hi > epoch_hi) epoch_hi = hi;
    } else if (span.name == "merge.cell" && span.causal != 0) {
      const auto [lo, hi] = causal_range(span.detail);
      ASSERT_NE(lo, 0u) << span.detail;
      EXPECT_LE(lo, hi);
      EXPECT_EQ(hi, span.causal);
      merges[span.epoch] = {lo, hi};
    }
  }
  EXPECT_EQ(classify_spans, stream.size());
  EXPECT_EQ(last_classify, stream.size());
  ASSERT_FALSE(merges.empty());
  // Each merge's causal hi is exactly the newest submission any of its
  // shard slices analyzed, and cells cover disjoint, increasing ranges.
  std::uint64_t prev_hi = 0;
  for (const auto& [epoch, range] : merges) {
    const auto analyzed = analyze_hi_by_epoch.find(epoch);
    ASSERT_NE(analyzed, analyze_hi_by_epoch.end()) << "epoch " << epoch;
    EXPECT_EQ(range.second, analyzed->second) << "epoch " << epoch;
    EXPECT_GT(range.first, prev_hi) << "epoch " << epoch;
    prev_hi = range.second;
  }
}

// -------------------------------------------------- SPSC ring telemetry

TEST(SpscTelemetry, HighWaterAndProducerStalls) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.high_water(), 0u);
  EXPECT_EQ(q.producer_stalls(), 0u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.high_water(), 4u);
  EXPECT_EQ(q.producer_stalls(), 0u);
  EXPECT_FALSE(q.try_push(9));  // full: counted as a producer stall
  EXPECT_FALSE(q.try_push(9));
  EXPECT_EQ(q.producer_stalls(), 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  ASSERT_TRUE(q.try_push(9));
  EXPECT_EQ(q.high_water(), 4u);  // high-water is monotone
  int batch[2] = {1, 2};
  EXPECT_EQ(q.try_push_n(batch, 2), 0u);  // full again: one more stall
  EXPECT_EQ(q.producer_stalls(), 3u);
}

// ------------------------------------------------------ the HTTP server

TEST(HttpServer, StartStopRestartOnEphemeralPort) {
  ExpositionServer server;
  server.handle("/ping", [] {
    obs::HttpResponse r;
    r.body = "pong\n";
    return r;
  });
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_TRUE(server.running());
  const std::uint16_t first_port = server.port();
  ASSERT_NE(first_port, 0);
  std::string response = http_get(first_port, "/ping");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_EQ(body_of(response), "pong\n");
  server.stop();
  EXPECT_FALSE(server.running());

  // Restart binds a fresh listener (possibly a different ephemeral port).
  ASSERT_TRUE(server.start()) << server.error();
  response = http_get(server.port(), "/ping");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_EQ(body_of(response), "pong\n");
  EXPECT_GE(server.requests_served(), 2u);
  server.stop();
}

TEST(HttpServer, MalformedRequestsAreBoundedAndAnswered) {
  ExpositionServer server;
  server.handle("/ok", [] { return obs::HttpResponse{200, "text/plain", "y"}; });
  ASSERT_TRUE(server.start()) << server.error();
  const std::uint16_t port = server.port();

  EXPECT_EQ(status_of(http_get(port, "/nope")), 404);
  EXPECT_EQ(status_of(http_raw(port, "POST /ok HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_NE(http_raw(port, "POST /ok HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("Allow: GET"),
            std::string::npos);
  EXPECT_EQ(status_of(http_raw(port, "not an http request\r\n\r\n")), 400);
  EXPECT_EQ(status_of(http_raw(port, "GET relative-path HTTP/1.1\r\n\r\n")),
            400);
  // Oversized request head: answered 400 (or dropped), never a hang.
  const std::string huge = "GET /ok HTTP/1.1\r\nX-Filler: " +
                           std::string(64 * 1024, 'a') + "\r\n\r\n";
  const std::string response = http_raw(port, huge);
  if (!response.empty()) {
    EXPECT_EQ(status_of(response), 400);
  }
  // The server survives all of the above.
  EXPECT_EQ(status_of(http_get(port, "/ok")), 200);
  server.stop();
}

TEST(HttpServer, ThrowingHandlerYields500) {
  ExpositionServer server;
  server.handle("/boom", []() -> obs::HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  ASSERT_TRUE(server.start()) << server.error();
  const std::string response = http_get(server.port(), "/boom");
  EXPECT_EQ(status_of(response), 500);
  EXPECT_NE(body_of(response).find("handler exploded"), std::string::npos);
  server.stop();
}

TEST(HttpServer, QueryStringsAreStrippedFromThePath) {
  ExpositionServer server;
  server.handle("/metrics", [] { return obs::HttpResponse{200, "t", "m"}; });
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(status_of(http_get(server.port(), "/metrics?name=x")), 200);
  server.stop();
}

// ----------------------------------------- endpoints over a live system

TEST(Introspection, EndpointsServeALivePipeline) {
  obs::MetricsRegistry metrics;
  obs::Observability o;
  o.metrics = &metrics;
  ShardedRatingSystem system(pipeline_config(), threaded_options(3), 30.0, 2,
                             {});
  system.set_observability(o);
  for (const Rating& r : wide_stream()) system.submit(r);
  system.flush();

  ExpositionServer server;
  bind_introspection(server, &metrics, [&system] { return system.probe(); });
  ASSERT_TRUE(server.start()) << server.error();

  const std::string metrics_response = http_get(server.port(), "/metrics");
  EXPECT_EQ(status_of(metrics_response), 200);
  EXPECT_NE(metrics_response.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(body_of(metrics_response)
                .find("trustrate_ingest_submitted_total"),
            std::string::npos);
  EXPECT_NE(body_of(metrics_response)
                .find("trustrate_shard_routed_total{shard=\"0\"}"),
            std::string::npos);

  const std::string healthz = body_of(http_get(server.port(), "/healthz"));
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"mode\":\"threaded\""), std::string::npos);

  const std::string status = body_of(http_get(server.port(), "/status"));
  EXPECT_NE(status.find("\"submitted\":320"), std::string::npos) << status;
  EXPECT_NE(status.find("\"high_water\""), std::string::npos);
  EXPECT_NE(status.find("\"cells_merged\""), std::string::npos);
  server.stop();
}

// --------------------------- scrape-while-ingesting (the TSan target)

TEST(IntrospectionHammer, ConcurrentScrapesWhileIngesting) {
  obs::MetricsRegistry metrics;
  obs::Observability o;
  o.metrics = &metrics;
  ShardedRatingSystem system(pipeline_config(), threaded_options(3), 30.0, 2,
                             {});
  system.set_observability(o);

  ExpositionServer server;
  bind_introspection(server, &metrics, [&system] { return system.probe(); });
  ASSERT_TRUE(server.start()) << server.error();
  const std::uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok_responses{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 3; ++i) {
    scrapers.emplace_back([&stop, &ok_responses, port] {
      const char* paths[] = {"/metrics", "/healthz", "/status"};
      std::size_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (status_of(http_get(port, paths[n++ % 3])) == 200) {
          ok_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Ingest starts once a scrape has been answered, so the scrapers are
  // live for the whole stream: a stream shorter than one round trip
  // under a loaded host would otherwise finish before any scrape lands.
  for (int spins = 0; ok_responses.load() == 0 && spins < 10000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool answered = ok_responses.load() > 0;
  const RatingSeries stream = wide_stream(960);
  if (answered) {
    for (const Rating& r : stream) system.submit(r);
    system.flush();
  }
  stop.store(true);
  for (std::thread& t : scrapers) t.join();
  server.stop();

  ASSERT_TRUE(answered) << "the server never answered a scrape";
  EXPECT_EQ(system.ingest_stats().submitted, stream.size());
  const obs::PipelineProbe probe = system.probe();
  EXPECT_FALSE(probe.failed);
  EXPECT_EQ(probe.cells_issued, probe.cells_merged);
}

// ------------------------------- the server-on-vs-off digest oracle

std::string digest_with_optional_server(bool with_server) {
  ShardedRatingSystem system(pipeline_config(), threaded_options(3), 30.0, 2,
                             {});
  obs::MetricsRegistry metrics;
  std::unique_ptr<ExpositionServer> server;
  std::atomic<bool> stop{false};
  std::thread scraper;
  if (with_server) {
    obs::Observability o;
    o.metrics = &metrics;
    system.set_observability(o);
    server = std::make_unique<ExpositionServer>();
    bind_introspection(*server, &metrics,
                       [&system] { return system.probe(); });
    EXPECT_TRUE(server->start()) << server->error();
    const std::uint16_t port = server->port();
    scraper = std::thread([&stop, port] {
      const char* paths[] = {"/metrics", "/healthz", "/status"};
      std::size_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        http_get(port, paths[n++ % 3]);
      }
    });
  }
  for (const Rating& r : wide_stream()) system.submit(r);
  system.flush();
  if (with_server) {
    stop.store(true);
    scraper.join();
    server->stop();
  }
  return state_digest(system);
}

TEST(IntrospectionOracle, DigestsBitwiseIdenticalWithServerScraping) {
  // The acceptance criterion: scraping /metrics, /healthz and /status
  // concurrently with a threaded sharded run changes NOTHING about the
  // trust state — the serialized checkpoints are bitwise equal.
  const std::string without = digest_with_optional_server(false);
  const std::string with = digest_with_optional_server(true);
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, with) << "introspection perturbed the pipeline";
}

// ------------------------------------------- durable-layer record ages

TEST(DurabilityIntrospection, ProbeTracksClockFreeRecordAges) {
  const fs::path dir = test_dir("durable-probe");
  DurableStream durable(dir, pipeline_config(), 30.0, 2, {}, {});
  obs::DurabilityProbe p = durable.probe();
  EXPECT_TRUE(p.present);
  EXPECT_EQ(p.state, "durable");
  EXPECT_EQ(p.acknowledged, 0u);
  EXPECT_EQ(p.wal_records, 0u);
  // The writer creates the segment file on first append, so a fresh
  // stream has no segment on disk yet.
  EXPECT_EQ(p.wal_segments, 0u);

  for (int i = 0; i < 10; ++i) {
    durable.submit({0.1 * (i + 1), 0.5, static_cast<RaterId>(1 + i % 5), 1,
                    RatingLabel::kHonest});
  }
  p = durable.probe();
  EXPECT_EQ(p.acknowledged, 10u);
  EXPECT_EQ(p.durable_acknowledged, 10u);
  EXPECT_EQ(p.wal_records, 10u);
  EXPECT_EQ(p.last_checkpoint, 0u);
  EXPECT_EQ(p.records_since_checkpoint, 10u);  // checkpoint age in records
  EXPECT_EQ(p.active_segment_records, 10u);    // segment age in records
  EXPECT_EQ(p.backlog_records, 0u);

  durable.checkpoint();
  p = durable.probe();
  EXPECT_EQ(p.last_checkpoint, 10u);
  EXPECT_EQ(p.records_since_checkpoint, 0u);
  EXPECT_EQ(p.wal_segments, 1u);  // checkpoint re-scans the directory

  durable.submit({2.0, 0.5, 2, 1, RatingLabel::kHonest});
  p = durable.probe();
  EXPECT_EQ(p.records_since_checkpoint, 1u);
  EXPECT_EQ(p.heals, 0u);
  fs::remove_all(dir);
}

TEST(DurabilityIntrospection, ShardedProbeSumsAcrossShardLogs) {
  const fs::path dir = test_dir("sharded-probe");
  ShardedDurableOptions options;
  options.fsync = core::durable::FsyncPolicy::kNone;
  ShardedDurableStream durable(dir, pipeline_config(), threaded_options(3),
                               30.0, 2, {}, options);
  const RatingSeries stream = wide_stream(96);
  for (const Rating& r : stream) durable.submit(r);
  obs::DurabilityProbe p = durable.probe();
  EXPECT_TRUE(p.present);
  EXPECT_EQ(p.state, "durable");
  EXPECT_EQ(p.acknowledged, stream.size());
  EXPECT_EQ(p.wal_records, stream.size());  // summed across the shard logs
  EXPECT_EQ(p.records_since_checkpoint, stream.size());
  durable.checkpoint();
  p = durable.probe();
  EXPECT_EQ(p.last_checkpoint, stream.size());
  EXPECT_EQ(p.records_since_checkpoint, 0u);
  EXPECT_EQ(p.wal_segments, 3u);  // one active segment per shard
  fs::remove_all(dir);
}

// ----------------------------------------------- the acceptance path

TEST(IntrospectionAcceptance, PoisonedShardVisibleOnHealthzThenHealsToOk) {
  const RatingSeries stream = wide_stream();
  const fs::path dir = test_dir("acceptance");
  ThreadFaultPlan plan;
  plan.shard = 0;
  plan.at_ordinal = 3;
  plan.kind = ThreadFaultKind::kThrow;
  ThreadFaultInjector injector(plan);
  ShardOptions shard_options = threaded_options(2);
  shard_options.event_hook = injector.hook();
  ShardedDurableOptions options;
  options.fsync = core::durable::FsyncPolicy::kNone;
  options.heal_attempts = 0;  // surface the failure so we can scrape it
  ShardedDurableStream durable(dir, pipeline_config(), shard_options, 30.0, 2,
                               {}, options);
  ExpositionServer server;
  bind_introspection(
      server, nullptr, [&durable] { return durable.system().probe(); },
      [&durable] { return durable.probe(); });
  ASSERT_TRUE(server.start()) << server.error();
  const std::uint16_t port = server.port();

  bool failed = false;
  try {
    for (const Rating& r : stream) durable.submit(r);
    durable.flush();
  } catch (const ShardFailure& failure) {
    failed = true;
    EXPECT_EQ(failure.kind(), ShardFailureKind::kPoisoned);
  }
  ASSERT_TRUE(failed) << "the injected fault never fired";

  // Before the heal: /healthz names the poisoned shard and the fail-stop.
  std::string body = body_of(http_get(port, "/healthz"));
  EXPECT_NE(body.find("\"status\":\"failed\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"state\":\"poisoned\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"failure_kind\":\"poisoned\""), std::string::npos);
  EXPECT_NE(body.find("\"failstops\":1"), std::string::npos) << body;

  // Heal, resume from the exactly-once cursor, finish the stream.
  ASSERT_TRUE(durable.try_heal());
  for (std::size_t i = static_cast<std::size_t>(durable.acknowledged());
       i < stream.size(); ++i) {
    durable.submit(stream[i]);
  }
  durable.flush();

  // After the heal: every shard reports ok and the heal is counted. (The
  // durability block's last_failure keeps the contained failure's text —
  // that is the record of what was healed, not a live verdict.)
  body = body_of(http_get(port, "/healthz"));
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_EQ(body.find("\"state\":\"poisoned\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"heals\":1"), std::string::npos) << body;
  server.stop();

  // And the healed state matches a fault-free reference run, bitwise.
  ShardedRatingSystem reference(pipeline_config(), threaded_options(2), 30.0,
                                2, {});
  for (const Rating& r : stream) reference.submit(r);
  reference.flush();
  EXPECT_EQ(state_digest(durable.system()), state_digest(reference));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace trustrate
