#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace trustrate::obs {
namespace {

/// Shortest round-trip-ish rendering; deterministic for equal doubles.
std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  TRUSTRATE_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "histogram bucket bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto slot = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> default_seconds_buckets() {
  // 1 µs .. ~8.6 s in power-of-4 steps (12 finite buckets + implicit +Inf).
  std::vector<double> bounds;
  double b = 1e-6;
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(b);
    b *= 4.0;
  }
  return bounds;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind,
                                               std::string_view help) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    TRUSTRATE_EXPECTS(it->second.kind == kind,
                      "metric re-registered with a different kind");
    return it->second;
  }
  Entry e;
  e.kind = kind;
  e.help = std::string(help);
  return entries_.emplace(std::string(name), std::move(e)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, Kind::kCounter, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, Kind::kGauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      std::string_view help) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, Kind::kHistogram, help);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

std::string MetricsRegistry::prometheus() const {
  std::lock_guard lock(mutex_);
  std::string out;
  // Labeled series ("name{shard=\"0\"}") share one metric family; HELP and
  // TYPE headers are emitted once per family, not once per series. The
  // sorted map keeps a family's series adjacent, so tracking the previous
  // family name is enough. Unlabeled names are their own family and render
  // exactly as before.
  std::string last_family;
  for (const auto& [name, e] : entries_) {
    const std::string family = name.substr(0, name.find('{'));
    if (family != last_family) {
      if (!e.help.empty()) out += "# HELP " + family + ' ' + e.help + '\n';
      switch (e.kind) {
        case Kind::kCounter:
          out += "# TYPE " + family + " counter\n";
          break;
        case Kind::kGauge:
          out += "# TYPE " + family + " gauge\n";
          break;
        case Kind::kHistogram:
          out += "# TYPE " + family + " histogram\n";
          break;
      }
      last_family = family;
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += name + ' ' + std::to_string(e.counter->value()) + '\n';
        break;
      case Kind::kGauge:
        out += name + ' ' + format_number(e.gauge->value()) + '\n';
        break;
      case Kind::kHistogram: {
        // A labeled histogram keeps its labels on every series, with `le`
        // appended: family_bucket{shard="0",le="..."}, family_sum{shard="0"}.
        const std::string labels = name.substr(family.size());  // "" or {..}
        const std::string le_prefix =
            family + "_bucket{" +
            (labels.empty() ? "" : labels.substr(1, labels.size() - 2) + ",") +
            "le=\"";
        const auto counts = e.histogram->bucket_counts();
        const auto& bounds = e.histogram->bounds();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          cumulative += counts[i];
          out += le_prefix + format_number(bounds[i]) + "\"} " +
                 std::to_string(cumulative) + '\n';
        }
        cumulative += counts[bounds.size()];
        out += le_prefix + "+Inf\"} " + std::to_string(cumulative) + '\n';
        out += family + "_sum" + labels + ' ' +
               format_number(e.histogram->sum()) + '\n';
        // _count must equal the +Inf cumulative bucket per the exposition
        // format; deriving it from the same per-bucket loads (rather than
        // the separate count_ cell) keeps a snapshot torn by a concurrent
        // observe() internally consistent.
        out += family + "_count" + labels + ' ' + std::to_string(cumulative) +
               '\n';
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  std::lock_guard lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ',';
        counters += '"' + json_escape(name) + "\":" +
                    std::to_string(e.counter->value());
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ',';
        gauges += '"' + json_escape(name) + "\":" +
                  format_number(e.gauge->value());
        break;
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ',';
        const auto counts = e.histogram->bucket_counts();
        std::string bounds_json, counts_json;
        for (const double b : e.histogram->bounds()) {
          if (!bounds_json.empty()) bounds_json += ',';
          bounds_json += format_number(b);
        }
        for (const std::uint64_t c : counts) {
          if (!counts_json.empty()) counts_json += ',';
          counts_json += std::to_string(c);
        }
        histograms += '"' + json_escape(name) + "\":{\"bounds\":[" +
                      bounds_json + "],\"buckets\":[" + counts_json +
                      "],\"sum\":" + format_number(e.histogram->sum()) +
                      ",\"count\":" + std::to_string(e.histogram->count()) +
                      '}';
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

}  // namespace trustrate::obs
