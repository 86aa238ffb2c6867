#include "src/obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <tuple>

#include "src/util/assert.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"

namespace pdet::obs {
namespace {

#ifdef PDET_OBS_FORCE_ENABLED
constexpr bool kMetricsDefaultOn = true;
#else
constexpr bool kMetricsDefaultOn = false;
#endif

std::atomic<bool> g_metrics{kMetricsDefaultOn};

constexpr double kLatencyBoundsMs[] = {0.1, 0.2, 0.5, 1.0,  2.0,  5.0,
                                       10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                                       1000.0, 3200.0};

/// JSON-safe rendering of a double: finite values as shortest round-trip
/// (%.17g is overkill for reports; %.6g keeps the export stable and small),
/// non-finite as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return util::format("%.6g", v);
}

void append_json_key(std::string& out, const std::string& name) {
  out.push_back('"');
  for (const char c : name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\":";
}

/// Map a dotted pdet metric name onto the Prometheus name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* with the `pdet_` namespace prefix.
std::string prometheus_name(const std::string& name) {
  std::string out = "pdet_";
  out.reserve(name.size() + 5);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus sample value: plain decimal, +Inf/-Inf/NaN spelled out.
std::string prometheus_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::format("%.9g", v);
}

}  // namespace

bool metrics_enabled() { return g_metrics.load(std::memory_order_relaxed); }
void set_metrics_enabled(bool enabled) {
  g_metrics.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  PDET_REQUIRE(!bounds_.empty());
  PDET_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Buckets carry inclusive upper edges (Prometheus "le" convention):
  // bucket i counts values in (bounds[i-1], bounds[i]].
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  acc_.add(value);
  percentiles_.add(value);
}

HistogramSummary Histogram::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSummary s;
  s.count = acc_.count();
  s.mean = acc_.mean();
  s.min = acc_.min();
  s.max = acc_.max();
  s.p50 = percentiles_.value(0);
  s.p95 = percentiles_.value(1);
  s.p99 = percentiles_.value(2);
  s.bounds = bounds_;
  s.buckets = buckets_;
  return s;
}

std::span<const double> default_latency_bounds_ms() {
  return kLatencyBoundsMs;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::counter_add(std::string_view name, long long delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void Registry::gauge_set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  if (bounds.empty()) bounds = default_latency_bounds_ms();
  // Histogram owns a mutex and cannot be moved; construct in place.
  return histograms_
      .emplace(std::piecewise_construct, std::forward_as_tuple(name),
               std::forward_as_tuple(
                   std::vector<double>(bounds.begin(), bounds.end())))
      .first->second;
}

void Registry::observe(std::string_view name, double value) {
  histogram(name).record(value);
}

long long Registry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double Registry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

bool Registry::has_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_.find(name) != histograms_.end();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_key(out, name);
    out += util::format("%lld", value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_key(out, name);
    out += json_number(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_key(out, name);
    const HistogramSummary s = hist.summary();
    out += util::format("{\"count\":%llu",
                        static_cast<unsigned long long>(s.count));
    out += ",\"mean\":" + json_number(s.mean);
    out += ",\"min\":" + json_number(s.min);
    out += ",\"max\":" + json_number(s.max);
    out += ",\"p50\":" + json_number(s.p50);
    out += ",\"p95\":" + json_number(s.p95);
    out += ",\"p99\":" + json_number(s.p99);
    out += ",\"bounds\":[";
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += json_number(s.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += util::format("%llu", static_cast<unsigned long long>(s.buckets[i]));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string Registry::to_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  if (!counters_.empty()) {
    util::Table table({"counter", "value"});
    for (const auto& [name, value] : counters_) {
      table.add_row({name, util::format("%lld", value)});
    }
    out += table.to_string();
  }
  if (!gauges_.empty()) {
    util::Table table({"gauge", "value"});
    for (const auto& [name, value] : gauges_) {
      table.add_row({name, util::format("%.6g", value)});
    }
    out += table.to_string();
  }
  if (!histograms_.empty()) {
    util::Table table(
        {"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, hist] : histograms_) {
      const HistogramSummary s = hist.summary();
      table.add_row({name,
                     util::format("%llu", static_cast<unsigned long long>(s.count)),
                     util::to_fixed(s.mean, 3), util::to_fixed(s.p50, 3),
                     util::to_fixed(s.p95, 3), util::to_fixed(s.p99, 3),
                     util::to_fixed(s.max, 3)});
    }
    out += table.to_string();
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, value] : counters_) {
    const std::string pname = prometheus_name(name) + "_total";
    out += "# TYPE " + pname + " counter\n";
    out += pname + util::format(" %lld\n", value);
  }
  for (const auto& [name, value] : gauges_) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + prometheus_number(value) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const HistogramSummary s = hist.summary();
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " histogram\n";
    // Buckets are stored per-interval; Prometheus wants cumulative counts.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      cumulative += s.buckets[i];
      out += pname + "_bucket{le=\"" + prometheus_number(s.bounds[i]) + "\"}" +
             util::format(" %llu\n",
                          static_cast<unsigned long long>(cumulative));
    }
    cumulative += s.buckets.back();
    out += pname + "_bucket{le=\"+Inf\"}" +
           util::format(" %llu\n", static_cast<unsigned long long>(cumulative));
    // The accumulator keeps mean, not sum; reconstruct (exact for count 0).
    out += pname + "_sum " +
           prometheus_number(s.mean * static_cast<double>(s.count)) + "\n";
    out += pname + util::format("_count %llu\n",
                                static_cast<unsigned long long>(s.count));
  }
  return out;
}

#ifndef PDET_OBS_DISABLED
void counter_add(std::string_view name, long long delta) {
  if (!metrics_enabled()) return;
  Registry::instance().counter_add(name, delta);
}

void gauge_set(std::string_view name, double value) {
  if (!metrics_enabled()) return;
  Registry::instance().gauge_set(name, value);
}

void observe(std::string_view name, double value) {
  if (!metrics_enabled()) return;
  Registry::instance().observe(name, value);
}
#endif

}  // namespace pdet::obs
