// Global metrics registry (pdet::obs): named counters, gauges and
// fixed-bucket latency histograms, exportable as JSON, text tables, and
// Prometheus text exposition (the telemetry plane's wire payload).
//
// Naming convention is dotted namespaces mirroring the source tree:
//   detect.windows_evaluated   counter   windows scored this run
//   detect.frame_ms            histogram per-frame detect latency
//   hwsim.cycles.classifier_frame  gauge  modeled classifier cycles
// so host-time measurements and the hardware cycle model line up in one
// report (the paper's Table 2 / Section 5 view). The Prometheus export maps
// dots to underscores and prefixes `pdet_` (detect.frame_ms →
// pdet_detect_frame_ms) to satisfy the exposition-format name charset.
//
// Thread model: the registry and every histogram are internally locked — any
// thread may record concurrently, and exports snapshot under the same locks.
// The free helpers (counter_add, gauge_set, observe) are the instrumentation
// surface: they no-op unless metrics_enabled() (one relaxed load), and
// compile out entirely under PDET_OBS_DISABLED. Call sites on hot paths
// should still aggregate locally and publish once per level/frame — the
// registry is a string-keyed map behind a mutex, not a per-window facility.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/stats.hpp"

namespace pdet::obs {

/// Runtime switch for metric collection. Off by default (on when built with
/// PDET_OBS_FORCE_ENABLED).
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;          ///< inclusive upper bucket edges
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
};

/// Fixed-bucket histogram with streaming p50/p95/p99 (util::StreamingQuantile
/// under the hood, so no samples are retained). Internally locked: record()
/// and summary() are safe from any thread, so references handed out by
/// Registry::histogram() stay usable concurrently.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double value);
  HistogramSummary summary() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  util::Accumulator acc_;
  util::StreamingPercentiles percentiles_{{50.0, 95.0, 99.0}};
};

/// Default histogram bounds: exponential milliseconds 0.1 .. ~3200.
std::span<const double> default_latency_bounds_ms();

class Registry {
 public:
  static Registry& instance();

  void counter_add(std::string_view name, long long delta);
  void gauge_set(std::string_view name, double value);
  /// Finds or creates the histogram (bounds apply on first touch only). The
  /// reference stays valid for the registry's lifetime (reset() excepted)
  /// and is safe to record through from any thread.
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = {});
  void observe(std::string_view name, double value);

  /// Lookup; counters read 0 / gauges read 0.0 when never touched.
  long long counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  bool has_histogram(std::string_view name) const;

  /// Drop every metric (tests and repeated bench runs). Invalidates
  /// references returned by histogram() — do not call while another thread
  /// still records through one.
  void reset();

  /// Deterministic exports: keys sorted, fixed float formatting.
  std::string to_json() const;
  std::string to_text() const;
  /// Prometheus text exposition format (version 0.0.4): counters as
  /// `pdet_<name>_total`, gauges as `pdet_<name>`, histograms with
  /// cumulative `le` buckets + `_sum`/`_count`. Dots in metric names become
  /// underscores; every line is `# TYPE`-annotated.
  std::string to_prometheus() const;

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, long long, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

#ifdef PDET_OBS_DISABLED
inline void counter_add(std::string_view, long long = 1) {}
inline void gauge_set(std::string_view, double) {}
inline void observe(std::string_view, double) {}
#else
/// Add `delta` to a counter (creating it at 0).
void counter_add(std::string_view name, long long delta = 1);
/// Set a gauge to an absolute value.
void gauge_set(std::string_view name, double value);
/// Record one sample into a histogram (default latency bounds).
void observe(std::string_view name, double value);
#endif

}  // namespace pdet::obs
