// Scoped tracing spans for the detection pipeline (pdet::obs).
//
// The paper's argument is a latency budget (HDTV classified in 1,200,420
// cycles, < 10 ms at 125 MHz), so the reproduction needs to show where host
// time goes stage by stage. A span marks one pipeline stage:
//
//   void compute(...) {
//     PDET_TRACE_SCOPE("hog/cell_grid");
//     ...
//   }
//
// Spans nest lexically. The recorder is thread-safe: each recording thread
// appends to its own buffer (registered process-wide on first use, one
// uncontended lock per span), and the export calls merge every thread's
// events into one start-ordered view. Engine level lanes, tile lanes,
// runtime workers, the net io thread and the watchdog all execute
// instrumented code concurrently and record directly, so spans carry the
// recording thread's id and the merged export reconstructs per-thread
// nesting. Work that runs once per frame records once whichever thread runs
// it, so a frame's spans and counters do not depend on the lane count.
// Exports are Chrome/Perfetto trace_event JSON (chrome://tracing,
// ui.perfetto.dev; one timeline row per recording thread) or an aggregated
// per-stage summary table with total/self time.
//
// Cost model: with tracing disabled at runtime (the default) a span is one
// relaxed atomic load and a branch. Defining PDET_OBS_DISABLED (CMake option
// of the same name) compiles spans out entirely; PDET_OBS_FORCE_ENABLED
// flips the runtime default to on (the CI configuration that keeps the
// instrumented path from rotting).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdet::obs {

/// Runtime switch for span recording. Off by default (on when built with
/// PDET_OBS_FORCE_ENABLED); enabling mid-run is allowed (spans already open
/// are not recorded).
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// One completed (or still-open, dur_ns == 0) span.
struct TraceEvent {
  const char* name;        ///< static string supplied by PDET_TRACE_SCOPE
  std::uint32_t tid;       ///< recording thread (registration order, from 0)
  int depth;               ///< nesting depth at entry (0 = top level)
  std::uint64_t start_ns;  ///< monotonic, relative to the trace epoch
  std::uint64_t dur_ns;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void* buffer_ = nullptr;  ///< recording thread's buffer (type-erased)
  std::uint64_t generation_ = 0;
  std::size_t index_ = 0;
  bool active_ = false;
};

/// Merged snapshot of every thread's recorded spans, ordered by start time
/// (stable, so a parent precedes its children). Spans still open when the
/// snapshot is taken read dur_ns == 0.
std::vector<TraceEvent> trace_events();

/// Drop all recorded spans on every thread (the capacity/dropped counters
/// reset too). Spans open across a clear are discarded, not corrupted.
void clear_trace();

/// Process-wide cap on recorded spans (summed across threads); once reached
/// further spans are counted as dropped instead of recorded, so a long run
/// cannot exhaust memory. Default 1<<20.
void set_trace_capacity(std::size_t max_events);
std::uint64_t trace_dropped();

/// Chrome trace_event JSON ("ph":"X" complete events, microsecond units,
/// one tid row per recording thread). Loadable in chrome://tracing and
/// ui.perfetto.dev.
std::string trace_to_chrome_json();

/// Aggregated per-stage table: count, total ms, self ms (total minus time in
/// nested spans), mean/min/max ms, sorted by total descending.
std::string trace_summary_text();

/// Per-stage aggregate, exposed for programmatic checks (tests, benches).
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};
std::vector<SpanStats> trace_summary();

}  // namespace pdet::obs

#ifdef PDET_OBS_DISABLED
#define PDET_TRACE_SCOPE(name) \
  do {                         \
  } while (false)
#else
#define PDET_OBS_CONCAT_INNER(a, b) a##b
#define PDET_OBS_CONCAT(a, b) PDET_OBS_CONCAT_INNER(a, b)
#define PDET_TRACE_SCOPE(name) \
  ::pdet::obs::ScopedSpan PDET_OBS_CONCAT(pdet_obs_span_, __LINE__)(name)
#endif
