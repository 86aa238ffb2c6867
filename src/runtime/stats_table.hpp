// The serving stack's one stats table (pdet::runtime).
//
// Every scalar stat of the runtime (RuntimeStats) and of the net frontend
// (NetStats) is one row below: X(type, name, kind, wire id, metric, label).
// The struct members, merge_runtime_stats, runtime_stats_delta, the registry
// publish, the dashboard rows and the wire StatsReport (net/wire.cpp) are
// all generated from the rows, so a new stat is one row plus the code that
// produces its value, and no protocol bump: readers skip unknown ids. Wire
// ids are unique across both tables and never reused; a null metric keeps a
// row out of the registry. The kind is the row's merge rule (the fleet
// router merges its shards' reports with merge_runtime_stats; benches
// subtract lifetime snapshots with runtime_stats_delta):
//
//   kCounter  merge adds, delta subtracts; published as a counter
//   kGauge    a level that adds across servers (each stream lives on one
//             server): merge adds, delta subtracts; published as a gauge
//   kMax      worst-of, high water or wall clock: merge takes the max (enum
//             order is severity), delta keeps `after`
//   kRate     a per-second rate: merge adds, delta keeps `after`
//   kRatio    derived after every merge, delta and decode (derive_stats):
//             score_fill = score_windows / score_capacity; never sent (id 0)
//
// Histogram summaries are not rows: percentiles do not compose, so they stay
// per-shard and off the wire. Merging any partition of a set of snapshots
// gives the result of merging the whole set in one pass, and merge(before,
// delta(after, before)) == after on every summed row; test_runtime draws
// and compares every row by its kind.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>

#include "src/obs/metrics.hpp"
#include "src/score/backend.hpp"
#include "src/util/table.hpp"

namespace pdet::runtime {

/// Coarse serving-health summary, fed by the fault counters: kDegraded while
/// the server is within `recovery_frames` clean completions of a fault,
/// kDraining once stop() has begun. Published as the `runtime.health` gauge
/// and mirrored into the remote StatsReport.
enum class HealthState { kHealthy = 0, kDegraded = 1, kDraining = 2 };

const char* to_string(HealthState state);

/// Largest valid value of each enum a row carries; decoders reject any
/// value above it.
constexpr std::uint64_t enum_max(HealthState) {
  return static_cast<std::uint64_t>(HealthState::kDraining);
}
constexpr std::uint64_t enum_max(score::BackendKind) {
  return static_cast<std::uint64_t>(score::BackendKind::kHwsim);
}

enum class StatKind { kCounter, kGauge, kMax, kRate, kRatio };

// clang-format off
#define PDET_RUNTIME_STATS(X)                                                                                                         \
  X(long long,          submitted,            kCounter, 1,  "runtime.frames_submitted",        "frames submitted")                    \
  X(long long,          completed,            kCounter, 2,  "runtime.frames_completed",        "frames completed (ok + degraded)")    \
  X(long long,          ok,                   kCounter, 3,  "runtime.frames_ok",               "frames ok")                           \
  X(long long,          degraded,             kCounter, 4,  "runtime.frames_degraded",         "frames degraded (rung 1-2)")          \
  X(long long,          dropped_queue,        kCounter, 5,  "runtime.frames_dropped_queue",    "dropped at queue (evicted/refused)")  \
  X(long long,          dropped_deadline,     kCounter, 6,  "runtime.frames_dropped_deadline", "dropped by the scheduler")            \
  X(long long,          errors,               kCounter, 7,  "runtime.frames_error",            "frames delivered as errors")          \
  X(long long,          worker_faults,        kCounter, 8,  "runtime.worker_faults",           "worker faults (contained)")           \
  X(long long,          worker_stalls,        kCounter, 9,  "runtime.worker_stalls",           "worker stalls (watchdog)")            \
  X(long long,          workers_replaced,     kCounter, 10, "runtime.workers_replaced",        "workers replaced")                    \
  X(long long,          poison_frames,        kCounter, 11, "runtime.poison_frames",           "poison frames")                       \
  X(long long,          flight_triggers,      kCounter, 12, "runtime.flight_triggers",         "flight-recorder triggers")            \
  X(HealthState,        health,               kMax,     13, "runtime.health",                  "health")                              \
  X(double,             wall_seconds,         kMax,     14, nullptr,                           "wall clock s")                        \
  X(double,             aggregate_fps,        kRate,    15, "runtime.aggregate_fps",           "aggregate fps")                       \
  X(std::size_t,        queue_depth,          kGauge,   16, "runtime.queue_depth",             "queue depth")                         \
  X(int,                degrade_level,        kMax,     17, "runtime.degrade_level",           "degrade rung")                        \
  X(long long,          engine_frames,        kCounter, 18, nullptr,                           "engine frames")                       \
  X(std::size_t,        engine_alloc_bytes,   kGauge,   19, nullptr,                           "engine workspace bytes (high water)") \
  X(score::BackendKind, backend,              kMax,     20, "runtime.score_backend",           "scoring backend")                     \
  X(long long,          score_batches,        kCounter, 21, nullptr,                           "score batches")                       \
  X(long long,          score_windows,        kCounter, 22, nullptr,                           "score windows")                       \
  X(long long,          score_capacity,       kCounter, 23, "runtime.score_capacity",          "score batch capacity")                \
  X(double,             score_fill,           kRatio,   0,  "runtime.score_fill",              "score batch fill")                    \
  X(long long,          tiles_detected,       kCounter, 24, "runtime.tiles_detected",          "tiles detected")                      \
  X(long long,          tiles_reused,         kCounter, 25, "runtime.tiles_reused",            "tiles reused")                        \
  X(long long,          roi_frames,           kCounter, 26, "runtime.roi_frames",              "ROI frames")                          \
  X(int,                max_tile_age,         kMax,     27, "runtime.max_tile_age",            "worst tile age")                      \
  X(long long,          guard_unusable,       kCounter, 28, "runtime.guard_unusable",          "guard unusable (coasted)")            \
  X(long long,          guard_soft,           kCounter, 29, "runtime.guard_soft",              "guard soft (degraded, still run)")    \
  X(long long,          camera_quarantines,   kCounter, 30, "runtime.camera_quarantines",      "camera quarantines")                  \
  X(long long,          camera_recoveries,    kCounter, 31, "runtime.camera_recoveries",       "camera recoveries")                   \
  X(int,                cameras_suspect,      kGauge,   32, "runtime.cameras_suspect",         "cameras suspect")                     \
  X(int,                cameras_quarantined,  kGauge,   33, "runtime.cameras_quarantined",     "cameras quarantined")

#define PDET_NET_STATS(X)                                                                                                             \
  X(long long,          connections_accepted, kCounter, 34, "net.connections_accepted",        "connections accepted")                \
  X(long long,          connections_closed,   kCounter, 35, "net.connections_closed",          "connections closed")                  \
  X(long long,          connections_refused,  kCounter, 36, "net.connections_refused",         "connections refused (no free slot)")  \
  X(long long,          frames_received,      kCounter, 37, "net.frames_received",             "frames received")                     \
  X(long long,          frames_rejected,      kCounter, 38, "net.frames_rejected",             "frames rejected (bad frame)")         \
  X(long long,          results_sent,         kCounter, 39, "net.results_sent",                "results sent")                        \
  X(long long,          results_dropped,      kCounter, 40, "net.results_dropped",             "results dropped (slow readers)")      \
  X(long long,          decode_errors,        kCounter, 41, "net.decode_errors",               "decode errors")                       \
  X(long long,          bytes_in,             kCounter, 42, "net.bytes_in",                    "bytes in")                            \
  X(long long,          bytes_out,            kCounter, 43, "net.bytes_out",                   "bytes out")                           \
  X(int,                active_connections,   kGauge,   44, "net.active_connections",          "active connections")
// clang-format on

/// One row as the generated code sees it.
struct StatField {
  const char* name;    ///< member name
  StatKind kind;
  std::uint16_t id;    ///< wire id; 0 for the derived (kRatio) rows
  const char* metric;  ///< registry name; nullptr = not published
  const char* label;   ///< dashboard row label
};

#define PDET_STATS_MEMBER(type, name, kind, id, metric, label) type name{};
#define PDET_STATS_VISIT(type, name, kind, id, metric, label) \
  f(StatField{#name, StatKind::kind, id, metric, label}, s.name...);

/// Aggregate accounting snapshot of one DetectionServer (or, merged, of a
/// fleet). Counters cover the server's lifetime; histograms summarize
/// worker-side measurements (server-local obs::Histogram instances, so
/// stats() reads one consistent snapshot). engine_frames and
/// engine_alloc_bytes are valid after stop(); the tile rows are zero unless
/// ServerOptions::tiling is enabled, the guard rows unless
/// ServerOptions::guard is.
struct RuntimeStats {
  PDET_RUNTIME_STATS(PDET_STATS_MEMBER)
  obs::HistogramSummary queue_wait_ms;     ///< submit -> dequeue
  obs::HistogramSummary service_ms;        ///< engine time per frame
  obs::HistogramSummary total_latency_ms;  ///< submit -> delivery

  /// Calls f(field, s.<member>...) once per row, in table order.
  template <class F, class... S>
  static void visit(F&& f, S&... s) {
    PDET_RUNTIME_STATS(PDET_STATS_VISIT)
  }
};

/// The net frontend's scalar counters: net::ServiceStats derives from it,
/// and the fleet router fills one with its own frontend accounting.
struct NetStats {
  PDET_NET_STATS(PDET_STATS_MEMBER)

  /// Calls f(field, s.<member>...) once per row, in table order.
  template <class F, class... S>
  static void visit(F&& f, S&... s) {
    PDET_NET_STATS(PDET_STATS_VISIT)
  }
};

#undef PDET_STATS_VISIT
#undef PDET_STATS_MEMBER

// Rules the generated code relies on, checked per row.
#define PDET_STATS_CHECK(type, name, kind, id, metric, label)              \
  static_assert(!std::is_enum_v<type> || StatKind::kind == StatKind::kMax, \
                #name ": an enum row merges worst-of (kMax)");             \
  static_assert((StatKind::kind == StatKind::kRatio) == ((id) == 0),       \
                #name ": exactly the derived rows stay off the wire");
PDET_RUNTIME_STATS(PDET_STATS_CHECK)
PDET_NET_STATS(PDET_STATS_CHECK)
#undef PDET_STATS_CHECK

#define PDET_STATS_ID(type, name, kind, id, metric, label) id,
inline constexpr std::uint16_t kStatIds[] = {
    PDET_RUNTIME_STATS(PDET_STATS_ID) PDET_NET_STATS(PDET_STATS_ID)};
#undef PDET_STATS_ID
static_assert(
    [] {
      auto ids = std::to_array(kStatIds);
      std::ranges::sort(ids);
      return std::ranges::adjacent_find(ids, [](auto a, auto b) {
               return a != 0 && a == b;
             }) == ids.end();
    }(),
    "wire ids are unique across both tables");

/// The rows a StatsReport carries: all but the derived ones.
inline constexpr std::size_t kWireStatCount =
    std::size(kStatIds) - static_cast<std::size_t>(std::ranges::count(
                              kStatIds, std::uint16_t{0}));

/// Fold `in` into `acc` by each row's kind, then derive_stats(acc).
/// Histogram summaries are left untouched (per-shard data).
void merge_runtime_stats(RuntimeStats& acc, const RuntimeStats& in);

/// `after` with every kCounter/kGauge row replaced by after - before, then
/// derive_stats: the delta a benchmark window observed. merge(before,
/// delta) == after on every summed row.
RuntimeStats runtime_stats_delta(const RuntimeStats& after,
                                 const RuntimeStats& before);

/// Recompute the kRatio rows from the counters they divide: score_fill =
/// score_windows / score_capacity (0 before anything was scored).
void derive_stats(RuntimeStats& s);

/// Write every row that has a metric into the obs registry: kCounter rows
/// as the counter delta since `last` (which is then updated), the others as
/// gauges.
void publish_stats(const RuntimeStats& now, RuntimeStats& last);
void publish_stats(const NetStats& now, NetStats& last);

/// Append one {label, value} row per table row.
void add_stats_rows(util::Table& table, const RuntimeStats& s);
void add_stats_rows(util::Table& table, const NetStats& s);

}  // namespace pdet::runtime
