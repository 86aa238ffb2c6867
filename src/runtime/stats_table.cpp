#include "src/runtime/stats_table.hpp"

#include <algorithm>
#include <string>

#include "src/util/strings.hpp"

namespace pdet::runtime {
namespace {

template <class S>
void publish(const S& now, S& last) {
  S::visit(
      [](const StatField& f, const auto& v, auto& prev) {
        if (f.metric == nullptr) return;
        if constexpr (std::is_integral_v<std::decay_t<decltype(v)>>) {
          if (f.kind == StatKind::kCounter) {
            if (v != prev) {
              obs::counter_add(f.metric, static_cast<long long>(v - prev));
              prev = v;
            }
            return;
          }
        }
        if constexpr (std::is_enum_v<std::decay_t<decltype(v)>>) {
          obs::gauge_set(f.metric, static_cast<int>(v));
        } else {
          obs::gauge_set(f.metric, static_cast<double>(v));
        }
      },
      now, last);
}

template <class T>
std::string stat_text(T v) {
  if constexpr (std::is_same_v<T, HealthState>) {
    return to_string(v);
  } else if constexpr (std::is_same_v<T, score::BackendKind>) {
    return score::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return util::to_fixed(v, 3);
  } else {
    return std::to_string(v);
  }
}

template <class S>
void add_rows(util::Table& table, const S& s) {
  S::visit(
      [&table](const StatField& f, const auto& v) {
        table.add_row({f.label, stat_text(v)});
      },
      s);
}

}  // namespace

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDraining: return "draining";
  }
  return "unknown";
}

void merge_runtime_stats(RuntimeStats& acc, const RuntimeStats& in) {
  RuntimeStats::visit(
      [](const StatField& f, auto& a, const auto& b) {
        if (f.kind == StatKind::kMax) {
          a = std::max(a, b);
        } else if constexpr (std::is_arithmetic_v<std::decay_t<decltype(a)>>) {
          if (f.kind != StatKind::kRatio) a += b;
        }
      },
      acc, in);
  derive_stats(acc);
}

RuntimeStats runtime_stats_delta(const RuntimeStats& after,
                                 const RuntimeStats& before) {
  RuntimeStats d = after;
  RuntimeStats::visit(
      [](const StatField& f, auto& v, const auto& b) {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
          if (f.kind == StatKind::kCounter || f.kind == StatKind::kGauge) {
            v -= b;
          }
        }
      },
      d, before);
  derive_stats(d);
  return d;
}

void derive_stats(RuntimeStats& s) {
  s.score_fill = s.score_capacity > 0
                     ? static_cast<double>(s.score_windows) /
                           static_cast<double>(s.score_capacity)
                     : 0.0;
}

void publish_stats(const RuntimeStats& now, RuntimeStats& last) {
  publish(now, last);
}

void publish_stats(const NetStats& now, NetStats& last) { publish(now, last); }

void add_stats_rows(util::Table& table, const RuntimeStats& s) {
  add_rows(table, s);
}

void add_stats_rows(util::Table& table, const NetStats& s) {
  add_rows(table, s);
}

}  // namespace pdet::runtime
