#include "src/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "src/util/strings.hpp"
#include "src/util/table.hpp"

namespace pdet::obs {
namespace {

using Clock = std::chrono::steady_clock;

#ifdef PDET_OBS_FORCE_ENABLED
constexpr bool kObsDefaultOn = true;
#else
constexpr bool kObsDefaultOn = false;
#endif

std::atomic<bool> g_tracing{kObsDefaultOn};

// Each recording thread owns one ThreadBuffer, registered process-wide on
// first span. The buffer's mutex is only ever contended by export/clear
// (record is single-writer), so the per-span cost is an uncontended lock.
// The registry holds shared_ptrs so buffers of exited threads stay readable.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  int depth = 0;
  std::uint64_t generation = 0;  ///< bumped by clear_trace(); guards dtors
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex registry_mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::atomic<std::size_t> total_events{0};  ///< summed across buffers
  std::atomic<std::size_t> capacity{std::size_t{1} << 20};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::int64_t> epoch_ns{
      Clock::now().time_since_epoch().count()};
};

TraceState& state() {
  static TraceState* s = new TraceState;  // leaked: outlive thread dtors
  return *s;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> tls = [] {
    auto buf = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.registry_mutex);
    buf->tid = static_cast<std::uint32_t>(s.buffers.size());
    s.buffers.push_back(buf);
    return buf;
  }();
  return *tls;
}

std::uint64_t now_ns() {
  const std::int64_t now = Clock::now().time_since_epoch().count();
  const std::int64_t epoch = state().epoch_ns.load(std::memory_order_relaxed);
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += util::format("\\u%04x", static_cast<unsigned>(c));
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing_enabled(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!tracing_enabled()) return;
  TraceState& s = state();
  // Reserve a slot in the process-wide budget before touching the buffer so
  // the cap is exact even with many threads racing it.
  if (s.total_events.fetch_add(1, std::memory_order_relaxed) >=
      s.capacity.load(std::memory_order_relaxed)) {
    s.total_events.fetch_sub(1, std::memory_order_relaxed);
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, buf.tid, buf.depth++, now_ns(), 0});
  buffer_ = &buf;
  generation_ = buf.generation;
  index_ = buf.events.size() - 1;
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  ThreadBuffer& buf = *static_cast<ThreadBuffer*>(buffer_);
  std::lock_guard<std::mutex> lock(buf.mutex);
  // A clear_trace() between open and close discarded this span (and reset
  // the depth counter); the stale index must not be written through.
  if (buf.generation != generation_) return;
  TraceEvent& ev = buf.events[index_];
  ev.dur_ns = now_ns() - ev.start_ns;
  --buf.depth;
}

std::vector<TraceEvent> trace_events() {
  TraceState& s = state();
  std::lock_guard<std::mutex> registry_lock(s.registry_mutex);
  std::vector<TraceEvent> merged;
  std::size_t total = 0;
  for (const auto& buf : s.buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    total += buf->events.size();
  }
  merged.reserve(total);
  for (const auto& buf : s.buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    merged.insert(merged.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return merged;
}

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> registry_lock(s.registry_mutex);
  for (const auto& buf : s.buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    buf->events.clear();
    buf->depth = 0;
    ++buf->generation;
  }
  s.total_events.store(0, std::memory_order_relaxed);
  s.dropped.store(0, std::memory_order_relaxed);
  s.epoch_ns.store(Clock::now().time_since_epoch().count(),
                   std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t max_events) {
  state().capacity.store(max_events, std::memory_order_relaxed);
}

std::uint64_t trace_dropped() {
  return state().dropped.load(std::memory_order_relaxed);
}

std::string trace_to_chrome_json() {
  const std::vector<TraceEvent> events = trace_events();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, ev.name);
    // ts/dur are microseconds (the trace_event spec's unit), as decimals so
    // sub-microsecond spans stay visible. One tid row per recording thread.
    out += util::format(
        "\",\"cat\":\"pdet\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":1,\"tid\":%u}",
        static_cast<double>(ev.start_ns) / 1e3,
        static_cast<double>(ev.dur_ns) / 1e3, static_cast<unsigned>(ev.tid));
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::vector<SpanStats> trace_summary() {
  const std::vector<TraceEvent> events = trace_events();
  // Self time = total minus directly nested child time. Nesting is a
  // per-thread property, so each tid gets its own interval stack; the merged
  // start-ordered view interleaves threads but never their scopes.
  std::vector<double> child_ms(events.size(), 0.0);
  std::map<std::uint32_t, std::vector<std::size_t>> stacks;
  std::map<std::string, SpanStats> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    std::vector<std::size_t>& stack = stacks[ev.tid];
    while (!stack.empty()) {
      const TraceEvent& top = events[stack.back()];
      if (ev.start_ns >= top.start_ns + top.dur_ns) {
        stack.pop_back();
      } else {
        break;
      }
    }
    const double dur_ms = static_cast<double>(ev.dur_ns) / 1e6;
    if (!stack.empty()) child_ms[stack.back()] += dur_ms;
    stack.push_back(i);

    SpanStats& s = by_name[ev.name];
    if (s.count == 0) {
      s.name = ev.name;
      s.min_ms = s.max_ms = dur_ms;
    } else {
      s.min_ms = std::min(s.min_ms, dur_ms);
      s.max_ms = std::max(s.max_ms, dur_ms);
    }
    ++s.count;
    s.total_ms += dur_ms;
  }
  // Self time: total minus the duration of directly nested spans.
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_name[events[i].name].self_ms +=
        static_cast<double>(events[i].dur_ns) / 1e6 - child_ms[i];
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, s] : by_name) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

std::string trace_summary_text() {
  const std::vector<SpanStats> stats = trace_summary();
  util::Table table(
      {"span", "count", "total ms", "self ms", "mean ms", "min ms", "max ms"});
  for (const SpanStats& s : stats) {
    table.add_row({s.name,
                   util::format("%llu", static_cast<unsigned long long>(s.count)),
                   util::to_fixed(s.total_ms, 3), util::to_fixed(s.self_ms, 3),
                   util::to_fixed(s.total_ms / static_cast<double>(s.count), 3),
                   util::to_fixed(s.min_ms, 3), util::to_fixed(s.max_ms, 3)});
  }
  std::string out = table.to_string();
  const std::uint64_t dropped = trace_dropped();
  if (dropped > 0) {
    out += util::format("(%llu spans dropped at the trace capacity)\n",
                        static_cast<unsigned long long>(dropped));
  }
  return out;
}

}  // namespace pdet::obs
