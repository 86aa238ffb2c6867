#include "src/obs/timeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/util/strings.hpp"

namespace pdet::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Mirrors runtime::FrameStatus (obs cannot depend on runtime — the
/// dependency runs the other way).
const char* status_name(std::uint8_t status) {
  switch (status) {
    case 0: return "ok";
    case 1: return "degraded";
    case 2: return "drop_queue";
    case 3: return "drop_deadline";
    case 4: return "error";
    case 5: return "degraded_input";
  }
  return "?";
}

/// Mirrors guard::FrameQuality / guard::CameraState (same dependency rule).
const char* quality_name(std::uint8_t quality) {
  switch (quality) {
    case 0: return "healthy";
    case 1: return "degraded";
    case 2: return "unusable";
  }
  return "?";
}

const char* camera_name(std::uint8_t state) {
  switch (state) {
    case 0: return "healthy";
    case 1: return "suspect";
    case 2: return "quarantined";
  }
  return "?";
}

#define PDET_HOP_STAMP_MEMBER(name, ...) &FrameTimeline::name##_ns,
constexpr std::uint64_t FrameTimeline::*kStamps[] = {
    PDET_FRAME_HOPS(PDET_HOP_STAMP_MEMBER, PDET_HOP_STAMP_MEMBER)};
#undef PDET_HOP_STAMP_MEMBER

std::uint64_t stamp(const FrameTimeline& t, Hop h) {
  if (h != Hop::first && h != Hop::last) {
    return t.*kStamps[static_cast<std::size_t>(h)];
  }
  std::uint64_t found = 0;
  for (const auto member : kStamps) {
    if (t.*member != 0 && (found == 0 || h == Hop::last)) found = t.*member;
  }
  return found;
}

}  // namespace

double ms_between(const FrameTimeline& t, Hop from, Hop to) {
  const std::uint64_t from_ns = stamp(t, from);
  const std::uint64_t to_ns = stamp(t, to);
  if (from_ns == 0 || to_ns == 0 || to_ns < from_ns) return 0.0;
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

std::uint64_t timeline_now_ns() {
  // steady_clock's epoch is process-arbitrary but its count is positive in
  // practice (boot-relative); keep 0 reserved for "not recorded".
  const auto ns = Clock::now().time_since_epoch().count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 1;
}

TimelineRing::TimelineRing(std::size_t capacity) {
  slots_.resize(capacity == 0 ? 1 : capacity);
}

void TimelineRing::record(const FrameTimeline& t) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_[head_] = t;
  head_ = (head_ + 1) % slots_.size();
  count_ = std::min(count_ + 1, slots_.size());
  ++total_;
}

std::size_t TimelineRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::uint64_t TimelineRing::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::vector<FrameTimeline> TimelineRing::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FrameTimeline> out;
  out.reserve(count_);
  const std::size_t start = (head_ + slots_.size() - count_) % slots_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(slots_[(start + i) % slots_.size()]);
  }
  return out;
}

FlightRecorder::FlightRecorder(std::size_t depth_per_stream)
    : depth_(depth_per_stream == 0 ? 1 : depth_per_stream) {}

void FlightRecorder::attach_stream(int stream, std::string name) {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (const auto& r : rings_) {
    if (r->stream == stream) return;
  }
  rings_.push_back(
      std::make_unique<StreamRing>(stream, std::move(name), depth_));
}

FlightRecorder::StreamRing* FlightRecorder::find(int stream) {
  // rings_ entries are heap nodes that are never reseated or removed, so a
  // pointer fetched under the attach lock stays valid after releasing it.
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (const auto& r : rings_) {
    if (r->stream == stream) return r.get();
  }
  return nullptr;
}

void FlightRecorder::record(const FrameTimeline& t) {
  StreamRing* ring = find(t.stream);
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->ring.record(t);
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->ring.total_recorded();
  return total;
}

std::uint64_t FlightRecorder::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<FrameTimeline> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  std::vector<FrameTimeline> out;
  for (const auto& r : rings_) {
    const std::vector<FrameTimeline> part = r->ring.snapshot();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TimelineBreakdown breakdown(const FrameTimeline& t) {
  TimelineBreakdown b;
#define PDET_SEGMENT_BREAKDOWN(name, from, to, row) \
  b.name##_ms = ms_between(t, Hop::from, Hop::to);
  PDET_FRAME_SEGMENTS(PDET_SEGMENT_BREAKDOWN, PDET_SEGMENT_BREAKDOWN)
#undef PDET_SEGMENT_BREAKDOWN
  return b;
}

std::string to_line(const FrameTimeline& t) {
  std::string out = util::format(
      "tag=%llu stream=%d seq=%llu %s rung%u",
      static_cast<unsigned long long>(t.trace_id), t.stream,
      static_cast<unsigned long long>(t.sequence), status_name(t.status),
      static_cast<unsigned>(t.degrade_level));
  if (t.input_quality != 0 || t.camera_state != 0) {
    out += util::format(" input=%s cam=%s", quality_name(t.input_quality),
                        camera_name(t.camera_state));
  }
  for (const Segment& s : kSegments) {
    if (stamp(t, s.from) == 0 || stamp(t, s.to) == 0) continue;
    out += util::format(" %s=%.3fms", s.name, ms_between(t, s.from, s.to));
  }
  if (t.tiles_planned > 0) {
    out += util::format(" tiles=%u/%u", static_cast<unsigned>(t.tiles_detected),
                        static_cast<unsigned>(t.tiles_planned));
  }
  if (t.level_count > 0) {
    out += " levels[";
    const std::size_t n =
        std::min<std::size_t>(t.level_count, kTimelineMaxLevels);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out.push_back(' ');
      out += util::format("%.2f", static_cast<double>(t.level_us[i]) / 1e3);
    }
    out += "]ms";
  }
  return out;
}

std::string FlightRecorder::to_text() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  std::string out = "flight recorder dump";
  out += util::format(" (depth %zu per stream, %llu dropped)\n", depth_,
                      static_cast<unsigned long long>(
                          dropped_.load(std::memory_order_relaxed)));
  for (const auto& r : rings_) {
    const std::vector<FrameTimeline> part = r->ring.snapshot();
    out += util::format(
        "stream %d \"%s\": %zu retained of %llu recorded\n", r->stream,
        r->name.c_str(), part.size(),
        static_cast<unsigned long long>(r->ring.total_recorded()));
    for (const FrameTimeline& t : part) {
      out += "  " + to_line(t) + "\n";
    }
  }
  if (rings_.empty()) out += "(no streams attached)\n";
  return out;
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
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

/// One "X" slice on a per-hop row. pid = stream, tid = hop row.
void append_slice(std::string& out, bool& first, const char* name, int pid,
                  int tid, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint64_t tag, std::uint64_t seq) {
  if (start_ns == 0 || end_ns < start_ns) return;
  if (!first) out.push_back(',');
  first = false;
  out += util::format(
      "{\"name\":\"%s\",\"cat\":\"frame\",\"ph\":\"X\",\"ts\":%.3f,"
      "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"tag\":%llu,"
      "\"seq\":%llu}}",
      name, static_cast<double>(start_ns) / 1e3,
      static_cast<double>(end_ns - start_ns) / 1e3, pid, tid,
      static_cast<unsigned long long>(tag),
      static_cast<unsigned long long>(seq));
}

}  // namespace

std::string FlightRecorder::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& r : rings_) {
    // Name the stream's pid row for the trace viewer.
    if (!first) out.push_back(',');
    first = false;
    out += util::format(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
        "\"args\":{\"name\":\"stream ",
        r->stream);
    append_json_escaped(out, r->name);
    out += "\"}}";
    for (const FrameTimeline& t : r->ring.snapshot()) {
      const int pid = r->stream;
      for (const Segment& s : kSegments) {
        if (s.trace_row == 0) continue;
        append_slice(out, first, s.name, pid, s.trace_row, stamp(t, s.from),
                     stamp(t, s.to), t.trace_id, t.sequence);
      }
      // Per-level slices nest inside the engine span, back to back.
      std::uint64_t level_start = t.engine_start_ns;
      const std::size_t n =
          std::min<std::size_t>(t.level_count, kTimelineMaxLevels);
      for (std::size_t i = 0; i < n && level_start != 0; ++i) {
        const std::uint64_t level_end =
            level_start + std::uint64_t{t.level_us[i]} * 1000;
        char level_name[32];
        std::snprintf(level_name, sizeof(level_name), "level %zu", i);
        append_slice(out, first, level_name, pid, 5, level_start, level_end,
                     t.trace_id, t.sequence);
        level_start = level_end;
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace pdet::obs
