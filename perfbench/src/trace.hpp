// Benchmark-side spans (perfbench).
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public function, kept in memory, and written as one Chrome
// trace_event file when the run ends. Each span has a name, start, end, the
// span that caused it (the innermost open span on the same thread, or an
// explicit parent) and the frame id shared by every span of one frame. The
// program's FrameTimeline hop stamps are harvested into the same trace as
// child spans of their frame (add()), on the same clock (now_ns()).
//
// A Span always measures its own duration, so the replay reads its stage
// times from the spans it records; whether the span is kept depends only on
// Tracer::enabled().
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t frame = 0;   ///< shared by all spans of one frame
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record a finished span (no-op when disabled); returns its id, 0 when
  /// not recorded. `id` != 0 records under an id taken earlier from
  /// reserve() (a frame's root span, whose children are recorded first).
  std::uint32_t add(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent,
                    std::uint64_t frame, std::uint32_t id = 0);

  /// A fresh span id when enabled, else 0.
  std::uint32_t reserve();

  std::size_t size() const;
  /// Chrome trace_event JSON (microseconds); false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  friend class Span;

  std::atomic<bool> enabled_{false};  ///< flipped between phases
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint32_t last_id_ = 0;
};

/// Scoped span around one call. Parent = `parent` when given, else the
/// innermost open Span on this thread; frame id defaults to that span's.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t frame = 0,
                std::uint32_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close now (idempotent); returns the duration in milliseconds.
  double end();
  std::uint32_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t frame_;
  std::uint64_t start_ns_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  Span* outer_ = nullptr;
  bool open_ = true;
  double ms_ = 0.0;
};

}  // namespace perfbench
