#include "trace.hpp"

#include <atomic>
#include <cstdio>

#include "src/obs/timeline.hpp"

namespace perfbench {
namespace {

thread_local Span* t_current = nullptr;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (on && spans_.capacity() == 0) spans_.reserve(1u << 16);
  enabled_.store(on, std::memory_order_relaxed);
}

std::uint32_t Tracer::reserve() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

std::uint32_t Tracer::add(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint32_t parent,
                          std::uint64_t frame, std::uint32_t id) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = ++last_id_;
  spans_.push_back(
      SpanRecord{name, start_ns, end_ns, id, parent, frame, thread_index()});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"frame\":%llu}}",
                 first ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, static_cast<unsigned long long>(s.frame));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t frame, std::uint32_t parent)
    : name_(name),
      frame_(frame),
      start_ns_(pdet::obs::timeline_now_ns()),
      parent_(parent),
      outer_(t_current) {
  if (outer_ != nullptr) {
    if (parent_ == 0) parent_ = outer_->id_;
    if (frame_ == 0) frame_ = outer_->frame_;
  }
  id_ = Tracer::instance().reserve();
  t_current = this;
}

Span::~Span() { end(); }

double Span::end() {
  if (!open_) return ms_;
  open_ = false;
  const std::uint64_t end_ns = pdet::obs::timeline_now_ns();
  ms_ = static_cast<double>(end_ns - start_ns_) / 1e6;
  if (id_ != 0) {
    Tracer& tracer = Tracer::instance();
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    tracer.spans_.push_back(SpanRecord{name_, start_ns_, end_ns, id_, parent_,
                                       frame_, thread_index()});
  }
  t_current = outer_;
  return ms_;
}

}  // namespace perfbench
