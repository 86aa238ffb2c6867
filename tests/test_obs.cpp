// Tests for the observability layer (src/obs): scoped spans, the Chrome
// trace export, the metrics registry, and the disabled-mode guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/hwsim/timing.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeline.hpp"
#include "src/obs/trace.hpp"

namespace pdet::obs {
namespace {

// Every test starts from a clean slate and leaves the global switches off.
class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    set_metrics_enabled(false);
    clear_trace();
    set_trace_capacity(1 << 20);
    Registry::instance().reset();
  }
  void TearDown() override { SetUp(); }
};

// Shallow structural check: balanced braces/brackets outside strings. Enough
// to catch the classic trailing-comma / unterminated-string bugs without a
// JSON parser dependency.
bool json_balanced(const std::string& s) {
  int brace = 0;
  int bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

#ifndef PDET_OBS_DISABLED

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(ObsTest, SpansRecordNestingDepthAndContainment) {
  set_tracing_enabled(true);
  {
    PDET_TRACE_SCOPE("outer");
    {
      PDET_TRACE_SCOPE("inner");
      { PDET_TRACE_SCOPE("leaf"); }
    }
    { PDET_TRACE_SCOPE("inner"); }
  }
  const auto& events = trace_events();
  ASSERT_EQ(events.size(), 4u);
  // Start order: outer, inner, leaf, inner.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "leaf");
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[3].depth, 1);
  // Children start no earlier and end no later than their parent.
  for (int child : {1, 2, 3}) {
    const auto& p = events[0];
    const auto& c = events[static_cast<std::size_t>(child)];
    EXPECT_GE(c.start_ns, p.start_ns) << "child " << child;
    EXPECT_LE(c.start_ns + c.dur_ns, p.start_ns + p.dur_ns)
        << "child " << child;
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  { PDET_TRACE_SCOPE("ignored"); }
  EXPECT_TRUE(trace_events().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST_F(ObsTest, CapacityOverflowCountsDroppedSpans) {
  set_tracing_enabled(true);
  set_trace_capacity(2);
  for (int i = 0; i < 5; ++i) {
    PDET_TRACE_SCOPE("burst");
  }
  EXPECT_EQ(trace_events().size(), 2u);
  EXPECT_EQ(trace_dropped(), 3u);
  // The summary table mentions the loss so a truncated trace is never
  // mistaken for a complete one.
  EXPECT_NE(trace_summary_text().find("dropped"), std::string::npos);
}

TEST_F(ObsTest, ChromeJsonIsWellFormedAndComplete) {
  set_tracing_enabled(true);
  {
    PDET_TRACE_SCOPE("stage/a");
    { PDET_TRACE_SCOPE("stage/b"); }
  }
  const std::string json = trace_to_chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"stage/a\""), std::string::npos);
  EXPECT_NE(json.find("\"stage/b\""), std::string::npos);
  // One complete ("ph":"X") record per recorded span.
  EXPECT_EQ(count_of(json, "\"ph\":\"X\""), trace_events().size());
}

TEST_F(ObsTest, SummaryAggregatesCountsAndSelfTime) {
  set_tracing_enabled(true);
  for (int i = 0; i < 3; ++i) {
    PDET_TRACE_SCOPE("parent");
    { PDET_TRACE_SCOPE("child"); }
  }
  const std::vector<SpanStats> stats = trace_summary();
  ASSERT_EQ(stats.size(), 2u);
  const SpanStats* parent = nullptr;
  const SpanStats* child = nullptr;
  for (const auto& s : stats) {
    if (s.name == "parent") parent = &s;
    if (s.name == "child") child = &s;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->count, 3u);
  EXPECT_EQ(child->count, 3u);
  EXPECT_GE(parent->total_ms, child->total_ms);
  // Self time excludes the nested child: self + child total ≈ parent total.
  EXPECT_NEAR(parent->self_ms + child->total_ms, parent->total_ms,
              1e-6 + parent->total_ms * 1e-6);
  EXPECT_NEAR(child->self_ms, child->total_ms, 1e-9);
  EXPECT_LE(parent->min_ms, parent->max_ms);
}

TEST_F(ObsTest, ConcurrentSpansMergeWithPerThreadOrderPreserved) {
  set_tracing_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  static const char* kNames[kThreads] = {"mt/t0", "mt/t1", "mt/t2", "mt/t3"};
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([i, &ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {}  // start together: real interleaving
      for (int s = 0; s < kSpansPerThread; ++s) {
        PDET_TRACE_SCOPE(kNames[i]);
        { PDET_TRACE_SCOPE("mt/leaf"); }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 2));
  EXPECT_EQ(trace_dropped(), 0u);
  // The merged view is start-ordered regardless of which thread recorded.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns) << "index " << i;
  }
  // Per tid: one owner name, full count, and intact nesting — the leaf
  // always directly follows its parent at depth+1 in that thread's order.
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  ASSERT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  for (const std::uint32_t tid : tids) {
    std::vector<const TraceEvent*> own;
    for (const TraceEvent& e : events) {
      if (e.tid == tid) own.push_back(&e);
    }
    ASSERT_EQ(own.size(), static_cast<std::size_t>(kSpansPerThread * 2));
    const char* owner = own[0]->name;
    for (std::size_t s = 0; s < own.size(); s += 2) {
      EXPECT_STREQ(own[s]->name, owner);
      EXPECT_EQ(own[s]->depth, 0);
      EXPECT_STREQ(own[s + 1]->name, "mt/leaf");
      EXPECT_EQ(own[s + 1]->depth, 1);
      EXPECT_GE(own[s + 1]->start_ns, own[s]->start_ns);
      EXPECT_LE(own[s + 1]->start_ns + own[s + 1]->dur_ns,
                own[s]->start_ns + own[s]->dur_ns);
    }
  }
  // And the Chrome export stays well-formed with one row per thread.
  const std::string json = trace_to_chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json.substr(0, 400);
  EXPECT_EQ(count_of(json, "\"ph\":\"X\""), events.size());
}

TEST_F(ObsTest, FreeHelpersNoOpWhileMetricsDisabled) {
  ASSERT_FALSE(metrics_enabled());
  counter_add("off.counter", 7);
  gauge_set("off.gauge", 1.0);
  observe("off.hist", 2.0);
  EXPECT_EQ(Registry::instance().counter("off.counter"), 0);
  EXPECT_EQ(Registry::instance().gauge("off.gauge"), 0.0);
  EXPECT_FALSE(Registry::instance().has_histogram("off.hist"));
}

#else  // PDET_OBS_DISABLED

TEST_F(ObsTest, CompiledOutMacroAndHelpersAreInert) {
  set_tracing_enabled(true);
  set_metrics_enabled(true);
  { PDET_TRACE_SCOPE("ignored"); }
  counter_add("off.counter", 7);
  gauge_set("off.gauge", 1.0);
  observe("off.hist", 2.0);
  EXPECT_TRUE(trace_events().empty());
  EXPECT_EQ(Registry::instance().counter("off.counter"), 0);
  EXPECT_FALSE(Registry::instance().has_histogram("off.hist"));
}

#endif  // PDET_OBS_DISABLED

TEST_F(ObsTest, CountersAndGaugesAggregate) {
  set_metrics_enabled(true);
  Registry::instance().counter_add("detect.windows_evaluated", 100);
  Registry::instance().counter_add("detect.windows_evaluated", 25);
  Registry::instance().gauge_set("tracker.active_tracks", 2.0);
  Registry::instance().gauge_set("tracker.active_tracks", 5.0);
  EXPECT_EQ(Registry::instance().counter("detect.windows_evaluated"), 125);
  EXPECT_EQ(Registry::instance().gauge("tracker.active_tracks"), 5.0);
  EXPECT_EQ(Registry::instance().counter("never.touched"), 0);
}

TEST_F(ObsTest, HistogramSummaryTracksMomentsAndPercentiles) {
  Histogram h({1.0, 10.0, 100.0});
  // i/10.0 (not i*0.1): the bucket-edge samples 1.0/10.0/100.0 stay exact.
  for (int i = 1; i <= 1000; ++i) h.record(i / 10.0);  // 0.1 .. 100.0
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.mean, 50.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 0.1);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Uniform samples: the P^2 markers track the true percentiles closely.
  EXPECT_NEAR(s.p50, 50.0, 2.0);
  EXPECT_NEAR(s.p95, 95.0, 2.0);
  EXPECT_NEAR(s.p99, 99.0, 2.0);
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 10u);   // <= 1.0  (0.1 .. 1.0)
  EXPECT_EQ(s.buckets[1], 90u);   // (1, 10]
  EXPECT_EQ(s.buckets[2], 900u);  // (10, 100]
  EXPECT_EQ(s.buckets[3], 0u);    // overflow
  std::uint64_t total = 0;
  for (const auto b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

TEST_F(ObsTest, MetricsJsonIsDeterministicAndOrderIndependent) {
  auto populate = [](bool reversed) {
    Registry& r = Registry::instance();
    r.reset();
    const char* names[2] = {"alpha.count", "zeta.count"};
    for (int i = 0; i < 2; ++i) {
      r.counter_add(names[reversed ? 1 - i : i], 3);
    }
    r.gauge_set("hwsim.max_fps", 60.5);
    r.observe("detect.frame_ms", 12.5);
    r.observe("detect.frame_ms", 14.5);
    return r.to_json();
  };
  const std::string a = populate(false);
  const std::string b = populate(true);
  EXPECT_EQ(a, b) << "export must not depend on insertion order";
  EXPECT_TRUE(json_balanced(a)) << a;
  EXPECT_NE(a.find("\"alpha.count\":3"), std::string::npos) << a;
  EXPECT_NE(a.find("\"detect.frame_ms\""), std::string::npos);
  EXPECT_NE(a.find("\"p95\""), std::string::npos);
  // Text report renders every section too.
  Registry& r = Registry::instance();
  const std::string text = r.to_text();
  EXPECT_NE(text.find("alpha.count"), std::string::npos);
  EXPECT_NE(text.find("hwsim.max_fps"), std::string::npos);
  EXPECT_NE(text.find("detect.frame_ms"), std::string::npos);
}

TEST_F(ObsTest, HwsimBridgePublishesCycleModel) {
  set_metrics_enabled(true);
  // HDTV configuration: the paper's 135 x 8892 = 1,200,420 classifier cycles.
  const hwsim::TimingModel model(hwsim::timing_config_for_frame(1920, 1080));
  const std::vector<double> scales = {1.0, 2.0};
  hwsim::publish_timing_metrics(model, scales);
  Registry& r = Registry::instance();
#ifdef PDET_OBS_DISABLED
  // Compiled-out helpers: the bridge publishes nothing at all.
  EXPECT_EQ(r.gauge("hwsim.cycles.classifier_frame"), 0.0);
#else
  EXPECT_EQ(r.gauge("hwsim.cycles.classifier_frame"), 1200420.0);
  EXPECT_EQ(r.gauge("hwsim.cycles.extractor_frame"),
            static_cast<double>(model.extractor_frame_cycles()));
  EXPECT_EQ(r.gauge("hwsim.cycles.frame_latency"),
            static_cast<double>(model.frame_latency_cycles()));
  EXPECT_EQ(r.gauge("hwsim.cycles.classifier_level.0"),
            static_cast<double>(model.classifier_frame_cycles_at_scale(1.0)));
  EXPECT_EQ(r.gauge("hwsim.cycles.classifier_level.1"),
            static_cast<double>(model.classifier_frame_cycles_at_scale(2.0)));
  EXPECT_GT(r.gauge("hwsim.max_fps"), 60.0);
  // A level smaller than the window is dropped by the circuit: 0 cycles.
  hwsim::publish_timing_metrics(
      hwsim::TimingModel(hwsim::timing_config_for_frame(128, 192)), scales);
  EXPECT_EQ(r.gauge("hwsim.cycles.classifier_level.1"), 0.0);
  // The bridge rides the metrics switch like every other helper.
  r.reset();
  set_metrics_enabled(false);
  hwsim::publish_timing_metrics(model, scales);
  EXPECT_EQ(r.gauge("hwsim.cycles.classifier_frame"), 0.0);
#endif
}

// --- frame timelines & the flight recorder (unconditional: the timeline
// layer is data plumbing for the wire protocol, so it works — and is tested
// — even under PDET_OBS_DISABLED) ---

FrameTimeline make_timeline(std::uint64_t tag, int stream) {
  FrameTimeline t;
  t.trace_id = tag;
  t.stream = stream;
  t.sequence = tag;
  t.status = 0;
  const std::uint64_t base = 1'000'000'000ull + tag * 1'000'000ull;
  t.service_recv_ns = base;
  t.queue_admit_ns = base + 100'000;       // +0.1 ms
  t.schedule_ns = base + 600'000;          // +0.5 ms queued
  t.engine_start_ns = base + 700'000;
  t.engine_end_ns = base + 3'700'000;      // 3 ms engine
  t.deliver_ns = base + 3'900'000;
  t.wire_send_ns = base + 4'000'000;
  t.level_count = 2;
  t.level_us[0] = 2000;
  t.level_us[1] = 1000;
  return t;
}

TEST(TimelineRing, WrapsOverwritingOldestWithoutLosingCount) {
  TimelineRing ring(4);
  for (std::uint64_t tag = 1; tag <= 10; ++tag) {
    ring.record(make_timeline(tag, 0));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  const std::vector<FrameTimeline> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].trace_id, 7u + i) << "oldest-first order";
  }
}

TEST(TimelineBreakdown, DerivesHopDurationsFromStamps) {
  const FrameTimeline t = make_timeline(12, 0);
  const TimelineBreakdown b = breakdown(t);
  EXPECT_NEAR(b.admit_ms, 0.1, 1e-9);
  EXPECT_NEAR(b.queue_ms, 0.5, 1e-9);
  EXPECT_NEAR(b.engine_ms, 3.0, 1e-9);
  EXPECT_NEAR(b.deliver_ms, 0.2, 1e-9);
  EXPECT_NEAR(b.egress_ms, 0.1, 1e-9);
  EXPECT_NEAR(b.total_ms, 4.0, 1e-9);
  // Client-only hops read 0 for a server-side record.
  EXPECT_EQ(b.ingress_ms, 0.0);
  EXPECT_EQ(b.return_ms, 0.0);
  // Missing stamps never yield negative or garbage durations.
  FrameTimeline partial;
  partial.engine_start_ns = 5;
  const TimelineBreakdown pb = breakdown(partial);
  EXPECT_EQ(pb.engine_ms, 0.0);
  EXPECT_EQ(pb.total_ms, 0.0);
  // The one-line rendering carries the key fields.
  const std::string line = to_line(t);
  EXPECT_NE(line.find("tag=12"), std::string::npos) << line;
  EXPECT_NE(line.find("engine="), std::string::npos) << line;
}

TEST(FlightRecorderTest, RecordsPerStreamRingsAndCountsUnknownAsDropped) {
  FlightRecorder fr(/*depth_per_stream=*/3);
  fr.attach_stream(0, "cam0");
  fr.attach_stream(1, "cam1");
  fr.attach_stream(1, "cam1");  // idempotent
  for (std::uint64_t tag = 1; tag <= 5; ++tag) {
    fr.record(make_timeline(tag, 0));
  }
  fr.record(make_timeline(100, 1));
  fr.record(make_timeline(7, 9));  // never attached
  EXPECT_EQ(fr.total_recorded(), 6u);
  EXPECT_EQ(fr.dropped(), 1u);
  const std::vector<FrameTimeline> snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 4u);  // 3 retained on stream 0 + 1 on stream 1
  EXPECT_EQ(snap[0].trace_id, 3u);  // stream-major, oldest first
  EXPECT_EQ(snap[1].trace_id, 4u);
  EXPECT_EQ(snap[2].trace_id, 5u);
  EXPECT_EQ(snap[3].trace_id, 100u);
  const std::string json = fr.to_chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("cam0"), std::string::npos);
  EXPECT_NE(json.find("cam1"), std::string::npos);
  const std::string text = fr.to_text();
  EXPECT_NE(text.find("tag=100"), std::string::npos) << text;
}

TEST(FlightRecorderTest, ConcurrentRecordingKeepsEveryFrameAccounted) {
  constexpr int kStreams = 4;
  constexpr int kFramesPerStream = 200;
  FlightRecorder fr(/*depth_per_stream=*/16);
  for (int s = 0; s < kStreams; ++s) {
    fr.attach_stream(s, "cam" + std::to_string(s));
  }
  std::vector<std::thread> pool;
  for (int s = 0; s < kStreams; ++s) {
    pool.emplace_back([s, &fr] {
      for (std::uint64_t tag = 0; tag < kFramesPerStream; ++tag) {
        fr.record(make_timeline(tag, s));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(fr.total_recorded(),
            static_cast<std::uint64_t>(kStreams * kFramesPerStream));
  EXPECT_EQ(fr.dropped(), 0u);
  EXPECT_EQ(fr.snapshot().size(), static_cast<std::size_t>(kStreams * 16));
}

}  // namespace
}  // namespace pdet::obs
