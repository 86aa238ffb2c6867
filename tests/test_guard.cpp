// Tests for pdet::guard: the deterministic sensor-fault model, the frame
// integrity gate, the camera-health quarantine machine, and their
// integration into the runtime server and the TCP detection service
// (seeded sensor chaos end to end, exactly-once on both wire ends).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dataset/multistream.hpp"
#include "src/fault/injector.hpp"
#include "src/guard/gate.hpp"
#include "src/guard/health.hpp"
#include "src/guard/sensor.hpp"
#include "src/hog/descriptor.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"
#include "src/runtime/server.hpp"
#include "src/util/rng.hpp"

namespace pdet::guard {
namespace {

// Live-looking frame: per-pixel noise, like every rendered or real capture.
// Consecutive seeds differ at every pixel, so freeze/tear detection by exact
// equality has no natural false positives on these.
imgproc::ImageF noise_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (float& p : img.pixels()) {
    p = static_cast<float>(rng.uniform(0.1, 0.9));
  }
  return img;
}

svm::LinearModel make_model(const hog::HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (float& w : model.weights) {
    w = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  model.bias = -0.25f;
  return model;
}

// --- SensorSimulator --------------------------------------------------------

TEST(SensorSim, CleanPassThroughWhenDisarmed) {
  SensorSimulator sim(7, 1);
  const imgproc::ImageF original = noise_frame(64, 48, 1);
  imgproc::ImageF frame = original;
  EXPECT_EQ(sim.apply(0, 0, frame), 0u);
  EXPECT_TRUE(frame == original);
}

TEST(SensorSim, SameSeedAndPlanProduceIdenticalBytes) {
  // The corruption applied to frame (stream, i) is a pure function of the
  // plan and the frame identity: two independent runs agree byte for byte.
  constexpr int kFrames = 12;
  std::vector<imgproc::ImageF> out_a;
  std::vector<std::uint32_t> mask_a;
  for (int run = 0; run < 2; ++run) {
    fault::Plan plan;
    plan.seed = 99;
    plan.with("sensor.frame.freeze", 0.3)
        .with("sensor.frame.blackout", 0.2)
        .with("sensor.rows.dead", 0.3, /*param=*/6)
        .with("sensor.noise.saltpepper", 0.5);
    fault::ScopedPlan armed(plan);
    SensorSimulator sim(42, 1);
    for (int f = 0; f < kFrames; ++f) {
      imgproc::ImageF frame =
          noise_frame(64, 48, 1000 + static_cast<std::uint64_t>(f));
      const std::uint32_t mask =
          sim.apply(0, static_cast<std::uint64_t>(f), frame);
      if (run == 0) {
        out_a.push_back(frame);
        mask_a.push_back(mask);
      } else {
        EXPECT_EQ(mask, mask_a[static_cast<std::size_t>(f)]) << "frame " << f;
        EXPECT_TRUE(frame == out_a[static_cast<std::size_t>(f)])
            << "frame " << f;
      }
    }
  }
  // The plan was hot enough that something actually fired.
  std::uint32_t any = 0;
  for (const std::uint32_t m : mask_a) any |= m;
  EXPECT_NE(any, 0u);
}

TEST(SensorSim, FreezeReplaysThePreviousOutputFrame) {
  fault::Plan plan;
  plan.seed = 5;
  // skip = 1: the first check passes clean, the second fires.
  plan.with("sensor.frame.freeze", 1.0, /*param=*/0, /*skip=*/1);
  fault::ScopedPlan armed(plan);
  SensorSimulator sim(11, 1);
  imgproc::ImageF first = noise_frame(64, 48, 1);
  EXPECT_EQ(sim.apply(0, 0, first), 0u);
  imgproc::ImageF second = noise_frame(64, 48, 2);
  EXPECT_EQ(sim.apply(0, 1, second), kFaultFreeze);
  EXPECT_TRUE(second == first) << "freeze must replay the previous output";
}

// --- FrameGuard verdicts ----------------------------------------------------

TEST(FrameGuard, LiveNoiseFramesAreHealthy) {
  FrameGuard gate;
  for (int f = 0; f < 8; ++f) {
    const GuardVerdict& v =
        gate.inspect(noise_frame(96, 64, static_cast<std::uint64_t>(f)));
    EXPECT_EQ(v.quality, FrameQuality::kHealthy) << "frame " << f;
    EXPECT_EQ(v.reasons, 0u);
    EXPECT_TRUE(v.frame_changed);
  }
}

TEST(FrameGuard, ExactRepeatIsFrozenAndUnusable) {
  FrameGuard gate;
  const imgproc::ImageF frame = noise_frame(96, 64, 3);
  EXPECT_EQ(gate.inspect(frame).quality, FrameQuality::kHealthy);
  const GuardVerdict& v = gate.inspect(frame);
  EXPECT_EQ(v.quality, FrameQuality::kUnusable);
  EXPECT_TRUE(v.reasons & kReasonFrozen);
  EXPECT_FALSE(v.frame_changed);
}

TEST(FrameGuard, ResetHistoryForgetsThePreviousFrame) {
  FrameGuard gate;
  const imgproc::ImageF frame = noise_frame(96, 64, 3);
  gate.inspect(frame);
  gate.reset_history();
  EXPECT_EQ(gate.inspect(frame).quality, FrameQuality::kHealthy);
}

TEST(FrameGuard, TornFrameMixingOldTopNewBottomIsUnusable) {
  FrameGuard gate;
  const imgproc::ImageF prev = noise_frame(96, 64, 4);
  gate.inspect(prev);
  // Transfer tear: top half still the previous exposure, bottom half new.
  imgproc::ImageF torn = noise_frame(96, 64, 5);
  for (int y = 0; y < 32; ++y) {
    const float* s = prev.row(y);
    std::copy(s, s + prev.width(), torn.row(y));
  }
  const GuardVerdict& v = gate.inspect(torn);
  EXPECT_EQ(v.quality, FrameQuality::kUnusable);
  EXPECT_TRUE(v.reasons & kReasonTear);
}

TEST(FrameGuard, BlackoutAndSaturationAreUnusable) {
  FrameGuard gate;
  imgproc::ImageF dark(96, 64);
  dark.fill(0.0f);
  const GuardVerdict& v = gate.inspect(dark);
  EXPECT_EQ(v.quality, FrameQuality::kUnusable);
  EXPECT_TRUE(v.reasons & kReasonBlackout);
  EXPECT_TRUE(v.reasons & kReasonLowContrast);

  FrameGuard gate2;
  imgproc::ImageF bright(96, 64);
  bright.fill(1.0f);
  const GuardVerdict& w = gate2.inspect(bright);
  EXPECT_EQ(w.quality, FrameQuality::kUnusable);
  EXPECT_TRUE(w.reasons & kReasonOverexposed);
}

TEST(FrameGuard, DeadRowLadderDegradedThenUnusable) {
  // The gate flags 2 dead lines as degraded and 6 as unusable.
  {
    FrameGuard gate;
    imgproc::ImageF frame = noise_frame(96, 64, 6);
    for (int y = 10; y < 13; ++y) {  // 3 dead rows: degraded
      float* r = frame.row(y);
      std::fill(r, r + frame.width(), 0.0f);
    }
    const GuardVerdict& v = gate.inspect(frame);
    EXPECT_EQ(v.quality, FrameQuality::kDegraded);
    EXPECT_TRUE(v.reasons & kReasonDeadRows);
    EXPECT_EQ(v.dead_rows, 3);
  }
  {
    FrameGuard gate;
    imgproc::ImageF frame = noise_frame(96, 64, 7);
    for (int y = 10; y < 18; ++y) {  // 8 dead rows: unusable
      float* r = frame.row(y);
      std::fill(r, r + frame.width(), 0.0f);
    }
    const GuardVerdict& v = gate.inspect(frame);
    EXPECT_EQ(v.quality, FrameQuality::kUnusable);
    EXPECT_EQ(v.dead_rows, 8);
  }
}

TEST(FrameGuard, DeadColumnsAreFlagged) {
  FrameGuard gate;
  imgproc::ImageF frame = noise_frame(96, 64, 8);
  for (int y = 0; y < frame.height(); ++y) {
    float* r = frame.row(y);
    std::fill(r + 20, r + 28, 0.0f);  // 8 dead columns
  }
  const GuardVerdict& v = gate.inspect(frame);
  EXPECT_EQ(v.quality, FrameQuality::kUnusable);
  EXPECT_TRUE(v.reasons & kReasonDeadCols);
  EXPECT_EQ(v.dead_cols, 8);
}

TEST(FrameGuard, ReasonsRenderHumanReadable) {
  EXPECT_EQ(reasons_to_string(0), "none");
  EXPECT_EQ(reasons_to_string(kReasonFrozen | kReasonDeadRows),
            "frozen|dead-rows");
}

// The no-false-positive acceptance: rendered street scenes from ten
// different seeds, inspected in sequence, must never trip the gate or the
// camera machine — every rendered frame carries per-pixel noise, so exact
// freeze/tear equality cannot fire on live content.
TEST(FrameGuard, TenCleanSeedsProduceNoFalseVerdictsOrQuarantine) {
  dataset::MultiStreamOptions mopts;
  mopts.scene.width = 192;
  mopts.scene.height = 144;
  mopts.scene.camera.focal_px = 420.0;
  mopts.min_pedestrians = 0;
  mopts.max_pedestrians = 2;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const dataset::MultiStreamSource source(seed, mopts);
    FrameGuard gate;
    CameraHealth camera;
    for (int f = 0; f < 8; ++f) {
      const GuardVerdict& v = gate.inspect(source.frame(0, f).image);
      EXPECT_EQ(v.quality, FrameQuality::kHealthy)
          << "seed " << seed << " frame " << f << " reasons "
          << reasons_to_string(v.reasons);
      EXPECT_EQ(camera.observe(v.quality), CameraState::kHealthy);
    }
  }
}

// --- CameraHealth -----------------------------------------------------------

TEST(CameraHealth, LadderEscalatesAndRecoversWithHysteresis) {
  CameraHealthOptions opts;
  opts.suspect_after = 2;
  opts.quarantine_after = 4;
  opts.recovery_frames = 3;
  CameraHealth camera(opts);

  EXPECT_EQ(camera.observe(FrameQuality::kUnusable), CameraState::kHealthy);
  EXPECT_EQ(camera.observe(FrameQuality::kUnusable), CameraState::kSuspect);
  EXPECT_EQ(camera.observe(FrameQuality::kUnusable), CameraState::kSuspect);
  EXPECT_EQ(camera.observe(FrameQuality::kUnusable),
            CameraState::kQuarantined);
  // Recovery is one level at a time: 3 clean -> suspect, 3 more -> healthy.
  EXPECT_EQ(camera.observe(FrameQuality::kHealthy), CameraState::kQuarantined);
  EXPECT_EQ(camera.observe(FrameQuality::kHealthy), CameraState::kQuarantined);
  EXPECT_EQ(camera.observe(FrameQuality::kHealthy), CameraState::kSuspect);
  EXPECT_EQ(camera.observe(FrameQuality::kHealthy), CameraState::kSuspect);
  EXPECT_EQ(camera.observe(FrameQuality::kHealthy), CameraState::kSuspect);
  EXPECT_EQ(camera.observe(FrameQuality::kHealthy), CameraState::kHealthy);
}

TEST(CameraHealth, DegradedFramesAreNeutral) {
  CameraHealthOptions opts;
  opts.suspect_after = 2;
  opts.quarantine_after = 3;
  opts.recovery_frames = 2;
  CameraHealth camera(opts);
  // A degraded frame breaks an unusable run without counting as clean.
  camera.observe(FrameQuality::kUnusable);
  camera.observe(FrameQuality::kDegraded);
  camera.observe(FrameQuality::kUnusable);
  EXPECT_EQ(camera.state(), CameraState::kHealthy)
      << "degraded reset the unusable run";
  // And it breaks a clean recovery run too.
  camera.observe(FrameQuality::kUnusable);
  ASSERT_EQ(camera.state(), CameraState::kSuspect);
  camera.observe(FrameQuality::kHealthy);
  camera.observe(FrameQuality::kDegraded);
  camera.observe(FrameQuality::kHealthy);
  EXPECT_EQ(camera.state(), CameraState::kSuspect)
      << "degraded reset the clean run";
  camera.observe(FrameQuality::kHealthy);
  EXPECT_EQ(camera.state(), CameraState::kHealthy);
}

TEST(CameraHealth, InterleavedScheduleIsDeterministic) {
  // Two machines fed the same verdict stream agree at every step.
  util::Rng rng(123);
  CameraHealth a;
  CameraHealth b;
  for (int i = 0; i < 500; ++i) {
    const auto q = static_cast<FrameQuality>(rng.uniform_int(0, 2));
    ASSERT_EQ(a.observe(q), b.observe(q)) << "step " << i;
    ASSERT_EQ(a.unusable_run(), b.unusable_run());
    ASSERT_EQ(a.clean_run(), b.clean_run());
  }
}

// --- fault::Injector introspection ------------------------------------------

TEST(Injector, PointsDistinguishPlannedFromUnplannedSites) {
  fault::Plan plan;
  plan.seed = 3;
  plan.with("sensor.frame.blackout", 1.0);
  fault::ScopedPlan armed(plan);
  (void)fault::check("sensor.frame.blackout");
  (void)fault::check("sensor.frame.freeze");  // unplanned: counted, no fire
  const auto points = fault::Injector::instance().points();
  bool saw_planned = false;
  bool saw_unplanned = false;
  for (const fault::Injector::PointInfo& p : points) {
    if (p.point == "sensor.frame.blackout") {
      saw_planned = true;
      EXPECT_TRUE(p.planned);
      EXPECT_GE(p.checks, 1);
      EXPECT_GE(p.fires, 1);
    }
    if (p.point == "sensor.frame.freeze") {
      saw_unplanned = true;
      EXPECT_FALSE(p.planned);
      EXPECT_GE(p.checks, 1);
      EXPECT_EQ(p.fires, 0);
    }
  }
  EXPECT_TRUE(saw_planned);
  EXPECT_TRUE(saw_unplanned);
}

TEST(Injector, RegisteredSitesAreSortedAndIncludeSensorSites) {
  const auto sites = fault::registered_sites();
  ASSERT_FALSE(sites.empty());
  bool saw_freeze = false;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (std::string(sites[i].name) == "sensor.frame.freeze") saw_freeze = true;
    if (i > 0) {
      EXPECT_LT(std::string(sites[i - 1].name), std::string(sites[i].name))
          << "registry must stay sorted (fault-list output + binary search)";
    }
  }
  EXPECT_TRUE(saw_freeze);
}

// --- runtime integration ----------------------------------------------------

runtime::ServerOptions guarded_options() {
  runtime::ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 8;
  opts.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.scheduler.max_level = 0;  // pin full quality: assert statuses exactly
  opts.multiscale.scales = {1.0, 1.5};
  opts.guard.enabled = true;
  return opts;
}

TEST(DetectionServer, GateShortCircuitsUnusableFramesExactlyOnceInOrder) {
  // Deterministic blackout burst: frames 0-3 clean, 4-11 black, 12-19 clean
  // (probability 1.0 with skip/max_fires — no rng in the schedule at all).
  fault::Plan plan;
  plan.seed = 17;
  plan.with("sensor.frame.blackout", 1.0, /*param=*/0, /*skip=*/4,
            /*max_fires=*/8);
  fault::ScopedPlan armed(plan);

  const runtime::ServerOptions opts = guarded_options();
  const svm::LinearModel model = make_model(opts.hog, 31);
  runtime::DetectionServer server(model, opts);
  std::vector<runtime::FrameStatus> statuses;
  std::vector<std::uint64_t> sequences;
  std::vector<std::uint8_t> qualities;
  std::vector<std::uint8_t> camera_states;
  server.add_stream("cam0", [&](const runtime::StreamResult& r) {
    statuses.push_back(r.status);
    sequences.push_back(r.sequence);
    qualities.push_back(r.input_quality);
    camera_states.push_back(r.camera_state);
  });
  server.start();

  constexpr int kFrames = 20;
  SensorSimulator sensor(9, 1);
  for (int f = 0; f < kFrames; ++f) {
    imgproc::ImageF frame =
        noise_frame(160, 120, 500 + static_cast<std::uint64_t>(f));
    sensor.apply(0, static_cast<std::uint64_t>(f), frame);
    ASSERT_EQ(server.submit(0, frame), runtime::SubmitStatus::kAccepted);
  }
  server.drain();
  server.stop();

  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kFrames));
  for (int f = 0; f < kFrames; ++f) {
    const auto i = static_cast<std::size_t>(f);
    EXPECT_EQ(sequences[i], static_cast<std::uint64_t>(f)) << "in order";
    const bool black = f >= 4 && f < 12;
    EXPECT_EQ(statuses[i], black ? runtime::FrameStatus::kDegradedInput
                                 : runtime::FrameStatus::kOk)
        << "frame " << f;
    EXPECT_EQ(qualities[i],
              black ? static_cast<std::uint8_t>(FrameQuality::kUnusable)
                    : static_cast<std::uint8_t>(FrameQuality::kHealthy))
        << "frame " << f;
  }
  // Camera ladder on the burst: suspect on the 2nd unusable (frame 5),
  // quarantined on the 6th (frame 9), one recovery step after 8 clean
  // frames (frame 19: quarantined -> suspect).
  EXPECT_EQ(camera_states[4],
            static_cast<std::uint8_t>(CameraState::kHealthy));
  EXPECT_EQ(camera_states[5],
            static_cast<std::uint8_t>(CameraState::kSuspect));
  EXPECT_EQ(camera_states[9],
            static_cast<std::uint8_t>(CameraState::kQuarantined));
  EXPECT_EQ(camera_states[18],
            static_cast<std::uint8_t>(CameraState::kQuarantined));
  EXPECT_EQ(camera_states[19],
            static_cast<std::uint8_t>(CameraState::kSuspect));

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kFrames);
  EXPECT_EQ(stats.guard_unusable, 8);
  EXPECT_EQ(stats.completed, kFrames - 8);
  EXPECT_EQ(stats.camera_quarantines, 1);
  EXPECT_EQ(stats.camera_recoveries, 1);
  EXPECT_EQ(stats.cameras_suspect, 1);
  EXPECT_EQ(stats.cameras_quarantined, 0);
  // Exactly-once: the partition identity holds with the new term.
  EXPECT_EQ(stats.submitted, stats.completed + stats.dropped_queue +
                                 stats.dropped_deadline + stats.errors +
                                 stats.guard_unusable);
}

TEST(DetectionServer, QuarantinedCameraDegradesServerHealth) {
  fault::Plan plan;
  plan.seed = 21;
  plan.with("sensor.frame.blackout", 1.0);  // every frame unusable
  fault::ScopedPlan armed(plan);

  const runtime::ServerOptions opts = guarded_options();
  const svm::LinearModel model = make_model(opts.hog, 32);
  runtime::DetectionServer server(model, opts);
  server.add_stream("cam0", [](const runtime::StreamResult&) {});
  server.start();
  EXPECT_EQ(server.health(), runtime::HealthState::kHealthy);
  SensorSimulator sensor(9, 1);
  const int burst = opts.guard.camera.quarantine_after + 1;
  for (int f = 0; f < burst; ++f) {
    imgproc::ImageF frame =
        noise_frame(160, 120, 900 + static_cast<std::uint64_t>(f));
    sensor.apply(0, static_cast<std::uint64_t>(f), frame);
    ASSERT_EQ(server.submit(0, frame), runtime::SubmitStatus::kAccepted);
  }
  server.drain();
  EXPECT_EQ(server.health(), runtime::HealthState::kDegraded)
      << "a quarantined camera must surface in the health ladder";
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.cameras_quarantined, 1);
  EXPECT_EQ(stats.guard_unusable, burst);
  server.stop();
}

TEST(DetectionServer, SoftDegradedFramesStillRunAndAreCounted) {
  // 3 dead rows: degraded-but-usable. The frame must reach the engine
  // (status kOk at the pinned ladder) and count as guard_soft.
  const runtime::ServerOptions opts = guarded_options();
  const svm::LinearModel model = make_model(opts.hog, 33);
  runtime::DetectionServer server(model, opts);
  std::vector<runtime::StreamResult> results;
  server.add_stream("cam0", [&](const runtime::StreamResult& r) {
    results.push_back(r);
  });
  server.start();
  imgproc::ImageF frame = noise_frame(160, 120, 41);
  for (int y = 30; y < 33; ++y) {
    float* r = frame.row(y);
    std::fill(r, r + frame.width(), 0.0f);
  }
  ASSERT_EQ(server.submit(0, frame), runtime::SubmitStatus::kAccepted);
  server.drain();
  server.stop();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, runtime::FrameStatus::kOk);
  EXPECT_EQ(results[0].input_quality,
            static_cast<std::uint8_t>(FrameQuality::kDegraded));
  EXPECT_TRUE(results[0].quality_reasons & kReasonDeadRows);
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.guard_soft, 1);
  EXPECT_EQ(stats.guard_unusable, 0);
}

// --- TCP end to end ---------------------------------------------------------

TEST(DetectionService, SeededSensorChaosOverTcpIsExactlyOnceAndDetected) {
  // Client-side sensor corruption, server-side gate: a local mirror gate
  // over the same bytes predicts every wire verdict, and both ends account
  // every frame exactly once.
  fault::Plan plan;
  plan.seed = 77;
  plan.with("sensor.frame.freeze", 0.2)
      .with("sensor.frame.tear", 0.1)
      .with("sensor.frame.blackout", 0.1)
      .with("sensor.rows.dead", 0.15, /*param=*/10);
  fault::ScopedPlan armed(plan);

  net::ServiceOptions sopts;
  sopts.port = 0;
  sopts.runtime.workers = 2;
  sopts.runtime.queue_capacity = 8;
  sopts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  sopts.runtime.scheduler.max_level = 0;
  sopts.runtime.multiscale.scales = {1.0, 1.5};
  sopts.runtime.guard.enabled = true;
  const svm::LinearModel model = make_model(sopts.runtime.hog, 51);
  net::DetectionService service(model, sopts);
  ASSERT_TRUE(service.start());

  net::ClientOptions copts;
  copts.port = service.port();
  net::Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();

  constexpr int kFrames = 32;
  SensorSimulator sensor(13, 1);
  FrameGuard mirror;              // same defaults as the server's gate
  CameraHealth mirror_camera;     // replays the expected quarantine ladder
  std::vector<FrameQuality> expected;
  std::vector<std::uint32_t> sensor_masks;
  long long expected_quarantines = 0;
  long long expected_recoveries = 0;
  for (int f = 0; f < kFrames; ++f) {
    imgproc::ImageF frame =
        noise_frame(160, 120, 7000 + static_cast<std::uint64_t>(f));
    sensor_masks.push_back(
        sensor.apply(0, static_cast<std::uint64_t>(f), frame));
    const FrameQuality q = mirror.inspect(frame).quality;
    expected.push_back(q);
    const CameraState before = mirror_camera.state();
    const CameraState after = mirror_camera.observe(q);
    if (after != before) {
      if (after == CameraState::kQuarantined) ++expected_quarantines;
      if (before == CameraState::kQuarantined) ++expected_recoveries;
    }
    ASSERT_TRUE(client.submit(frame)) << client.last_error();
  }

  long long unusable_seen = 0;
  net::wire::Result result;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
    ASSERT_EQ(result.tag, static_cast<std::uint64_t>(f));
    const auto i = static_cast<std::size_t>(f);
    const bool want_unusable = expected[i] == FrameQuality::kUnusable;
    EXPECT_EQ(result.status, want_unusable
                                 ? runtime::FrameStatus::kDegradedInput
                                 : runtime::FrameStatus::kOk)
        << "frame " << f << " sensor mask " << sensor_masks[i];
    EXPECT_EQ(result.input_quality, static_cast<std::uint8_t>(expected[i]));
    if (want_unusable) {
      ++unusable_seen;
      EXPECT_NE(result.quality_reasons, 0u);
    }
    // Episode detection: every injected freeze / blackout / dead-row-burst
    // frame must come back gated (tear only when history lined up, which
    // the mirror already folded into `expected`).
    const std::uint32_t mask = sensor_masks[i];
    if (mask & (kFaultFreeze | kFaultBlackout | kFaultDeadRows)) {
      EXPECT_EQ(result.status, runtime::FrameStatus::kDegradedInput)
          << "undetected sensor fault on frame " << f << " (mask " << mask
          << ")";
    }
  }
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.results_received(), kFrames);
  EXPECT_EQ(client.protocol_errors(), 0);
  EXPECT_GT(unusable_seen, 0) << "plan was hot enough to matter";

  net::wire::StatsReport report;
  ASSERT_TRUE(client.query_stats(report, 30000.0)) << client.last_error();
  EXPECT_EQ(report.runtime.submitted, kFrames);
  EXPECT_EQ(report.runtime.guard_unusable, unusable_seen);
  EXPECT_EQ(report.runtime.completed + report.runtime.guard_unusable,
            kFrames);
  EXPECT_EQ(report.runtime.camera_quarantines, expected_quarantines);
  EXPECT_EQ(report.runtime.camera_recoveries, expected_recoveries);
  EXPECT_EQ(report.net.frames_received, kFrames);
  EXPECT_EQ(report.net.results_sent, kFrames);

  client.disconnect();
  service.stop();
  const net::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.frames_received, kFrames);
  EXPECT_EQ(stats.results_sent, kFrames);
  EXPECT_EQ(stats.decode_errors, 0);
}

TEST(DetectionService, CleanSeedsOverTcpNeverTripTheGate) {
  // Guard on, no sensor plan: rendered frames from several seeds stream
  // through TCP with zero gate verdicts and zero quarantines.
  net::ServiceOptions sopts;
  sopts.port = 0;
  sopts.runtime.workers = 2;
  sopts.runtime.queue_capacity = 8;
  sopts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  sopts.runtime.scheduler.max_level = 0;
  sopts.runtime.multiscale.scales = {1.0, 1.5};
  sopts.runtime.guard.enabled = true;
  const svm::LinearModel model = make_model(sopts.runtime.hog, 52);
  net::DetectionService service(model, sopts);
  ASSERT_TRUE(service.start());

  net::ClientOptions copts;
  copts.port = service.port();
  net::Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  constexpr int kFrames = 10;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.submit(
        noise_frame(160, 120, 4000 + static_cast<std::uint64_t>(f))));
  }
  net::wire::Result result;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.next_result(result, 30000.0)) << client.last_error();
    EXPECT_EQ(result.status, runtime::FrameStatus::kOk);
    EXPECT_EQ(result.input_quality, 0);
    EXPECT_EQ(result.camera_state, 0);
    EXPECT_EQ(result.quality_reasons, 0u);
  }
  net::wire::StatsReport report;
  ASSERT_TRUE(client.query_stats(report, 30000.0));
  EXPECT_EQ(report.runtime.guard_unusable, 0);
  EXPECT_EQ(report.runtime.guard_soft, 0);
  EXPECT_EQ(report.runtime.camera_quarantines, 0);
  EXPECT_EQ(report.runtime.cameras_suspect, 0);
  EXPECT_EQ(report.runtime.cameras_quarantined, 0);
  client.disconnect();
  service.stop();
}

}  // namespace
}  // namespace pdet::guard
