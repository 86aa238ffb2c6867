// pdet::tile — tile plan geometry, tiled-vs-untiled equivalence, ROI
// scheduling, temporal coherence, and the runtime tiled-engine slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "src/dataset/scene.hpp"
#include "src/detect/engine.hpp"
#include "src/detect/multiscale.hpp"
#include "src/detect/nms.hpp"
#include "src/detect/tracker.hpp"
#include "src/runtime/server.hpp"
#include "src/tile/engine.hpp"
#include "src/tile/plan.hpp"
#include "src/tile/roi.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace pdet;

svm::LinearModel random_model(const hog::HogParams& params,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  model.bias = 0.0f;
  return model;
}

imgproc::ImageF scene_frame(int width, int height, std::uint64_t seed) {
  dataset::SceneOptions opts;
  opts.width = width;
  opts.height = height;
  opts.pedestrian_distances_m = {12.0, 20.0, 35.0};
  util::Rng rng(seed);
  return dataset::render_scene(rng, opts).image;
}

bool same_detection(const detect::Detection& a, const detect::Detection& b) {
  return a.x == b.x && a.y == b.y && a.width == b.width &&
         a.height == b.height && a.score == b.score && a.scale == b.scale;
}

void expect_identical(const std::vector<detect::Detection>& a,
                      const std::vector<detect::Detection>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_detection(a[i], b[i]))
        << what << " differs at " << i << ": (" << a[i].x << "," << a[i].y
        << " s=" << a[i].score << ") vs (" << b[i].x << "," << b[i].y
        << " s=" << b[i].score << ")";
  }
}

std::vector<detect::Detection> sorted(std::vector<detect::Detection> v) {
  std::sort(v.begin(), v.end(), detect::detection_order);
  return v;
}

// --- TilePlan geometry ---

TEST(TilePlan, CoresPartitionTheFrame) {
  hog::HogParams params;
  detect::MultiscaleOptions ms;  // scales {1, 2}
  tile::TilePlanOptions opts;
  opts.tile_width = 256;
  opts.tile_height = 192;
  tile::TilePlan plan;
  plan.build(960, 536, params, ms, opts);
  EXPECT_TRUE(plan.built());
  EXPECT_GT(plan.tile_count(), 1);

  // Core areas sum to the frame; owner_of agrees with core membership.
  long long area = 0;
  for (const tile::TileGeometry& t : plan.tiles()) {
    area += static_cast<long long>(t.core_w) * t.core_h;
    EXPECT_EQ(t.x % plan.alignment_px(), 0);
    EXPECT_EQ(t.y % plan.alignment_px(), 0);
    EXPECT_EQ(t.w % params.cell_size, 0);
    EXPECT_EQ(t.h % params.cell_size, 0);
    // The expanded rect contains the core.
    EXPECT_LE(t.x, t.core_x);
    EXPECT_LE(t.y, t.core_y);
    EXPECT_GE(t.x + t.w, t.core_x + t.core_w);
    EXPECT_GE(t.y + t.h, t.core_y + t.core_h);
  }
  EXPECT_EQ(area, 960LL * 536LL);

  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const int px = rng.uniform_int(0, 959);
    const int py = rng.uniform_int(0, 535);
    const int owner = plan.owner_of(px, py);
    const tile::TileGeometry& t = plan.tile(owner);
    EXPECT_GE(px, t.core_x);
    EXPECT_LT(px, t.core_x + t.core_w);
    EXPECT_GE(py, t.core_y);
    EXPECT_LT(py, t.core_y + t.core_h);
  }
}

TEST(TilePlan, HaloCoversWindowAtMaxScale) {
  hog::HogParams params;
  detect::MultiscaleOptions ms;
  ms.scales = {1.0, 2.0};
  tile::TilePlanOptions opts;
  tile::TilePlan plan;
  plan.build(512, 384, params, ms, opts);
  // Trailing halo must cover a window at the largest scale, so a pedestrian
  // whose anchor sits on the last core row/column is fully inside the tile.
  EXPECT_GE(plan.halo_trail_x_px(), params.window_width * 2);
  EXPECT_GE(plan.halo_trail_y_px(), params.window_height * 2);
  EXPECT_TRUE(plan.exact());
}

TEST(TilePlan, RejectsMisalignedFrames) {
  hog::HogParams params;
  detect::MultiscaleOptions ms;
  tile::TilePlanOptions opts;
  tile::TilePlan plan;
  EXPECT_THROW(plan.build(962, 536, params, ms, opts), std::invalid_argument);
  EXPECT_THROW(plan.build(960, 530, params, ms, opts), std::invalid_argument);
}

TEST(TilePlan, RequestedGridIsHonoredWhenAligned) {
  hog::HogParams params;
  detect::MultiscaleOptions ms;
  tile::TilePlanOptions opts;
  opts.tiles_x = 2;
  opts.tiles_y = 2;
  tile::TilePlan plan;
  plan.build(512, 384, params, ms, opts);
  EXPECT_EQ(plan.tiles_x(), 2);
  EXPECT_EQ(plan.tiles_y(), 2);
}

// --- satellite: misaligned frames are rejected, not truncated ---

TEST(FrameAlignment, EngineRejectsMisalignedFrames) {
  hog::HogParams params;
  const svm::LinearModel model = random_model(params, 1);
  detect::DetectionEngine engine;
  detect::MultiscaleOptions ms;
  // 132 % 8 != 0: previously the trailing 4 pixel rows were silently lost.
  imgproc::ImageF bad(96, 132, 0.5f);
  EXPECT_THROW(engine.process(bad, params, model, ms), std::invalid_argument);
  imgproc::ImageF good(96, 128, 0.5f);
  EXPECT_NO_THROW(engine.process(good, params, model, ms));
  EXPECT_THROW(detect_multiscale(bad, params, model, ms),
               std::invalid_argument);
}

// --- tiled vs untiled equivalence ---

struct EquivalenceCase {
  detect::PyramidStrategy strategy;
  std::vector<double> scales;
};

void expect_tiled_equals_untiled(const EquivalenceCase& c, std::uint64_t seed,
                                 int lanes,
                                 const hog::HogParams& params = {},
                                 int width = 512, int tile_width = 256) {
  const svm::LinearModel model = random_model(params, seed ^ 0xabcdef);
  const imgproc::ImageF frame = scene_frame(width, 384, seed);

  detect::MultiscaleOptions ms;
  ms.strategy = c.strategy;
  ms.scales = c.scales;
  ms.scan.threshold = -0.5f;  // random weights: plenty of raw hits + clusters

  detect::DetectionEngine reference;
  const detect::MultiscaleResult& untiled =
      reference.process(frame, params, model, ms);

  tile::TileEngineOptions topts;
  topts.plan.tile_width = tile_width;
  topts.plan.tile_height = 192;
  topts.threads = lanes;
  tile::TileEngine tiled(topts);
  const tile::TiledResult& result = tiled.process(frame, params, model, ms);

  ASSERT_GT(tiled.plan().tile_count(), 1);
  EXPECT_TRUE(tiled.plan().exact());
  EXPECT_GT(untiled.raw.size(), 0u) << "degenerate case: no raw detections";
  // Pre-NMS: same multiset (tile-major vs level-major order differs).
  expect_identical(sorted(untiled.raw), sorted(result.raw), "raw");
  // Post-NMS: byte-identical boxes in identical order (NMS is a
  // deterministic total order on equal multisets).
  expect_identical(untiled.detections, result.detections, "post-NMS");
}

TEST(TiledEquivalence, FeaturePyramidAcrossSeedsAndThreads) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const int threads : {1, 2, 4}) {
      expect_tiled_equals_untiled(
          {detect::PyramidStrategy::kFeature, {1.0, 2.0}}, seed, threads);
    }
  }
}

TEST(TiledEquivalence, ImagePyramid) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const int threads : {1, 4}) {
      expect_tiled_equals_untiled({detect::PyramidStrategy::kImage, {1.0, 2.0}},
                                  seed, threads);
    }
  }
}

TEST(TiledEquivalence, OddCellCountFrames) {
  // 65 cells across with 25-cell tiles, then 87 six-pixel cells: tile seams
  // fall on odd cells and, with 6-px cells, off the row kernels' 8-pixel
  // span lattice, so a seam column sits mid-vector in the untiled pass.
  hog::HogParams six;
  six.cell_size = 6;
  six.window_width = 48;
  six.window_height = 96;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const int threads : {1, 2}) {
      expect_tiled_equals_untiled({detect::PyramidStrategy::kFeature, {1.0}},
                                  seed, threads, {}, 520, 200);
      expect_tiled_equals_untiled({detect::PyramidStrategy::kFeature, {1.0}},
                                  seed, threads, six, 522, 200);
    }
  }
}

TEST(TiledEquivalence, HybridPyramidThreeScales) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const int threads : {1, 4}) {
      expect_tiled_equals_untiled(
          {detect::PyramidStrategy::kHybrid, {1.0, 2.0, 4.0}}, seed, threads);
    }
  }
}

// --- cross-tile NMS edge cases (accept-all scan: every anchor becomes a
// detection, so seam/corner coverage is guaranteed, not probabilistic) ---

TEST(TiledMerge, SeamAndCornerAnchorsAppearExactlyOnce) {
  hog::HogParams params;
  const svm::LinearModel model = random_model(params, 3);
  const imgproc::ImageF frame = scene_frame(256, 256, 4);

  detect::MultiscaleOptions ms;
  ms.scales = {1.0};
  ms.scan.threshold = -1e30f;  // accept every window
  ms.run_nms = false;

  detect::DetectionEngine reference;
  const detect::MultiscaleResult untiled =
      reference.process(frame, params, model, ms);

  tile::TileEngineOptions topts;
  topts.plan.tiles_x = 2;
  topts.plan.tiles_y = 2;
  tile::TileEngine tiled(topts);
  const tile::TiledResult& result = tiled.process(frame, params, model, ms);
  ASSERT_EQ(tiled.plan().tile_count(), 4);

  // Same multiset of raw detections — in particular no window is double
  // reported when both neighbors evaluated it in their halos, and none is
  // lost at a seam.
  expect_identical(sorted(untiled.raw), sorted(result.raw), "accept-all raw");

  // Every anchor appears exactly once (duplicate suppression by ownership).
  std::vector<detect::Detection> raw = sorted(result.raw);
  for (std::size_t i = 1; i < raw.size(); ++i) {
    EXPECT_FALSE(same_detection(raw[i - 1], raw[i]))
        << "duplicate anchor (" << raw[i].x << "," << raw[i].y << ")";
  }

  // Explicit seam coverage: the corner where all 4 tiles meet, an anchor
  // centered exactly on the vertical seam, and one on the horizontal seam.
  const tile::TileGeometry& t3 = tiled.plan().tile(3);
  const auto has_anchor = [&](int x, int y) {
    return std::any_of(raw.begin(), raw.end(), [&](const detect::Detection& d) {
      return d.x == x && d.y == y;
    });
  };
  EXPECT_TRUE(has_anchor(t3.core_x, t3.core_y)) << "4-tile halo corner";
  EXPECT_TRUE(has_anchor(t3.core_x, 0)) << "vertical seam";
  EXPECT_TRUE(has_anchor(0, t3.core_y)) << "horizontal seam";
  // A window anchored one cell left of the seam straddles it (width 64 >
  // cell 8): it must be owned by the left tile and still present.
  EXPECT_TRUE(has_anchor(t3.core_x - params.cell_size, t3.core_y))
      << "window straddling the seam";
}

// --- ROI scheduling ---

TEST(RoiScheduler, HotTilesEveryFrameAgesBounded) {
  hog::HogParams params;
  detect::MultiscaleOptions ms;
  tile::TilePlanOptions popts;
  popts.tiles_x = 4;
  popts.tiles_y = 4;
  tile::TilePlan plan;
  plan.build(1024, 1024, params, ms, popts);
  const int n = plan.tile_count();
  ASSERT_EQ(n, 16);

  tile::RoiOptions ropts;
  ropts.max_age = 3;
  ropts.min_cold_per_frame = 1;
  tile::RoiScheduler roi(ropts);

  // A predicted pedestrian inside tile 5's core.
  const tile::TileGeometry& hot_tile = plan.tile(5);
  detect::Detection box;
  box.x = hot_tile.core_x + hot_tile.core_w / 2;
  box.y = hot_tile.core_y + hot_tile.core_h / 2;
  box.width = 64;
  box.height = 128;
  const std::vector<detect::Detection> predicted{box};

  std::vector<int> ages(static_cast<std::size_t>(n), 0);
  std::vector<int> selection;
  std::vector<int> visits(static_cast<std::size_t>(n), 0);
  const int budget = tile::RoiScheduler::rung_budget(n, 2);
  EXPECT_EQ(budget, 0);
  for (int frame = 0; frame < 64; ++frame) {
    roi.plan_frame(plan, ages, predicted, budget, selection);
    EXPECT_TRUE(std::is_sorted(selection.begin(), selection.end()));
    // Hot tile is selected every frame.
    EXPECT_TRUE(std::find(selection.begin(), selection.end(), 5) !=
                selection.end())
        << "hot tile missing at frame " << frame;
    for (const int t : selection) ++visits[static_cast<std::size_t>(t)];
    // Apply the engine's age rule and check the hard bound.
    for (int t = 0; t < n; ++t) {
      const bool fresh = std::find(selection.begin(), selection.end(), t) !=
                         selection.end();
      int& age = ages[static_cast<std::size_t>(t)];
      age = fresh ? 0 : age + 1;
      EXPECT_LE(age, ropts.max_age) << "staleness bound broken, tile " << t;
    }
  }
  // Round-robin + staleness refresh visits every tile.
  for (int t = 0; t < n; ++t) {
    EXPECT_GT(visits[static_cast<std::size_t>(t)], 0) << "tile " << t;
  }
  // ROI mode does real work-saving: far fewer tile visits than full passes.
  long long total = 0;
  for (const int v : visits) total += v;
  EXPECT_LT(total, 64LL * n / 2);
}

TEST(RoiScheduler, RungBudgets) {
  EXPECT_EQ(tile::RoiScheduler::rung_budget(8, 0), 8);
  EXPECT_EQ(tile::RoiScheduler::rung_budget(8, 1), 4);
  EXPECT_EQ(tile::RoiScheduler::rung_budget(8, 2), 0);
  EXPECT_EQ(tile::RoiScheduler::rung_budget(7, 1), 4);
}

// --- temporal coherence in the TileEngine ---

TEST(TileEngine, SkippedTilesServeCachedDetectionsAndAge) {
  hog::HogParams params;
  const svm::LinearModel model = random_model(params, 11);
  const imgproc::ImageF frame_a = scene_frame(256, 256, 21);
  const imgproc::ImageF frame_b = scene_frame(256, 256, 22);

  detect::MultiscaleOptions ms;
  ms.scales = {1.0};
  ms.scan.threshold = -0.5f;

  tile::TileEngineOptions topts;
  topts.plan.tiles_x = 2;
  topts.plan.tiles_y = 2;
  tile::TileEngine engine(topts);

  // Full pass over frame A: every tile fresh.
  const tile::TiledResult& full = engine.process(frame_a, params, model, ms);
  EXPECT_EQ(full.tiles_detected, 4);
  EXPECT_EQ(full.tiles_reused, 0);
  EXPECT_EQ(full.max_age, 0);
  std::vector<detect::Detection> full_raw = full.raw;

  // Partial pass over frame B: only tile 0 refreshed; tiles 1..3 must serve
  // frame A's cached detections and age to 1.
  const std::vector<int> selection{0};
  const tile::TiledResult& partial =
      engine.process(frame_b, params, model, ms, &selection);
  EXPECT_EQ(partial.tiles_detected, 1);
  EXPECT_EQ(partial.tiles_reused, 3);
  EXPECT_EQ(partial.max_age, 1);
  ASSERT_EQ(engine.ages().size(), 4u);
  EXPECT_EQ(engine.ages()[0], 0);
  EXPECT_EQ(engine.ages()[1], 1);

  const auto core_of = [&](const detect::Detection& d) {
    return engine.plan().owner_of(d.x, d.y);
  };
  std::vector<detect::Detection> cached_expected;
  for (const detect::Detection& d : full_raw) {
    if (core_of(d) != 0) cached_expected.push_back(d);
  }
  std::vector<detect::Detection> cached_actual;
  for (const detect::Detection& d : partial.raw) {
    if (core_of(d) != 0) cached_actual.push_back(d);
  }
  expect_identical(sorted(cached_expected), sorted(cached_actual),
                   "cached tiles");
}

// --- runtime tiled-engine slot ---

struct Collected {
  std::mutex mutex;
  std::vector<runtime::StreamResult> results;
  void operator()(const runtime::StreamResult& r) {
    std::lock_guard<std::mutex> lock(mutex);
    results.push_back(r);  // copies detections — fine for a test
  }
};

runtime::ServerOptions tiled_server_options() {
  runtime::ServerOptions opts;
  opts.workers = 2;
  opts.multiscale.scales = {1.0};
  opts.multiscale.scan.threshold = -0.5f;
  opts.tiling.enabled = true;
  opts.tiling.plan.tiles_x = 2;
  opts.tiling.plan.tiles_y = 2;
  opts.engine_threads = 2;
  return opts;
}

TEST(RuntimeTiled, MatchesUntiledEngineWithExactlyOnceDelivery) {
  hog::HogParams params;
  const svm::LinearModel model = random_model(params, 31);
  runtime::ServerOptions opts = tiled_server_options();

  runtime::DetectionServer server(model, opts);
  auto c0 = std::make_shared<Collected>();
  auto c1 = std::make_shared<Collected>();
  server.add_stream("cam0", [c0](const runtime::StreamResult& r) { (*c0)(r); });
  server.add_stream("cam1", [c1](const runtime::StreamResult& r) { (*c1)(r); });
  server.start();

  const int kFrames = 6;
  std::vector<imgproc::ImageF> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(scene_frame(256, 256, 100 + static_cast<std::uint64_t>(f)));
  }
  for (int f = 0; f < kFrames; ++f) {
    server.submit(0, frames[static_cast<std::size_t>(f)]);
    server.submit(1, frames[static_cast<std::size_t>(f)]);
    server.drain();  // no queue pressure: every frame runs at rung 0
  }
  server.stop();

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2 * kFrames);
  EXPECT_EQ(stats.completed, 2 * kFrames);
  EXPECT_EQ(stats.ok, 2 * kFrames);
  EXPECT_EQ(stats.tiles_detected, 2 * kFrames * 4);
  EXPECT_EQ(stats.tiles_reused, 0);
  EXPECT_GT(stats.engine_frames, 0);

  // In-order, exactly-once, and identical to the untiled reference.
  detect::DetectionEngine reference;
  for (Collected* c : {c0.get(), c1.get()}) {
    ASSERT_EQ(c->results.size(), static_cast<std::size_t>(kFrames));
    for (int f = 0; f < kFrames; ++f) {
      const runtime::StreamResult& r =
          c->results[static_cast<std::size_t>(f)];
      EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(f));
      EXPECT_EQ(r.status, runtime::FrameStatus::kOk);
      EXPECT_EQ(r.timing.tiles_planned, 4);
      EXPECT_EQ(r.timing.tiles_detected, 4);
      const detect::MultiscaleResult& expected = reference.process(
          frames[static_cast<std::size_t>(f)], params, model, opts.multiscale);
      expect_identical(expected.detections, r.detections, "runtime tiled");
    }
  }
}

TEST(RuntimeTiled, GuardedTiledServerCoastsFromTheDeliveredDetections) {
  // Tiling and the input guard together: one tracker per stream, fed the
  // delivered detections in frame order, serves both the ROI predictions
  // and the gate's coast boxes.
  hog::HogParams params;
  const svm::LinearModel model = random_model(params, 33);
  runtime::ServerOptions opts = tiled_server_options();
  opts.guard.enabled = true;
  opts.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.scheduler.max_level = 0;  // every engine frame at rung 0

  runtime::DetectionServer server(model, opts);
  auto c0 = std::make_shared<Collected>();
  server.add_stream("cam0", [c0](const runtime::StreamResult& r) { (*c0)(r); });
  server.start();

  // One scene under a per-frame brightness step: the boxes hold still, so
  // tracks confirm, yet no two frames are equal, so the gate passes them.
  const imgproc::ImageF scene = scene_frame(256, 256, 300);
  const int kLive = 6;
  const int kBlack = 3;
  std::vector<imgproc::ImageF> frames;
  for (int f = 0; f < kLive; ++f) {
    imgproc::ImageF frame = scene;
    for (float& p : frame.pixels()) p += 0.002f * static_cast<float>(f);
    frames.push_back(std::move(frame));
  }
  // Live frames run concurrently on both workers; the blackout follows
  // only once all of them have delivered.
  for (const imgproc::ImageF& frame : frames) {
    ASSERT_EQ(server.submit(0, frame), runtime::SubmitStatus::kAccepted);
  }
  server.drain();
  for (int f = 0; f < kBlack; ++f) {
    ASSERT_EQ(server.submit(0, imgproc::ImageF(256, 256, 0.0f)),
              runtime::SubmitStatus::kAccepted);
  }
  server.drain();
  server.stop();

  ASSERT_EQ(c0->results.size(), static_cast<std::size_t>(kLive + kBlack));
  detect::DetectionEngine reference;
  detect::Tracker standalone;
  for (int f = 0; f < kLive; ++f) {
    const runtime::StreamResult& r = c0->results[static_cast<std::size_t>(f)];
    EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(f));
    ASSERT_EQ(r.status, runtime::FrameStatus::kOk) << "frame " << f;
    const detect::MultiscaleResult& expected = reference.process(
        frames[static_cast<std::size_t>(f)], params, model, opts.multiscale);
    expect_identical(expected.detections, r.detections, "guarded tiled");
    standalone.update(r.detections);
  }
  std::vector<detect::Detection> coast;
  for (int k = 1; k <= kBlack; ++k) {
    const runtime::StreamResult& r =
        c0->results[static_cast<std::size_t>(kLive + k - 1)];
    ASSERT_EQ(r.status, runtime::FrameStatus::kDegradedInput) << "black " << k;
    standalone.predict_boxes(k, coast);
    if (k == 1) {
      EXPECT_FALSE(coast.empty()) << "degenerate case: no confirmed tracks";
    }
    expect_identical(coast, r.detections, "coast");
  }
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.completed, kLive);
  EXPECT_EQ(stats.guard_unusable, kBlack);
  EXPECT_EQ(stats.tiles_detected, kLive * 4);
}

TEST(RuntimeTiled, RoiModeUnderPressureKeepsStalenessBound) {
  hog::HogParams params;
  const svm::LinearModel model = random_model(params, 32);
  runtime::ServerOptions opts = tiled_server_options();
  // Pin the ladder high: any queue occupancy escalates, nothing releases,
  // frames are never skipped (max_level 2). ROI mode engages from rung 1.
  opts.workers = 1;
  opts.scheduler.high_watermark = 0.01;
  opts.scheduler.low_watermark = 0.0;
  opts.scheduler.max_level = 2;
  opts.tiling.roi.max_age = 3;
  opts.queue_capacity = 16;

  runtime::DetectionServer server(model, opts);
  auto c0 = std::make_shared<Collected>();
  server.add_stream("cam0", [c0](const runtime::StreamResult& r) { (*c0)(r); });
  server.start();
  const int kFrames = 24;
  for (int f = 0; f < kFrames; ++f) {
    server.submit(0, scene_frame(256, 256, 200 + static_cast<std::uint64_t>(f)));
  }
  server.drain();
  server.stop();

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.completed, kFrames);
  EXPECT_GT(stats.roi_frames, 0) << "pressure never engaged ROI mode";
  EXPECT_GT(stats.tiles_reused, 0) << "ROI mode never skipped a tile";
  EXPECT_LE(stats.max_tile_age, opts.tiling.roi.max_age)
      << "hard staleness bound broken";
  // Spatial degradation: frames past the escalation are reported kDegraded
  // with a partial tile set in the timeline.
  bool saw_partial = false;
  for (const runtime::StreamResult& r : c0->results) {
    EXPECT_LE(static_cast<int>(r.timing.tiles_detected),
              static_cast<int>(r.timing.tiles_planned));
    if (r.status == runtime::FrameStatus::kDegraded &&
        r.timing.tiles_detected < r.timing.tiles_planned) {
      saw_partial = true;
    }
  }
  EXPECT_TRUE(saw_partial);
}

}  // namespace
