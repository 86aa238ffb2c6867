// Tests for detect::DetectionEngine: equivalence with the free-function
// chain and with build_pyramid + scan_pyramid, buffer-reuse determinism,
// thread-count invariance of results and of the obs record, and the level
// structure of build_pyramid for each PyramidStrategy.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/detect/engine.hpp"
#include "src/detect/multiscale.hpp"
#include "src/hog/descriptor.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/tile/engine.hpp"
#include "src/util/rng.hpp"

namespace pdet::detect {
namespace {

imgproc::ImageF make_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      img.at(x, y) = static_cast<float>(rng.uniform());
    }
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

void expect_identical(const MultiscaleResult& a, const MultiscaleResult& b) {
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.windows_evaluated, b.windows_evaluated);
  ASSERT_EQ(a.per_level.size(), b.per_level.size());
  for (std::size_t i = 0; i < a.per_level.size(); ++i) {
    EXPECT_EQ(a.per_level[i].scale, b.per_level[i].scale);
    EXPECT_EQ(a.per_level[i].cells_x, b.per_level[i].cells_x);
    EXPECT_EQ(a.per_level[i].cells_y, b.per_level[i].cells_y);
    EXPECT_EQ(a.per_level[i].windows, b.per_level[i].windows);
    EXPECT_EQ(a.per_level[i].detections, b.per_level[i].detections);
  }
  ASSERT_EQ(a.raw.size(), b.raw.size());
  for (std::size_t i = 0; i < a.raw.size(); ++i) {
    EXPECT_EQ(a.raw[i].x, b.raw[i].x);
    EXPECT_EQ(a.raw[i].y, b.raw[i].y);
    EXPECT_EQ(a.raw[i].width, b.raw[i].width);
    EXPECT_EQ(a.raw[i].height, b.raw[i].height);
    EXPECT_EQ(a.raw[i].score, b.raw[i].score);  // bit-identical, not "near"
    EXPECT_EQ(a.raw[i].scale, b.raw[i].scale);
  }
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_EQ(a.detections[i].x, b.detections[i].x);
    EXPECT_EQ(a.detections[i].y, b.detections[i].y);
    EXPECT_EQ(a.detections[i].score, b.detections[i].score);
  }
}

class EngineTest : public ::testing::TestWithParam<PyramidStrategy> {
 protected:
  hog::HogParams params_;
  svm::LinearModel model_ = make_model(params_, 11);
  imgproc::ImageF frame_ = make_frame(192, 192, 7);

  MultiscaleOptions options() const {
    MultiscaleOptions opts;
    opts.strategy = GetParam();
    // 5.0 drops (192 px / 5 < one window) — exercises the drop rule too.
    opts.scales = {1.0, 1.3, 2.0, 5.0};
    return opts;
  }
};

TEST_P(EngineTest, MatchesFreeFunctionChain) {
  const MultiscaleOptions opts = options();
  DetectionEngine engine;
  const MultiscaleResult& got =
      engine.process(frame_, params_, model_, opts);
  const MultiscaleResult want =
      detect_multiscale(frame_, params_, model_, opts);
  expect_identical(got, want);
}

TEST_P(EngineTest, RepeatedFramesAreIdenticalAndReuseBuffers) {
  const MultiscaleOptions opts = options();
  DetectionEngine engine;
  const MultiscaleResult first = engine.process(frame_, params_, model_, opts);
  const MultiscaleResult second = engine.process(frame_, params_, model_, opts);
  const MultiscaleResult third = engine.process(frame_, params_, model_, opts);
  expect_identical(first, second);
  expect_identical(first, third);

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.frames, 3);
  EXPECT_GT(stats.alloc_bytes, 0u);
  // Frame 1 sizes the workspace; identical frames 2 and 3 must be served
  // entirely from warm buffers.
  EXPECT_EQ(stats.grow_events, 1);
  EXPECT_EQ(stats.reuse_hits, 2);
}

TEST_P(EngineTest, WarmHistoryDoesNotChangeResults) {
  const MultiscaleOptions opts = options();
  // Engine A is warmed on a frame of a different size (and a different scale
  // count) before seeing the test frame; engine B sees it cold.
  DetectionEngine warmed;
  MultiscaleOptions other = opts;
  other.scales = {1.0, 2.0};
  const imgproc::ImageF small = make_frame(96, 128, 3);
  warmed.process(small, params_, model_, other);

  DetectionEngine cold;
  const MultiscaleResult& a = warmed.process(frame_, params_, model_, opts);
  const MultiscaleResult& b = cold.process(frame_, params_, model_, opts);
  expect_identical(a, b);
}

TEST_P(EngineTest, ThreadCountDoesNotChangeResults) {
  const MultiscaleOptions opts = options();
  DetectionEngine single(EngineOptions{.threads = 1});
  const MultiscaleResult baseline =
      single.process(frame_, params_, model_, opts);
  for (const int threads : {2, 4}) {
    DetectionEngine parallel(EngineOptions{.threads = threads});
    const MultiscaleResult& got =
        parallel.process(frame_, params_, model_, opts);
    SCOPED_TRACE(threads);
    expect_identical(baseline, got);
  }
}

TEST_P(EngineTest, ProcessEqualsBuildPyramidThenScanPyramid) {
  const MultiscaleOptions opts = options();
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    DetectionEngine whole(EngineOptions{.threads = threads});
    const MultiscaleResult want = whole.process(frame_, params_, model_, opts);
    DetectionEngine split(EngineOptions{.threads = threads});
    split.build_pyramid(frame_, params_, opts);
    expect_identical(split.scan_pyramid(params_, model_, opts), want);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EngineTest,
                         ::testing::Values(PyramidStrategy::kImage,
                                           PyramidStrategy::kFeature,
                                           PyramidStrategy::kHybrid),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case PyramidStrategy::kImage: return "Image";
                             case PyramidStrategy::kFeature: return "Feature";
                             default: return "Hybrid";
                           }
                         });

// --- build_pyramid: the pyramid half of process() ---------------------------

MultiscaleOptions pyramid_options(PyramidStrategy strategy,
                                  std::vector<double> scales) {
  MultiscaleOptions opts;
  opts.strategy = strategy;
  opts.scales = std::move(scales);
  return opts;
}

void expect_same_blocks(const hog::BlockGrid& a, const hog::BlockGrid& b) {
  ASSERT_EQ(a.blocks_x(), b.blocks_x());
  ASSERT_EQ(a.blocks_y(), b.blocks_y());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size_bytes()),
            0);
}

constexpr PyramidStrategy kAllStrategies[] = {
    PyramidStrategy::kImage, PyramidStrategy::kFeature,
    PyramidStrategy::kHybrid};

TEST(EnginePyramid, NativeLevelIsTheDirectExtraction) {
  hog::HogParams params;
  const imgproc::ImageF frame = make_frame(160, 256, 5);
  const hog::CellGrid direct = hog::compute_cell_grid(frame, params);
  for (const PyramidStrategy strategy : kAllStrategies) {
    DetectionEngine engine;
    const auto levels =
        engine.build_pyramid(frame, params, pyramid_options(strategy, {1.0}));
    ASSERT_EQ(levels.size(), 1u);
    ASSERT_TRUE(levels[0].kept);
    EXPECT_EQ(levels[0].stats.cells_x, direct.cells_x());
    EXPECT_EQ(levels[0].stats.cells_y, direct.cells_y());
    expect_same_blocks(levels[0].blocks, hog::normalize_cells(direct, params));
  }
}

TEST(EnginePyramid, TwoLevelDims) {
  hog::HogParams params;
  const imgproc::ImageF frame = make_frame(256, 256, 6);
  for (const PyramidStrategy strategy : kAllStrategies) {
    DetectionEngine engine;
    const auto levels = engine.build_pyramid(
        frame, params, pyramid_options(strategy, {1.0, 2.0}));
    ASSERT_EQ(levels.size(), 2u);
    ASSERT_TRUE(levels[0].kept && levels[1].kept);
    EXPECT_EQ(levels[0].stats.cells_x, 32);
    EXPECT_EQ(levels[1].stats.cells_x, 16);
    EXPECT_DOUBLE_EQ(levels[1].scale, 2.0);
    EXPECT_EQ(levels[1].blocks.blocks_x(), 16);  // cell-group layout
  }
}

TEST(EnginePyramid, DropsLevelsSmallerThanWindow) {
  hog::HogParams params;
  // 128x160 frame: 16x20 cells; at scale 3 -> 5x7 cells < 8x16 window.
  const imgproc::ImageF frame = make_frame(128, 160, 7);
  for (const PyramidStrategy strategy : kAllStrategies) {
    DetectionEngine engine;
    const auto levels = engine.build_pyramid(
        frame, params, pyramid_options(strategy, {1.0, 3.0}));
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_TRUE(levels[0].kept);
    EXPECT_DOUBLE_EQ(levels[0].scale, 1.0);
    EXPECT_FALSE(levels[1].kept);
  }
}

TEST(EnginePyramid, ImageLevelsMirrorFeatureLevels) {
  hog::HogParams params;
  const imgproc::ImageF frame = make_frame(320, 320, 9);
  DetectionEngine feature_engine;
  DetectionEngine image_engine;
  const auto feature = feature_engine.build_pyramid(
      frame, params, pyramid_options(PyramidStrategy::kFeature,
                                     {1.0, 1.5, 2.0}));
  const auto image = image_engine.build_pyramid(
      frame, params, pyramid_options(PyramidStrategy::kImage,
                                     {1.0, 1.5, 2.0}));
  ASSERT_EQ(feature.size(), image.size());
  for (std::size_t i = 0; i < feature.size(); ++i) {
    ASSERT_TRUE(feature[i].kept && image[i].kept);
    // Rounding conventions may differ by one cell at fractional scales.
    EXPECT_NEAR(feature[i].stats.cells_x, image[i].stats.cells_x, 1);
    EXPECT_NEAR(feature[i].stats.cells_y, image[i].stats.cells_y, 1);
    EXPECT_FALSE(image[i].blocks.empty());
  }
}

TEST(EnginePyramid, HybridOctaveLevelsAreExactExtractions) {
  // At octaves the hybrid re-extracts, exactly as the image pyramid does.
  hog::HogParams params;
  const imgproc::ImageF frame = make_frame(256, 256, 65);
  DetectionEngine hybrid_engine;
  DetectionEngine image_engine;
  const auto hybrid = hybrid_engine.build_pyramid(
      frame, params, pyramid_options(PyramidStrategy::kHybrid, {1.0, 2.0}));
  const auto image = image_engine.build_pyramid(
      frame, params, pyramid_options(PyramidStrategy::kImage, {1.0, 2.0}));
  ASSERT_EQ(hybrid.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(hybrid[i].kept && image[i].kept);
    expect_same_blocks(hybrid[i].blocks, image[i].blocks);
  }
}

TEST(EnginePyramid, HybridIntermediateLevelsFromNearestLowerOctave) {
  hog::HogParams params;
  // Tall frame so the 8x16-cell window still fits at scale 3.
  const imgproc::ImageF frame = make_frame(320, 640, 66);
  DetectionEngine engine;
  const auto levels = engine.build_pyramid(
      frame, params, pyramid_options(PyramidStrategy::kHybrid, {1.5, 3.0}));
  ASSERT_EQ(levels.size(), 2u);
  ASSERT_TRUE(levels[0].kept && levels[1].kept);
  // Scale 1.5 resamples the 40-cell octave-1 grid by 1.5 -> 27 cells;
  // scale 3 resamples the 20-cell octave-2 grid by 1.5 -> 13 cells.
  EXPECT_EQ(levels[0].stats.cells_x, 27);
  EXPECT_EQ(levels[1].stats.cells_x, 13);
}

#ifndef PDET_OBS_DISABLED
/// What one frame left in the obs record.
struct ObsRecord {
  std::map<std::string, long long> counters;
  std::uint64_t fill_samples = 0;
  std::map<std::string, std::uint64_t> spans;  ///< span count per name
};

template <typename Run>
ObsRecord record_obs(Run run) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  obs::clear_trace();
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  run();
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  ObsRecord r;
  for (const char* name : {"hog.cell_grids", "imgproc.gradient_pixels",
                           "svm.dot_products", "score.batches"}) {
    r.counters[name] = registry.counter(name);
  }
  if (registry.has_histogram("score.batch_fill")) {
    r.fill_samples = registry.histogram("score.batch_fill").summary().count;
  }
  for (const obs::SpanStats& s : obs::trace_summary()) {
    r.spans[s.name] = s.count;
  }
  registry.reset();
  obs::clear_trace();
  return r;
}

void expect_same_record(const ObsRecord& a, const ObsRecord& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.fill_samples, b.fill_samples);
  EXPECT_EQ(a.spans, b.spans);
}

// Level lanes and tile lanes record their own spans and counters; each
// level and tile is visited exactly once, so a frame leaves the same record
// at every lane count.
TEST(EngineObs, CountersAndSpansDoNotDependOnLaneCount) {
  hog::HogParams params;
  const svm::LinearModel model = make_model(params, 31);
  const imgproc::ImageF frame = make_frame(320, 240, 32);
  MultiscaleOptions opts;
  opts.scales = {1.0, 1.25, 1.5, 2.0};

  std::vector<ObsRecord> engine_runs;
  for (const int lanes : {1, 2, 4}) {
    DetectionEngine engine(EngineOptions{.threads = lanes});
    engine_runs.push_back(
        record_obs([&] { engine.process(frame, params, model, opts); }));
  }
  ASSERT_GT(engine_runs[0].counters["score.batches"], 0);
  ASSERT_GT(engine_runs[0].fill_samples, 0u);
  for (std::size_t i = 1; i < engine_runs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_record(engine_runs[0], engine_runs[i]);
  }

  std::vector<ObsRecord> tile_runs;
  for (const int lanes : {1, 2}) {
    tile::TileEngineOptions tile_options;
    tile_options.plan.tiles_x = 2;
    tile_options.plan.tiles_y = 2;
    tile_options.threads = lanes;
    tile::TileEngine tiles(tile_options);
    tile_runs.push_back(
        record_obs([&] { tiles.process(frame, params, model, opts); }));
  }
  ASSERT_GT(tile_runs[0].counters["hog.cell_grids"], 1);
  expect_same_record(tile_runs[0], tile_runs[1]);
}
#endif

TEST(EngineScoreWindow, MatchesFreeChainAndReuses) {
  hog::HogParams params;
  const svm::LinearModel model = make_model(params, 5);
  const imgproc::ImageF window = make_frame(64, 128, 21);
  const imgproc::ImageF oversized = make_frame(96, 160, 22);

  // The free chain is the per-window decision() reference, and this
  // assertion is bitwise: the window kernel adds in decision's order.
  DetectionEngine engine(
      EngineOptions{.backend = score::BackendKind::kScalar});
  const auto free_score = [&](const imgproc::ImageF& img) {
    return model.decision(hog::compute_window_descriptor(img, params));
  };
  EXPECT_EQ(engine.score_window(window, params, model), free_score(window));
  // Oversized input takes the center-crop path.
  EXPECT_EQ(engine.score_window(oversized, params, model),
            free_score(oversized));
  // Warm repeat is unchanged.
  EXPECT_EQ(engine.score_window(window, params, model), free_score(window));
}

TEST(EngineFacade, DetectorDelegatesToPersistentEngine) {
  core::DetectorConfig config;
  config.multiscale.scales = {1.0, 2.0};
  core::PedestrianDetector detector(config);
  detector.set_model(make_model(config.hog, 17));

  const imgproc::ImageF frame = make_frame(160, 160, 9);
  const auto first = detector.detect(frame);
  const auto second = detector.detect(frame);
  ASSERT_EQ(first.raw.size(), second.raw.size());
  for (std::size_t i = 0; i < first.raw.size(); ++i) {
    EXPECT_EQ(first.raw[i].score, second.raw[i].score);
  }
  EXPECT_EQ(detector.engine_stats().frames, 2);
  EXPECT_EQ(detector.engine_stats().reuse_hits, 1);

  // Flipping threads through the public config must not change detections.
  detector.mutable_config().threads = 4;
  const auto threaded = detector.detect(frame);
  ASSERT_EQ(first.detections.size(), threaded.detections.size());
  for (std::size_t i = 0; i < first.detections.size(); ++i) {
    EXPECT_EQ(first.detections[i].x, threaded.detections[i].x);
    EXPECT_EQ(first.detections[i].score, threaded.detections[i].score);
  }

  // score_window goes through the same workspace.
  const imgproc::ImageF window = make_frame(64, 128, 2);
  const float s1 = detector.score_window(window);
  const float s2 = detector.score_window(window);
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace pdet::detect
