// Tests for multi-class detection, the hybrid pyramid strategy, and SVM
// model selection — the extensions motivated by the paper's Sections 1-2.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/model_pyramid.hpp"
#include "src/core/multiclass.hpp"
#include "src/dataset/builder.hpp"
#include "src/dataset/scene.hpp"
#include "src/detect/engine.hpp"
#include "src/hog/descriptor.hpp"
#include "src/imgproc/resize.hpp"
#include "src/svm/model_selection.hpp"
#include "src/svm/train_dcd.hpp"
#include "src/util/logging.hpp"
#include "src/util/rng.hpp"

namespace pdet {
namespace {

svm::LinearModel random_model(const hog::HogParams& params,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (float& w : model.weights) w = static_cast<float>(rng.uniform(-1.0, 1.0));
  model.bias = -0.25f;
  return model;
}

/// Box geometry, scale and the score's bits.
void expect_same_box(const detect::Detection& got,
                     const detect::Detection& want) {
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.y, want.y);
  EXPECT_EQ(got.width, want.width);
  EXPECT_EQ(got.height, want.height);
  EXPECT_EQ(got.scale, want.scale);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.score),
            std::bit_cast<std::uint32_t>(want.score));
}

// ------------------------------------------------------------ vehicles -----

TEST(Vehicle, RendererDeterministic) {
  dataset::RenderOptions opts;
  opts.width = 64;
  opts.height = 64;
  util::Rng a(3);
  util::Rng b(3);
  EXPECT_EQ(dataset::render_vehicle(a, opts), dataset::render_vehicle(b, opts));
}

TEST(Vehicle, WindowSetDefaultsToSquare) {
  const dataset::WindowSet set = dataset::make_vehicle_window_set(4, 5, 5);
  EXPECT_EQ(set.count(), 10u);
  EXPECT_EQ(set.windows[0].width(), 64);
  EXPECT_EQ(set.windows[0].height(), 64);
}

TEST(Vehicle, SvmSeparatesVehiclesFromClutter) {
  hog::HogParams params;
  params.window_width = 64;
  params.window_height = 64;
  const dataset::WindowSet train = dataset::make_vehicle_window_set(5, 120, 240);
  const svm::Dataset data = dataset::to_svm_dataset(train, params);
  const svm::LinearModel model = svm::train_dcd(data, {.C = 0.01});
  const dataset::WindowSet test = dataset::make_vehicle_window_set(6, 30, 30);
  int correct = 0;
  for (std::size_t i = 0; i < test.count(); ++i) {
    const auto desc = hog::compute_window_descriptor(test.windows[i], params);
    if ((model.decision(desc) > 0) == (test.labels[i] > 0)) ++correct;
  }
  EXPECT_GE(correct, 54);
}

// ------------------------------------------------------- multiclass --------

class MultiClassFixture : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::set_log_level(util::LogLevel::kWarn);
    detector_ = new core::MultiClassDetector();

    hog::HogParams ped;
    const svm::LinearModel ped_model = svm::train_dcd(
        dataset::to_svm_dataset(dataset::make_window_set(61, 150, 300), ped),
        {.C = 0.01});
    detector_->add_class("pedestrian", ped, ped_model, -0.1f);

    hog::HogParams veh;
    veh.window_width = 64;
    veh.window_height = 64;
    const svm::LinearModel veh_model = svm::train_dcd(
        dataset::to_svm_dataset(dataset::make_vehicle_window_set(62, 150, 300),
                                veh),
        {.C = 0.01});
    detector_->add_class("vehicle", veh, veh_model, 0.1f);
  }
  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
  }
  static core::MultiClassDetector* detector_;
};

core::MultiClassDetector* MultiClassFixture::detector_ = nullptr;

TEST_F(MultiClassFixture, ClassBookkeeping) {
  EXPECT_EQ(detector_->class_count(), 2u);
  EXPECT_EQ(detector_->class_name(0), "pedestrian");
  EXPECT_EQ(detector_->class_name(1), "vehicle");
}

TEST_F(MultiClassFixture, DetectsBothClassesInOnePass) {
  util::Rng rng(63);
  dataset::SceneOptions sopts;
  sopts.width = 512;
  sopts.height = 384;
  sopts.pedestrian_distances_m = {16.0};
  dataset::Scene scene = dataset::render_scene(rng, sopts);
  dataset::draw_vehicle_into(scene.image, rng, 400, 330, 90, 0.85f);

  core::MulticlassOptions opts;
  opts.scales = {1.0, 1.26, 1.59};
  const auto detections = detector_->detect(scene.image, opts);
  bool ped = false;
  bool veh = false;
  for (const auto& d : detections) {
    if (d.class_index == 0 &&
        std::abs(d.box.x + d.box.width / 2 -
                 (scene.truth[0].x + scene.truth[0].width / 2)) < 24) {
      ped = true;
    }
    if (d.class_index == 1 && std::abs(d.box.x + d.box.width / 2 - 400) < 40) {
      veh = true;
    }
  }
  EXPECT_TRUE(ped) << "pedestrian missed";
  EXPECT_TRUE(veh) << "vehicle missed";
}

TEST_F(MultiClassFixture, VehicleWindowsAreSquare) {
  util::Rng rng(64);
  dataset::SceneOptions sopts;
  sopts.width = 384;
  sopts.height = 320;
  sopts.pedestrian_distances_m = {};
  dataset::Scene scene = dataset::render_scene(rng, sopts);
  dataset::draw_vehicle_into(scene.image, rng, 190, 280, 88, 0.15f);
  const auto detections = detector_->detect(scene.image);
  for (const auto& d : detections) {
    if (d.class_index == 1) {
      EXPECT_EQ(d.box.width, d.box.height);
    } else {
      EXPECT_EQ(d.box.height, 2 * d.box.width);
    }
  }
}

// Each class of a multi-class pass is exactly what the engine detects for
// that class alone over the same ladder (equivalence, not golden CRCs: the
// float front end rounds differently on the AVX2 and baseline copies).
TEST(MultiClassEquivalence, EachClassEqualsItsOwnEngineProcess) {
  hog::HogParams ped;
  hog::HogParams veh;
  veh.window_width = 64;
  veh.window_height = 64;
  const svm::LinearModel ped_model = random_model(ped, 91);
  const svm::LinearModel veh_model = random_model(veh, 92);
  core::MultiClassDetector detector;
  detector.add_class("pedestrian", ped, ped_model, 0.5f);
  detector.add_class("vehicle", veh, veh_model, 0.25f);

  util::Rng rng(93);
  dataset::SceneOptions sopts;
  sopts.width = 640;
  sopts.height = 480;
  sopts.pedestrian_distances_m = {14.0, 22.0};
  dataset::Scene scene = dataset::render_scene(rng, sopts);
  dataset::draw_vehicle_into(scene.image, rng, 420, 420, 110, 0.8f);

  core::MulticlassOptions opts;
  // At scale 4 the level is 120 px tall: it holds the 64x64 vehicle window
  // but not the 64x128 pedestrian one.
  opts.scales = {1.0, 1.26, 1.59, 2.0, 4.0};
  const std::vector<core::ClassDetection> got =
      detector.detect(scene.image, opts);

  const struct {
    const hog::HogParams& params;
    const svm::LinearModel& model;
    float threshold;
  } classes[] = {{ped, ped_model, 0.5f}, {veh, veh_model, 0.25f}};
  std::size_t at = 0;
  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE(c);
    detect::MultiscaleOptions ms;
    ms.strategy = detect::PyramidStrategy::kFeature;
    ms.scales = opts.scales;
    ms.feature_interp = opts.feature_interp;
    ms.scan.threshold = classes[c].threshold;
    ms.nms_iou = opts.nms_iou;
    detect::DetectionEngine engine;
    const detect::MultiscaleResult& want = engine.process(
        scene.image, classes[c].params, classes[c].model, ms);
    ASSERT_FALSE(want.detections.empty());
    // The scale-4 level is scanned for the vehicle only.
    bool at_four = false;
    for (const detect::LevelStats& level : want.per_level) {
      at_four = at_four || level.scale == 4.0;
    }
    EXPECT_EQ(at_four, c == 1);
    for (const detect::Detection& d : want.detections) {
      ASSERT_LT(at, got.size());
      EXPECT_EQ(got[at].class_index, c);
      expect_same_box(got[at].box, d);
      ++at;
    }
  }
  EXPECT_EQ(at, got.size());
}

TEST(MultiClass, RejectsIncompatibleClassParams) {
  // Every field but the window size shapes the shared cells or blocks, so
  // a second class must match the first on each of them.
  const auto add_second = [](const hog::HogParams& b) {
    core::MultiClassDetector detector;
    hog::HogParams a;
    svm::LinearModel ma;
    ma.weights.assign(static_cast<std::size_t>(a.descriptor_size()), 0.0f);
    detector.add_class("a", a, ma);
    svm::LinearModel mb;
    mb.weights.assign(static_cast<std::size_t>(b.descriptor_size()), 0.0f);
    detector.add_class("b", b, mb);
  };
  hog::HogParams b;
  b.window_width = 48;  // window geometry alone is per class
  b.window_height = 64;
  add_second(b);

  const auto expect_rejected = [&](auto mutate, const char* field) {
    hog::HogParams p = b;
    mutate(p);
    EXPECT_DEATH(add_second(p), std::string("params.") + field + " == ref.");
  };
  expect_rejected([](hog::HogParams& p) { p.cell_size = 4; }, "cell_size");
  expect_rejected([](hog::HogParams& p) { p.bins = 6; }, "bins");
  expect_rejected([](hog::HogParams& p) { p.norm = hog::BlockNorm::kL1; },
                  "norm");
  expect_rejected(
      [](hog::HogParams& p) {
        p.layout = hog::DescriptorLayout::kDalalBlocks;
      },
      "layout");
  expect_rejected(
      [](hog::HogParams& p) { p.gradient_op = imgproc::GradientOp::kSobel; },
      "gradient_op");
  expect_rejected([](hog::HogParams& p) { p.spatial_interp = false; },
                  "spatial_interp");
  expect_rejected([](hog::HogParams& p) { p.orientation_interp = false; },
                  "orientation_interp");
  expect_rejected([](hog::HogParams& p) { p.normalize_epsilon = 1e-2f; },
                  "normalize_epsilon");
  expect_rejected([](hog::HogParams& p) { p.l2hys_clip = 0.3f; },
                  "l2hys_clip");
  expect_rejected([](hog::HogParams& p) { p.presmooth_sigma = 0.8f; },
                  "presmooth_sigma");
}

// ------------------------------------------------------ hybrid pyramid -----

TEST(HybridPyramid, DetectsLikeOtherStrategies) {
  util::set_log_level(util::LogLevel::kWarn);
  hog::HogParams params;
  const svm::LinearModel model = svm::train_dcd(
      dataset::to_svm_dataset(dataset::make_window_set(67, 120, 240), params),
      {.C = 0.01});
  util::Rng rng(68);
  imgproc::ImageF frame(384, 384, 0.55f);
  dataset::fill_background(frame, rng, 0.55f);
  dataset::draw_pedestrian_into(frame, rng, 192, 330, 205, 0.1f);

  detect::MultiscaleOptions opts;
  opts.strategy = detect::PyramidStrategy::kHybrid;
  opts.scales = {1.0, 1.4, 2.0};
  opts.scan.threshold = -0.3f;
  const auto result = detect::detect_multiscale(frame, params, model, opts);
  bool found = false;
  for (const auto& d : result.detections) {
    if (d.scale >= 1.9 && std::abs(d.x + d.width / 2 - 192) < 40) found = true;
  }
  EXPECT_TRUE(found);
}

// -------------------------------------------------------- model pyramid ----

class ModelPyramidFixture : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::set_log_level(util::LogLevel::kWarn);
    core::ModelPyramidConfig config;
    config.scales = {1.0, 1.5, 2.0};
    config.threshold = -0.2f;
    detector_ = new core::ModelPyramidDetector(config);
    detector_->train(dataset::make_window_set(81, 120, 240));
  }
  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
  }
  static core::ModelPyramidDetector* detector_;
};

core::ModelPyramidDetector* ModelPyramidFixture::detector_ = nullptr;

TEST_F(ModelPyramidFixture, TrainsOneModelPerScale) {
  EXPECT_EQ(detector_->model_count(), 3u);
  EXPECT_EQ(detector_->model_params(0).window_width, 64);
  EXPECT_EQ(detector_->model_params(1).window_width, 96);
  EXPECT_EQ(detector_->model_params(1).window_height, 192);
  EXPECT_EQ(detector_->model_params(2).window_width, 128);
}

TEST_F(ModelPyramidFixture, DetectsSmallAndLargePedestrians) {
  util::Rng rng(82);
  imgproc::ImageF frame(448, 448, 0.55f);
  dataset::fill_background(frame, rng, 0.55f);
  // Small person (~107 px -> scale-1 model) and large (~205 px -> scale-2).
  dataset::draw_pedestrian_into(frame, rng, 100, 190, 107, 0.12f);
  dataset::draw_pedestrian_into(frame, rng, 320, 400, 205, 0.9f);
  const auto result = detector_->detect(frame);
  bool small_hit = false;
  bool large_hit = false;
  for (const auto& d : result.detections) {
    if (d.scale == 1.0 && std::abs(d.x + d.width / 2 - 100) < 24) small_hit = true;
    if (d.scale == 2.0 && std::abs(d.x + d.width / 2 - 320) < 40) large_hit = true;
  }
  EXPECT_TRUE(small_hit) << "scale-1 model missed the small pedestrian";
  EXPECT_TRUE(large_hit) << "scale-2 model missed the large pedestrian";
}

TEST_F(ModelPyramidFixture, BoxesComeBackInNativePixels) {
  imgproc::ImageF frame(384, 384, 0.5f);
  core::ModelPyramidConfig config;
  config.scales = {1.0, 2.0};
  config.threshold = -1e9f;  // accept all: inspect geometry
  core::ModelPyramidDetector det(config);
  det.train(dataset::make_window_set(83, 40, 80));
  const auto result = det.detect(frame);
  ASSERT_EQ(result.levels, 2);
  bool saw128 = false;
  for (const auto& d : result.raw) {
    EXPECT_TRUE(d.width == 64 || d.width == 128);
    if (d.width == 128) {
      EXPECT_EQ(d.height, 256);
      saw128 = true;
    }
  }
  EXPECT_TRUE(saw128);
}

// Every model scans the one native-scale level exactly as a scale-1 engine
// pass with that model does; only the boxes' scale names the model. The
// reference models are trained here by the detector's recipe (training set
// up-sampled to the model's window, then DCD), which is deterministic.
TEST(ModelPyramid, EachModelEqualsAScaleOneEngineProcess) {
  core::ModelPyramidConfig config;
  config.scales = {1.0, 1.5, 2.0};
  config.threshold = -0.5f;
  config.training.max_epochs = 20;
  const dataset::WindowSet windows = dataset::make_window_set(85, 30, 60);
  core::ModelPyramidDetector detector(config);
  detector.train(windows);

  util::Rng rng(84);
  imgproc::ImageF frame(448, 448, 0.55f);
  dataset::fill_background(frame, rng, 0.55f);
  dataset::draw_pedestrian_into(frame, rng, 100, 190, 107, 0.12f);
  dataset::draw_pedestrian_into(frame, rng, 320, 400, 205, 0.9f);
  const detect::MultiscaleResult got = detector.detect(frame);
  ASSERT_FALSE(got.raw.empty());
  ASSERT_EQ(got.per_level.size(), config.scales.size());

  std::size_t at = 0;
  for (std::size_t m = 0; m < config.scales.size(); ++m) {
    SCOPED_TRACE(m);
    const hog::HogParams& params = detector.model_params(m);
    dataset::WindowSet scaled;
    scaled.labels = windows.labels;
    for (const imgproc::ImageF& w : windows.windows) {
      scaled.windows.push_back(imgproc::resize(w, params.window_width,
                                               params.window_height,
                                               imgproc::Interp::kBicubic));
    }
    const svm::LinearModel model =
        svm::train_dcd(dataset::to_svm_dataset(scaled, params), config.training);
    detect::MultiscaleOptions ms;
    ms.scales = {1.0};
    ms.scan.threshold = config.threshold;
    detect::DetectionEngine engine;
    const detect::MultiscaleResult& want =
        engine.process(frame, params, model, ms);
    ASSERT_EQ(want.per_level.size(), 1u);
    EXPECT_EQ(got.per_level[m].scale, config.scales[m]);
    EXPECT_EQ(got.per_level[m].windows, want.per_level[0].windows);
    EXPECT_EQ(got.per_level[m].detections, want.per_level[0].detections);
    EXPECT_EQ(got.per_level[m].cells_x, want.per_level[0].cells_x);
    EXPECT_EQ(got.per_level[m].cells_y, want.per_level[0].cells_y);
    for (detect::Detection d : want.raw) {
      ASSERT_LT(at, got.raw.size());
      d.scale = config.scales[m];
      expect_same_box(got.raw[at], d);
      ++at;
    }
  }
  EXPECT_EQ(at, got.raw.size());
  EXPECT_EQ(got.windows_evaluated, got.per_level[0].windows +
                                       got.per_level[1].windows +
                                       got.per_level[2].windows);
}

TEST(ModelPyramid, DetectWithoutTrainDies) {
  core::ModelPyramidDetector det;
  imgproc::ImageF frame(128, 192, 0.5f);
  EXPECT_DEATH(det.detect(frame), "trained");
}

// ----------------------------------------------------- model selection -----

TEST(ModelSelection, PrefersWorkableC) {
  // Data separable only with a bias (both blobs in the positive quadrant):
  // at C = 1e-6 the learned bias stays ~0 and the fold accuracy collapses,
  // so CV must pick one of the workable costs.
  util::Rng rng(69);
  svm::Dataset data;
  for (int i = 0; i < 150; ++i) {
    const std::array<float, 2> pos{static_cast<float>(rng.normal(10, 0.5)),
                                   static_cast<float>(rng.normal(10, 0.5))};
    const std::array<float, 2> neg{static_cast<float>(rng.normal(6, 0.5)),
                                   static_cast<float>(rng.normal(6, 0.5))};
    data.add(pos, 1);
    data.add(neg, -1);
  }
  const svm::CvReport report =
      svm::cross_validate(data, {1e-6, 1e-2, 1.0}, 4);
  ASSERT_EQ(report.per_candidate.size(), 3u);
  EXPECT_GT(report.best_C, 1e-6);
  for (const auto& r : report.per_candidate) {
    EXPECT_GE(r.mean_accuracy, r.min_fold_accuracy);
  }
}

TEST(ModelSelection, TieBreaksTowardSmallerC) {
  // Trivially separable: all candidates hit 100%; pick the smallest C.
  svm::Dataset data;
  for (int i = 0; i < 40; ++i) {
    const std::array<float, 1> pos{1.0f + 0.01f * static_cast<float>(i)};
    const std::array<float, 1> neg{-1.0f - 0.01f * static_cast<float>(i)};
    data.add(pos, 1);
    data.add(neg, -1);
  }
  const svm::CvReport report = svm::cross_validate(data, {0.1, 1.0, 10.0}, 4);
  EXPECT_DOUBLE_EQ(report.best_C, 0.1);
}

TEST(ModelSelection, DeterministicGivenSeed) {
  util::Rng rng(70);
  svm::Dataset data;
  for (int i = 0; i < 60; ++i) {
    const std::array<float, 2> x{static_cast<float>(rng.normal(0, 1)),
                                 static_cast<float>(rng.normal(0, 1))};
    data.add(x, rng.chance(0.5) ? 1 : -1);
  }
  const auto a = svm::cross_validate(data, {0.1, 1.0}, 3, {}, 5);
  const auto b = svm::cross_validate(data, {0.1, 1.0}, 3, {}, 5);
  ASSERT_EQ(a.per_candidate.size(), b.per_candidate.size());
  for (std::size_t i = 0; i < a.per_candidate.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_candidate[i].mean_accuracy,
                     b.per_candidate[i].mean_accuracy);
  }
}

}  // namespace
}  // namespace pdet
