// Cross-module integration tests: software detector vs hardware model on
// full scenes, end-to-end timing/accounting consistency.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/scene.hpp"
#include "src/detect/nms.hpp"
#include "src/hwsim/accelerator.hpp"
#include "src/imgproc/convert.hpp"
#include "src/util/logging.hpp"

namespace pdet {
namespace {

class EndToEnd : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::set_log_level(util::LogLevel::kWarn);
    detector_ = new core::PedestrianDetector();
    const dataset::WindowSet train = dataset::make_window_set(91, 200, 400);
    detector_->train(train);
    hwsim::AcceleratorConfig config;
    accel_ = new hwsim::Accelerator(config, detector_->model());
  }
  static void TearDownTestSuite() {
    delete accel_;
    delete detector_;
    accel_ = nullptr;
    detector_ = nullptr;
  }

  static dataset::Scene make_scene(std::uint64_t seed) {
    util::Rng rng(seed);
    dataset::SceneOptions opts;
    opts.width = 512;
    opts.height = 384;
    // Distances chosen so pedestrians land near scale 1 and scale 2 of the
    // 128-px window: person_px = 1000 * 1.7 / d -> ~102 px at 16.6 m (scale
    // 1) and ~205 px at 8.3 m (scale 2).
    opts.camera.focal_px = 1000.0;
    opts.pedestrian_distances_m = {16.5, 8.5};
    return dataset::render_scene(rng, opts);
  }

  static bool matches_truth(const detect::Detection& d,
                            const dataset::GroundTruthBox& t,
                            double min_iou = 0.35) {
    detect::Detection truth;
    truth.x = t.x;
    truth.y = t.y;
    truth.width = t.width;
    truth.height = t.height;
    return detect::iou(d, truth) >= min_iou;
  }

  static core::PedestrianDetector* detector_;
  static hwsim::Accelerator* accel_;
};

core::PedestrianDetector* EndToEnd::detector_ = nullptr;
hwsim::Accelerator* EndToEnd::accel_ = nullptr;

TEST_F(EndToEnd, SoftwareDetectorFindsScenePedestrians) {
  int found = 0;
  int total = 0;
  for (const std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
    const dataset::Scene scene = make_scene(seed);
    auto& config = detector_->mutable_config();
    config.multiscale.scales = {1.0, 1.4, 2.0};
    config.multiscale.scan.threshold = -0.2f;
    const auto result = detector_->detect(scene.image);
    for (const auto& t : scene.truth) {
      ++total;
      for (const auto& d : result.detections) {
        if (matches_truth(d, t)) {
          ++found;
          break;
        }
      }
    }
  }
  EXPECT_GE(found * 2, total) << "software detector missed most pedestrians";
}

TEST_F(EndToEnd, AcceleratorAgreesWithSoftwareOnWindows) {
  // Score windows through both stacks; decisions must agree almost always.
  const dataset::WindowSet test = dataset::make_window_set(92, 40, 40);
  const hwsim::FixedHogPipeline pipeline(detector_->config().hog);
  const hwsim::QuantizedModel qmodel = accel_->quantized_model();
  int agree = 0;
  for (std::size_t i = 0; i < test.count(); ++i) {
    const float sw = detector_->score_window(test.windows[i]);
    const imgproc::ImageU8 u8 = imgproc::to_u8(test.windows[i]);
    const auto blocks = pipeline.normalize(pipeline.compute_cells(u8));
    const double hw = pipeline.classify_window(blocks, qmodel, 0, 0);
    if ((sw > 0) == (hw > 0)) ++agree;
  }
  EXPECT_GE(agree, 76);
}

TEST_F(EndToEnd, AcceleratorDetectsInScene) {
  const dataset::Scene scene = make_scene(104);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);
  hwsim::AcceleratorConfig config;
  config.threshold = -0.2f;
  config.scales = {1.0, 1.4, 2.0};
  const hwsim::Accelerator accel(config, detector_->model());
  const auto raw = accel.detect(frame);
  const auto dets = detect::nms(raw);
  int found = 0;
  for (const auto& t : scene.truth) {
    for (const auto& d : dets) {
      if (matches_truth(d, t)) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, 1) << "accelerator found none of " << scene.truth.size()
                      << " pedestrians";
}

TEST_F(EndToEnd, ProcessFrameTimingConsistentWithModel) {
  const dataset::Scene scene = make_scene(105);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);
  const auto result = accel_->process_frame(frame);
  const auto timing = accel_->timing(frame.width(), frame.height());
  // The simulated cycle count is extraction-bound: within a few sweeps of
  // the closed-form pixel count.
  EXPECT_GE(result.timing.total_cycles, timing.extractor_frame_cycles());
  EXPECT_LE(result.timing.total_cycles,
            timing.extractor_frame_cycles() +
                3 * hwsim::TimingModel::sweep_cycles(frame.width() / 8) +
                4ull * static_cast<unsigned long long>(frame.width()));
  for (const auto& level : result.timing.levels) {
    EXPECT_LE(level.nhog_max_occupancy, 18);
  }
}

TEST_F(EndToEnd, ProcessFrameWindowCountMatchesScanFormula) {
  const dataset::Scene scene = make_scene(106);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);
  const auto result = accel_->process_frame(frame);
  const int cols = frame.width() / 8;
  const int rows = frame.height() / 8;
  EXPECT_EQ(result.timing.levels[0].scores.size(),
            static_cast<std::uint64_t>(cols - 7) *
                static_cast<std::uint64_t>(rows - 15));
}

TEST_F(EndToEnd, ProcessFrameRawIsTheBatchPathsRaw) {
  // process_frame's detections come from the streamed circuit, detect()'s
  // from the batch datapath: same boxes in the same order, bitwise scores.
  const dataset::Scene scene = make_scene(109);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);
  for (const std::vector<double>& scales :
       {std::vector<double>{1.0, 2.0}, std::vector<double>{1.0, 1.4, 2.0}}) {
    hwsim::AcceleratorConfig config;
    config.threshold = -0.5f;
    config.scales = scales;
    const hwsim::Accelerator accel(config, detector_->model());
    const auto streamed = accel.process_frame(frame).raw;
    const auto batch = accel.detect(frame);
    ASSERT_FALSE(batch.empty());
    ASSERT_EQ(streamed.size(), batch.size()) << scales.size() << " scales";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(streamed[i].x, batch[i].x);
      EXPECT_EQ(streamed[i].y, batch[i].y);
      EXPECT_EQ(streamed[i].width, batch[i].width);
      EXPECT_EQ(streamed[i].height, batch[i].height);
      EXPECT_EQ(streamed[i].scale, batch[i].scale);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(streamed[i].score),
                std::bit_cast<std::uint32_t>(batch[i].score));
    }
  }
}

TEST_F(EndToEnd, ResourceReportForConfiguredScales) {
  const auto resources = accel_->resources(1920, 1080);
  EXPECT_TRUE(resources.fits());
  EXPECT_NEAR(resources.total().lut, 26051, 1.0);
}

TEST_F(EndToEnd, HigherThresholdNeverAddsDetections) {
  const dataset::Scene scene = make_scene(107);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);
  hwsim::AcceleratorConfig lo;
  lo.threshold = -0.5f;
  hwsim::AcceleratorConfig hi;
  hi.threshold = 0.5f;
  const hwsim::Accelerator a_lo(lo, detector_->model());
  const hwsim::Accelerator a_hi(hi, detector_->model());
  EXPECT_GE(a_lo.detect(frame).size(), a_hi.detect(frame).size());
}

TEST_F(EndToEnd, FeatureAndImagePyramidsAgreeOnStrongDetections) {
  const dataset::Scene scene = make_scene(108);
  auto& config = detector_->mutable_config();
  config.multiscale.scan.threshold = 0.4f;  // strong hits only
  config.multiscale.scales = {1.0, 2.0};
  config.multiscale.strategy = detect::PyramidStrategy::kFeature;
  const auto feature = detector_->detect(scene.image);
  config.multiscale.strategy = detect::PyramidStrategy::kImage;
  const auto image = detector_->detect(scene.image);
  config.multiscale.scan.threshold = 0.0f;

  // Every strong feature-pyramid detection should have an image-pyramid
  // counterpart at lower confidence, and vice versa (IoU >= 0.3 at scale 1;
  // scale-2 boxes are coarser).
  config.multiscale.scan.threshold = -0.2f;
  config.multiscale.strategy = detect::PyramidStrategy::kImage;
  const auto image_loose = detector_->detect(scene.image);
  int matched = 0;
  for (const auto& f : feature.detections) {
    for (const auto& i : image_loose.detections) {
      if (detect::iou(f, i) >= 0.3) {
        ++matched;
        break;
      }
    }
  }
  if (!feature.detections.empty()) {
    EXPECT_GE(matched * 3, static_cast<int>(feature.detections.size()) * 2)
        << "pyramid strategies diverge on strong detections";
  }
  config.multiscale.strategy = detect::PyramidStrategy::kFeature;
  (void)image;
}

}  // namespace
}  // namespace pdet
