// Unit/integration tests for src/detect: IoU, NMS, scanning, multi-scale.
#include <gtest/gtest.h>

#include <cmath>

#include "src/dataset/builder.hpp"
#include "src/util/rng.hpp"
#include "src/dataset/synth.hpp"
#include "src/detect/multiscale.hpp"
#include "src/detect/nms.hpp"
#include "src/detect/scanner.hpp"
#include "src/svm/train_dcd.hpp"

namespace pdet::detect {
namespace {

Detection box(int x, int y, int w, int h, float score = 0.0f) {
  Detection d;
  d.x = x;
  d.y = y;
  d.width = w;
  d.height = h;
  d.score = score;
  return d;
}

TEST(Iou, IdenticalBoxes) {
  EXPECT_DOUBLE_EQ(iou(box(0, 0, 10, 10), box(0, 0, 10, 10)), 1.0);
}

TEST(Iou, DisjointBoxes) {
  EXPECT_DOUBLE_EQ(iou(box(0, 0, 10, 10), box(20, 20, 10, 10)), 0.0);
}

TEST(Iou, TouchingEdgesIsZero) {
  EXPECT_DOUBLE_EQ(iou(box(0, 0, 10, 10), box(10, 0, 10, 10)), 0.0);
}

TEST(Iou, HalfOverlap) {
  // 10x10 boxes offset by 5 in x: intersection 50, union 150.
  EXPECT_NEAR(iou(box(0, 0, 10, 10), box(5, 0, 10, 10)), 50.0 / 150.0, 1e-12);
}

TEST(Iou, ContainedBox) {
  EXPECT_NEAR(iou(box(0, 0, 10, 10), box(2, 2, 5, 5)), 25.0 / 100.0, 1e-12);
}

TEST(Iou, EmptyBoxIsZero) {
  EXPECT_DOUBLE_EQ(iou(box(0, 0, 0, 0), box(0, 0, 10, 10)), 0.0);
}

TEST(Nms, KeepsHighestScoringOfCluster) {
  std::vector<Detection> dets{box(0, 0, 10, 10, 0.5f), box(1, 0, 10, 10, 0.9f),
                              box(0, 1, 10, 10, 0.7f)};
  const auto kept = nms(dets, 0.5);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
}

TEST(Nms, KeepsDistantDetections) {
  std::vector<Detection> dets{box(0, 0, 10, 10, 0.5f),
                              box(100, 100, 10, 10, 0.4f)};
  const auto kept = nms(dets, 0.5);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Nms, ThresholdControlsMerging) {
  std::vector<Detection> dets{box(0, 0, 10, 10, 0.9f), box(4, 0, 10, 10, 0.8f)};
  // IoU = 60/140 ~ 0.43.
  EXPECT_EQ(nms(dets, 0.5).size(), 2u);
  EXPECT_EQ(nms(dets, 0.3).size(), 1u);
}

TEST(Nms, OutputSortedByScore) {
  std::vector<Detection> dets{box(0, 0, 5, 5, 0.1f), box(50, 0, 5, 5, 0.9f),
                              box(100, 0, 5, 5, 0.5f)};
  const auto kept = nms(dets, 0.5);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].score, kept[1].score);
  EXPECT_GE(kept[1].score, kept[2].score);
}

TEST(Nms, EmptyInput) { EXPECT_TRUE(nms({}, 0.5).empty()); }

TEST(Nms, IdempotentOnItsOwnOutput) {
  util::Rng rng(19);
  std::vector<Detection> dets;
  for (int i = 0; i < 200; ++i) {
    dets.push_back(box(rng.uniform_int(0, 300), rng.uniform_int(0, 300), 40,
                       80, static_cast<float>(rng.uniform(-1, 1))));
  }
  const auto once = nms(dets, 0.45);
  const auto twice = nms(once, 0.45);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].x, twice[i].x);
    EXPECT_FLOAT_EQ(once[i].score, twice[i].score);
  }
}

TEST(Nms, TiedScoresBreakByGeometryNotInputOrder) {
  // Symmetric content produces exactly-tied scores; the survivor must be
  // picked by the documented total order (x, then y, then width, height),
  // not by where the box happened to sit in the input.
  const std::vector<Detection> cluster{
      box(4, 0, 10, 10, 0.8f), box(0, 0, 10, 10, 0.8f), box(0, 4, 10, 10, 0.8f)};
  std::vector<std::vector<Detection>> orders{
      {cluster[0], cluster[1], cluster[2]},
      {cluster[1], cluster[2], cluster[0]},
      {cluster[2], cluster[0], cluster[1]},
      {cluster[2], cluster[1], cluster[0]}};
  for (const auto& dets : orders) {
    const auto kept = nms(dets, 0.3);
    ASSERT_EQ(kept.size(), 1u);
    // Smallest x wins the tie; ties in x fall through to y.
    EXPECT_EQ(kept[0].x, 0);
    EXPECT_EQ(kept[0].y, 0);
  }
}

TEST(Nms, DetectionOrderIsATotalOrder) {
  const Detection a = box(0, 0, 10, 10, 0.5f);
  const Detection b = box(0, 0, 10, 12, 0.5f);
  EXPECT_TRUE(detection_order(a, b));
  EXPECT_FALSE(detection_order(b, a));
  EXPECT_FALSE(detection_order(a, a));  // irreflexive
  // Score dominates every geometric key.
  EXPECT_TRUE(detection_order(box(99, 99, 1, 1, 0.6f), a));
}

TEST(Nms, SurvivorsArePairwiseBelowThreshold) {
  util::Rng rng(20);
  std::vector<Detection> dets;
  for (int i = 0; i < 150; ++i) {
    dets.push_back(box(rng.uniform_int(0, 200), rng.uniform_int(0, 200), 64,
                       128, static_cast<float>(rng.uniform(-1, 1))));
  }
  const auto kept = nms(dets, 0.4);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = i + 1; j < kept.size(); ++j) {
      EXPECT_LE(iou(kept[i], kept[j]), 0.4);
    }
  }
}

class DetectFixture : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    params_ = new hog::HogParams();
    const dataset::WindowSet train = dataset::make_window_set(71, 150, 300);
    const svm::Dataset data = dataset::to_svm_dataset(train, *params_);
    svm::DcdOptions opts;
    opts.C = 0.01;
    model_ = new svm::LinearModel(svm::train_dcd(data, opts));
  }
  static void TearDownTestSuite() {
    delete params_;
    delete model_;
    params_ = nullptr;
    model_ = nullptr;
  }

  /// One level through scan_level_into on a fresh CPU backend and batch.
  static std::vector<Detection> scan_hits(const hog::BlockGrid& blocks,
                                          const ScanOptions& options) {
    score::CpuBackend backend;
    score::ScoreBatch batch;
    batch.configure(static_cast<std::size_t>(params_->descriptor_size()),
                    score::kDefaultBatchCapacity);
    std::vector<Detection> hits;
    scan_level_into(blocks, *params_, *model_, backend, options, batch, hits);
    return hits;
  }

  static hog::HogParams* params_;
  static svm::LinearModel* model_;
};

hog::HogParams* DetectFixture::params_ = nullptr;
svm::LinearModel* DetectFixture::model_ = nullptr;

TEST_F(DetectFixture, ScanFindsPlantedPedestrian) {
  // Plant a pedestrian window at cell position (8, 4) in a larger frame.
  util::Rng rng(5);
  imgproc::ImageF frame(256, 320, 0.5f);
  dataset::fill_background(frame, rng, 0.5f);
  const imgproc::ImageF ped = dataset::render_pedestrian(rng);
  frame.paste(ped, 64, 32);

  const hog::CellGrid cells = hog::compute_cell_grid(frame, *params_);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, *params_);
  ScanOptions scan;
  scan.threshold = 0.0f;
  const auto hits = scan_hits(blocks, scan);
  ASSERT_FALSE(hits.empty());
  // The best hit must be near the planted location.
  const Detection* best = &hits[0];
  for (const auto& h : hits) {
    if (h.score > best->score) best = &h;
  }
  EXPECT_NEAR(best->x, 64, 16);
  EXPECT_NEAR(best->y, 32, 16);
}

TEST_F(DetectFixture, ScanWindowCountMatchesFormula) {
  const hog::CellGrid cells =
      hog::compute_cell_grid(imgproc::ImageF(256, 320, 0.5f), *params_);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, *params_);
  // 32x40 cells -> (32-8+1) x (40-16+1) = 25 x 25.
  EXPECT_EQ(scan_window_count(blocks, *params_, 1), 25 * 25);
  EXPECT_EQ(scan_window_count(blocks, *params_, 2), 13 * 13);
}

TEST_F(DetectFixture, ScanStrideReducesDetections) {
  util::Rng rng(6);
  imgproc::ImageF frame(256, 320, 0.5f);
  dataset::fill_background(frame, rng, 0.5f);
  const hog::CellGrid cells = hog::compute_cell_grid(frame, *params_);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, *params_);
  ScanOptions s1;
  s1.threshold = -1e9f;
  ScanOptions s2 = s1;
  s2.cell_stride = 2;
  EXPECT_GT(scan_hits(blocks, s1).size(), scan_hits(blocks, s2).size());
}

class StrategyTest : public DetectFixture,
                     public testing::WithParamInterface<PyramidStrategy> {};

TEST_P(StrategyTest, DetectsLargePedestrianAtScaleTwo) {
  // Pedestrian rendered at 2x window size: only the scale-2 level fits it.
  util::Rng rng(9);
  imgproc::ImageF frame(384, 384, 0.55f);
  dataset::fill_background(frame, rng, 0.55f);
  dataset::draw_pedestrian_into(frame, rng, /*feet_x=*/192, /*feet_y=*/330,
                                /*height_px=*/205, /*person_luminance=*/0.1f);

  MultiscaleOptions opts;
  opts.strategy = GetParam();
  opts.scales = {1.0, 2.0};
  opts.scan.threshold = -0.3f;
  const MultiscaleResult result =
      detect_multiscale(frame, *params_, *model_, opts);
  ASSERT_FALSE(result.detections.empty());

  // Expect some detection at scale 2 overlapping the person's extent.
  Detection truth = {};
  truth.x = 192 - 64;
  truth.y = 330 - 256 + (256 - 205) / 2 - 10;
  truth.width = 128;
  truth.height = 256;
  bool found = false;
  for (const auto& d : result.detections) {
    if (d.scale == 2.0 && iou(d, truth) > 0.3) found = true;
  }
  EXPECT_TRUE(found) << "no scale-2 detection near the planted pedestrian";
}

TEST_P(StrategyTest, WindowAccountingMatchesLevels) {
  imgproc::ImageF frame(256, 256, 0.5f);
  MultiscaleOptions opts;
  opts.strategy = GetParam();
  opts.scales = {1.0, 2.0};
  opts.scan.threshold = 1e9f;  // suppress all detections; count windows only
  const MultiscaleResult result =
      detect_multiscale(frame, *params_, *model_, opts);
  EXPECT_EQ(result.levels, 2);
  // 32x32 cells: (25 * 17) + 16x16 cells: (9 * 1).
  EXPECT_EQ(result.windows_evaluated, 25LL * 17LL + 9LL * 1LL);
  EXPECT_TRUE(result.detections.empty());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         testing::Values(PyramidStrategy::kImage,
                                         PyramidStrategy::kFeature,
                                         PyramidStrategy::kHybrid));

TEST_F(DetectFixture, CoordinateMappingScalesBoxes) {
  imgproc::ImageF frame(256, 256, 0.5f);
  MultiscaleOptions opts;
  opts.scales = {1.0, 2.0};
  opts.scan.threshold = -1e9f;  // accept everything
  opts.run_nms = false;
  const MultiscaleResult result =
      detect_multiscale(frame, *params_, *model_, opts);
  bool saw_scale2 = false;
  for (const auto& d : result.raw) {
    if (d.scale == 2.0) {
      saw_scale2 = true;
      EXPECT_EQ(d.width, 128);
      EXPECT_EQ(d.height, 256);
    } else {
      EXPECT_EQ(d.width, 64);
      EXPECT_EQ(d.height, 128);
    }
  }
  EXPECT_TRUE(saw_scale2);
}

TEST_F(DetectFixture, ScoreMapPeaksAtPlantedPedestrian) {
  util::Rng rng(14);
  imgproc::ImageF frame(256, 320, 0.5f);
  dataset::fill_background(frame, rng, 0.5f);
  const imgproc::ImageF ped = dataset::render_pedestrian(rng);
  frame.paste(ped, 64, 96);  // anchor cell (8, 12)
  const hog::CellGrid cells = hog::compute_cell_grid(frame, *params_);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, *params_);
  const imgproc::ImageF map = score_map(blocks, *params_, *model_);
  EXPECT_EQ(map.width(), 25);   // 32 - 8 + 1
  EXPECT_EQ(map.height(), 25);  // 40 - 16 + 1
  int best_x = 0;
  int best_y = 0;
  float best = map.at(0, 0);
  for (int y = 0; y < map.height(); ++y) {
    for (int x = 0; x < map.width(); ++x) {
      if (map.at(x, y) > best) {
        best = map.at(x, y);
        best_x = x;
        best_y = y;
      }
    }
  }
  EXPECT_NEAR(best_x, 8, 2);
  EXPECT_NEAR(best_y, 12, 2);
}

TEST_F(DetectFixture, ScoreMapAgreesWithScan) {
  imgproc::ImageF frame(128, 192, 0.5f);
  const hog::CellGrid cells = hog::compute_cell_grid(frame, *params_);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, *params_);
  const imgproc::ImageF map = score_map(blocks, *params_, *model_);
  ScanOptions scan;
  scan.threshold = -1e9f;
  const auto hits = scan_hits(blocks, scan);
  ASSERT_EQ(hits.size(),
            static_cast<std::size_t>(map.width()) * static_cast<std::size_t>(map.height()));
  for (const auto& h : hits) {
    EXPECT_FLOAT_EQ(map.at(h.x / 8, h.y / 8), h.score);
  }
}

TEST_F(DetectFixture, NmsReducesRawDetections) {
  util::Rng rng(12);
  imgproc::ImageF frame(256, 320, 0.5f);
  dataset::fill_background(frame, rng, 0.5f);
  const imgproc::ImageF ped = dataset::render_pedestrian(rng);
  frame.paste(ped, 96, 96);
  MultiscaleOptions opts;
  opts.scales = {1.0};
  opts.scan.threshold = -0.5f;
  const MultiscaleResult result =
      detect_multiscale(frame, *params_, *model_, opts);
  EXPECT_LE(result.detections.size(), result.raw.size());
}

}  // namespace
}  // namespace pdet::detect
