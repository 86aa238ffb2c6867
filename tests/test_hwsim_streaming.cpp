// Tests for the streamed accelerator circuit's values: every level's
// window scores must be bit-identical to the batch fixed-point pipeline, and
// the memory organisation must behave as the paper claims (conflict-free
// banks, 18-row ring sufficiency).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/dataset/builder.hpp"
#include "src/dataset/scene.hpp"
#include "src/hwsim/accelerator.hpp"
#include "src/imgproc/convert.hpp"
#include "src/svm/train_dcd.hpp"
#include "src/util/rng.hpp"

namespace pdet::hwsim {
namespace {

imgproc::ImageU8 random_u8(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageU8 img(w, h);
  for (auto& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return img;
}

svm::LinearModel tiny_model(const hog::HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0.0, 0.02));
  model.bias = -0.05f;
  return model;
}

// One frame streamed at `scales` with a `rows`-row NHOGMem.
StreamingResult stream(const imgproc::ImageU8& frame,
                       const svm::LinearModel& model,
                       const hog::HogParams& params = {},
                       std::vector<double> scales = {1.0}, int rows = 18) {
  AcceleratorConfig config;
  config.hog = params;
  config.scales = std::move(scales);
  config.nhogmem_rows = rows;
  return Accelerator(config, model).stream({&frame, 1});
}

// Every streamed score of `level` equals the batch fixed-point score of the
// same window over `cells` (the level's cell grid), and every window is
// streamed exactly once.
void expect_level_matches_batch(const StreamLevel& level,
                                const IntCellGrid& cells,
                                const FixedHogPipeline& pipeline,
                                const QuantizedModel& qmodel) {
  const hog::HogParams& params = pipeline.params();
  ASSERT_EQ(level.grid.cells_x, cells.cells_x);
  ASSERT_EQ(level.grid.cells_y, cells.cells_y);
  const IntBlockGrid blocks = pipeline.normalize(cells);
  const int nx = cells.cells_x - params.cells_per_window_x() + 1;
  const int ny = cells.cells_y - params.cells_per_window_y() + 1;
  ASSERT_EQ(level.scores.size(),
            static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  std::map<std::pair<int, int>, double> streamed_at;
  for (const auto& s : level.scores) streamed_at[{s.cell_x, s.cell_y}] = s.score;
  for (int cy = 0; cy < ny; ++cy) {
    for (int cx = 0; cx < nx; ++cx) {
      const auto it = streamed_at.find({cx, cy});
      ASSERT_NE(it, streamed_at.end()) << cx << "," << cy;
      ASSERT_EQ(it->second, pipeline.classify_window(blocks, qmodel, cx, cy))
          << "streamed and batch scores differ at (" << cx << ", " << cy
          << ") at scale " << level.scale;
    }
  }
}

class StreamingVsBatch : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StreamingVsBatch, ScoresBitIdenticalToBatchPipeline) {
  const auto [w, h] = GetParam();
  const hog::HogParams params;
  const FixedPointConfig fp;
  const imgproc::ImageU8 frame = random_u8(w, h, 42 + static_cast<unsigned>(w));
  const svm::LinearModel model = tiny_model(params, 7);

  const StreamingResult streamed = stream(frame, model);
  const FixedHogPipeline pipeline(params, fp);
  ASSERT_EQ(streamed.levels.size(), 1u);
  expect_level_matches_batch(streamed.levels[0], pipeline.compute_cells(frame),
                             pipeline, QuantizedModel::quantize(model, fp));
}

INSTANTIATE_TEST_SUITE_P(FrameSizes, StreamingVsBatch,
                         testing::Values(std::pair{64, 128}, std::pair{96, 160},
                                         std::pair{136, 136},
                                         std::pair{168, 200}));

TEST(Streaming, RealImageryBitIdentical) {
  // Repeat the equivalence on structured (non-noise) content.
  const hog::HogParams params;
  const FixedPointConfig fp;
  util::Rng rng(11);
  dataset::SceneOptions opts;
  opts.width = 192;
  opts.height = 160;
  opts.pedestrian_distances_m = {14.0};
  const dataset::Scene scene = dataset::render_scene(rng, opts);
  const imgproc::ImageU8 frame = imgproc::to_u8(scene.image);
  const svm::LinearModel model = tiny_model(params, 13);

  const StreamingResult streamed = stream(frame, model);
  const FixedHogPipeline pipeline(params, fp);
  expect_level_matches_batch(streamed.levels[0], pipeline.compute_cells(frame),
                             pipeline, QuantizedModel::quantize(model, fp));
}

TEST(Streaming, RingOccupancyWithinEighteenRows) {
  const hog::HogParams params;
  const imgproc::ImageU8 frame = random_u8(160, 256, 3);
  const svm::LinearModel model = tiny_model(params, 3);
  const StreamingResult r = stream(frame, model);
  EXPECT_LE(r.levels[0].nhog_max_occupancy, 18);
  EXPECT_GE(r.levels[0].nhog_max_occupancy, 16);
}

TEST(Streaming, BankLoadIsBalanced) {
  // bank(row) = row mod 16 and each pass reads 16 consecutive rows, so every
  // bank must serve (nearly) the same number of reads — the conflict-free
  // pattern that lets 16 MACs stream one window column per 36 cycles.
  const hog::HogParams params;
  const imgproc::ImageU8 frame = random_u8(128, 256, 5);  // 16x32 cells
  const svm::LinearModel model = tiny_model(params, 5);
  const StreamLevel level = stream(frame, model).levels[0];
  EXPECT_GT(level.min_bank_reads, 0u);
  // Perfect balance for 32 rows (a multiple of 16): every bank identical.
  EXPECT_EQ(level.min_bank_reads, level.max_bank_reads);
}

TEST(Streaming, CycleCountExtractionBound) {
  const hog::HogParams params;
  const imgproc::ImageU8 frame = random_u8(128, 160, 9);
  const svm::LinearModel model = tiny_model(params, 9);
  const StreamingResult r = stream(frame, model);
  const std::uint64_t pixels = 128 * 160;
  EXPECT_GE(r.total_cycles, pixels);
  // Pixel stream + pipeline drain + the final row's normalizer/classifier.
  EXPECT_LE(r.total_cycles, pixels + 6000u);
}

TEST(Streaming, ScoresOrderedRowMajorPerPass) {
  const hog::HogParams params;
  const imgproc::ImageU8 frame = random_u8(96, 144, 21);
  const svm::LinearModel model = tiny_model(params, 21);
  const StreamingResult r = stream(frame, model);
  // Anchors must appear in pass order: row-major, exactly once each.
  int k = 0;
  const int nx = 96 / 8 - 8 + 1;
  for (const auto& s : r.levels[0].scores) {
    EXPECT_EQ(s.cell_y, k / nx);
    EXPECT_EQ(s.cell_x, k % nx);
    ++k;
  }
}

TEST(Streaming, MinimalRingStillExact) {
  // A ring of exactly one window's 16 rows must still stream correctly.
  const hog::HogParams params;
  const imgproc::ImageU8 frame = random_u8(96, 192, 33);
  const svm::LinearModel model = tiny_model(params, 33);
  const StreamLevel small = stream(frame, model, params, {1.0}, 16).levels[0];
  const StreamLevel big = stream(frame, model, params, {1.0}, 64).levels[0];
  ASSERT_EQ(small.scores.size(), big.scores.size());
  for (std::size_t i = 0; i < small.scores.size(); ++i) {
    EXPECT_EQ(small.scores[i].score, big.scores[i].score);
  }
  EXPECT_LE(small.nhog_max_occupancy, 16);
}

TEST(Streaming, NoSpatialInterpAlsoExact) {
  // The spill logic differs without bilinear voting; verify that path too.
  hog::HogParams params;
  params.spatial_interp = false;
  const FixedPointConfig fp;
  const imgproc::ImageU8 frame = random_u8(96, 160, 44);
  const svm::LinearModel model = tiny_model(params, 44);
  const StreamingResult streamed = stream(frame, model, params);
  const FixedHogPipeline pipeline(params, fp);
  expect_level_matches_batch(streamed.levels[0], pipeline.compute_cells(frame),
                             pipeline, QuantizedModel::quantize(model, fp));
}

class TwoScaleStreaming : public testing::TestWithParam<double> {};

// Every level of a frame streamed at `scales` equals the batch chain:
// compute_cells, then downscale_cells to the level's size, then normalize.
void expect_all_levels_match_batch(const imgproc::ImageU8& frame,
                                   const svm::LinearModel& model,
                                   const std::vector<double>& scales) {
  const hog::HogParams params;
  const FixedPointConfig fp;
  const StreamingResult streamed = stream(frame, model, params, scales);
  const FixedHogPipeline pipeline(params, fp);
  const QuantizedModel qmodel = QuantizedModel::quantize(model, fp);
  const IntCellGrid base = pipeline.compute_cells(frame);
  ASSERT_EQ(streamed.levels.size(), scales.size());
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const StreamLevel& level = streamed.levels[i];
    ASSERT_EQ(level.scale, scales[i]);
    const auto grid =
        pipeline.level_size({base.cells_x, base.cells_y}, scales[i]);
    ASSERT_TRUE(grid.has_value());
    expect_level_matches_batch(
        level,
        scales[i] == 1.0
            ? base
            : pipeline.downscale_cells(base, grid->cells_x, grid->cells_y),
        pipeline, qmodel);
  }
}

TEST_P(TwoScaleStreaming, BothLevelsBitIdenticalToBatch) {
  const imgproc::ImageU8 frame = random_u8(168, 256, 55);
  expect_all_levels_match_batch(frame, tiny_model({}, 55), {1.0, GetParam()});
}

INSTANTIATE_TEST_SUITE_P(Scales, TwoScaleStreaming,
                         testing::Values(1.3, 1.5, 2.0));

TEST(TwoScaleStreaming, BothRingsStayWithinCapacity) {
  const hog::HogParams params;
  const imgproc::ImageU8 frame = random_u8(192, 320, 56);
  const svm::LinearModel model = tiny_model(params, 56);
  const auto r = stream(frame, model, params, {1.0, 2.0});
  EXPECT_LE(r.levels[0].nhog_max_occupancy, 18);
  EXPECT_LE(r.levels[1].nhog_max_occupancy, 18);
  EXPECT_GE(r.levels[0].nhog_max_occupancy, 16);
}

TEST(TwoScaleStreaming, CycleCountStillExtractionBound) {
  const hog::HogParams params;
  // 16x32 cells: the scale-2 level (8x16) holds one window row.
  const imgproc::ImageU8 frame = random_u8(128, 256, 57);
  const svm::LinearModel model = tiny_model(params, 57);
  const auto r = stream(frame, model, params, {1.0, 2.0});
  ASSERT_EQ(r.levels.size(), 2u);
  const std::uint64_t pixels = 128 * 256;
  EXPECT_GE(r.total_cycles, pixels);
  // The second scale adds latency only at the frame tail (its classifier is
  // far faster than the extractor).
  EXPECT_LE(r.total_cycles, pixels + 8000u);
}

TEST(ThreeScaleStreaming, EveryLevelBitIdenticalToBatch) {
  // The paper's circuit generalised to one more scaler + chain; {1, 1.4, 2}
  // is the ladder the end-to-end detection tests use.
  const imgproc::ImageU8 frame = random_u8(192, 320, 58);
  expect_all_levels_match_batch(frame, tiny_model({}, 58), {1.0, 1.4, 2.0});
}

TEST(MultiFrameStreaming, EachFrameBitIdenticalToItsOwnBatch) {
  // Frames streamed back to back share line buffers, accumulator banks,
  // normalizer windows, scaler rows and the NHOGMem ring; no value may leak
  // across a frame boundary. 160 rows is not a multiple of the 3-line
  // buffer, so each frame starts on a different line slot.
  const hog::HogParams params;
  const FixedPointConfig fp;
  const svm::LinearModel model = tiny_model(params, 59);
  std::vector<imgproc::ImageU8> frames;
  for (std::uint64_t f = 0; f < 3; ++f) frames.push_back(random_u8(96, 160, 60 + f));
  AcceleratorConfig config;
  config.scales = {1.0, 1.5};
  const StreamingResult r = Accelerator(config, model).stream(frames);
  ASSERT_EQ(r.frame_done_cycles.size(), 3u);

  const FixedHogPipeline pipeline(params, fp);
  const QuantizedModel qmodel = QuantizedModel::quantize(model, fp);
  for (const StreamLevel& level : r.levels) {
    for (int f = 0; f < 3; ++f) {
      StreamLevel one = level;
      std::erase_if(one.scores, [f](const WindowScore& s) { return s.frame != f; });
      const IntCellGrid base = pipeline.compute_cells(frames[static_cast<std::size_t>(f)]);
      expect_level_matches_batch(
          one,
          level.scale == 1.0 ? base
                             : pipeline.downscale_cells(base, level.grid.cells_x,
                                                        level.grid.cells_y),
          pipeline, qmodel);
    }
  }
}

}  // namespace
}  // namespace pdet::hwsim
