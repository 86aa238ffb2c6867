// Tests for the timing model, the streamed circuit's timing, and the
// resource model — the paper's Section 5 numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/hwsim/accelerator.hpp"
#include "src/hwsim/resources.hpp"
#include "src/hwsim/timing.hpp"
#include "src/sim/vcd.hpp"
#include "src/util/rng.hpp"

namespace pdet::hwsim {
namespace {

TEST(Timing, SweepCyclesFormula) {
  // 288-cycle fill + 36 per remaining column (paper Section 5).
  EXPECT_EQ(TimingModel::sweep_cycles(1), 288u);
  EXPECT_EQ(TimingModel::sweep_cycles(240), 288u + 239u * 36u);
}

TEST(Timing, PaperHdtvClassifierCycles) {
  // "the classifier can complete its job for a frame of image within
  //  1200420 clock cycles" — 135 cell rows x 8892 cycles.
  const TimingModel model;  // defaults: 1920x1080 @ 125 MHz
  EXPECT_EQ(model.classifier_frame_cycles(), 1'200'420u);
}

TEST(Timing, PaperClassifierUnderTenMs) {
  const TimingModel model;
  EXPECT_LT(model.classifier_frame_ms(), 10.0);  // "within less than 10ms"
  EXPECT_GT(model.classifier_frame_ms(), 9.0);   // 9.60 ms at 125 MHz
}

TEST(Timing, PaperSixtyFpsHdtv) {
  const TimingModel model;
  // Ingest at 1 px/cycle: 2,073,600 cycles = 16.59 ms -> 60.27 fps.
  EXPECT_EQ(model.extractor_frame_cycles(), 1920u * 1080u);
  EXPECT_TRUE(model.meets_fps(60.0));
  EXPECT_NEAR(model.max_fps(), 60.28, 0.05);
  // "detect pedestrian objects ... within 16.6ms".
  EXPECT_LT(1e3 / model.max_fps(), 16.6);
}

TEST(Timing, FrameLatencyBoundedByBottleneckPlusDrain) {
  const TimingModel model;
  EXPECT_GE(model.frame_latency_cycles(), model.extractor_frame_cycles());
  EXPECT_LE(model.frame_latency_cycles(),
            model.extractor_frame_cycles() + TimingModel::sweep_cycles(240));
}

TEST(Timing, ScaledLevelIsCheaper) {
  const TimingModel model;
  EXPECT_LT(model.classifier_frame_cycles_at_scale(2.0),
            model.classifier_frame_cycles() / 3);
}

TEST(Timing, ScaledLevelSmallerThanAWindowCostsNothing) {
  // 128x192 is 16 x 24 cells; at scale 2 the level is 8 x 12, short of the
  // window's 16 rows, so the circuit drops it and the closed form charges
  // nothing for it. HDTV's levels are unchanged.
  TimingConfig config;
  config.frame_width = 128;
  config.frame_height = 192;
  const TimingModel small(config);
  EXPECT_EQ(small.classifier_frame_cycles_at_scale(2.0), 0u);
  EXPECT_EQ(small.classifier_frame_cycles_at_scale(1.0),
            small.classifier_frame_cycles());
  const TimingModel hdtv;
  EXPECT_EQ(hdtv.classifier_frame_cycles_at_scale(1.0), 1'200'420u);
  EXPECT_EQ(hdtv.classifier_frame_cycles_at_scale(2.0), 310'896u);
}

TEST(Timing, SmallerFramesScaleDown) {
  TimingConfig config;
  config.frame_width = 640;
  config.frame_height = 480;
  const TimingModel model(config);
  // 60 cell rows x (288 + 79*36) cycles.
  EXPECT_EQ(model.classifier_frame_cycles(), 60u * (288u + 79u * 36u));
  EXPECT_GT(model.max_fps(), 60.0);
}

// ----------------------------------------------- the streamed circuit's time

// Timing does not depend on pixel values or weights: every pixel casts a
// vote and every window is scored. Random frames and a random model keep
// the runs honest anyway.
svm::LinearModel random_model(std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(hog::HogParams{}.descriptor_size()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0.0, 0.02));
  return model;
}

std::vector<imgproc::ImageU8> random_frames(int w, int h, int count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<imgproc::ImageU8> frames;
  for (int f = 0; f < count; ++f) {
    imgproc::ImageU8 img(w, h);
    for (auto& p : img.pixels()) {
      p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    frames.push_back(std::move(img));
  }
  return frames;
}

StreamingResult stream(int w, int h, std::vector<double> scales,
                       int frames = 1, int nhogmem_rows = 18,
                       sim::VcdWriter* vcd = nullptr) {
  AcceleratorConfig config;
  config.scales = std::move(scales);
  config.nhogmem_rows = nhogmem_rows;
  const Accelerator accel(config, random_model(7));
  return accel.stream(random_frames(w, h, frames, 11), vcd);
}

std::uint64_t windows(const StreamLevel& level) { return level.scores.size(); }

TEST(StreamTiming, SmallFrameCountsWindowsPerLevel) {
  const StreamingResult r = stream(256, 256, {1.0, 2.0});
  ASSERT_EQ(r.levels.size(), 2u);
  // Native grid 32x32: (32-8+1) windows per pass, (32-15) passes with output.
  EXPECT_EQ(windows(r.levels[0]), 25u * 17u);
  // Scaled grid 16x16: 9 windows x 1 productive pass.
  EXPECT_EQ(r.levels[1].scale, 2.0);
  EXPECT_EQ(windows(r.levels[1]), 9u);
}

TEST(StreamTiming, NoExtraScaleStillCompletes) {
  const StreamingResult r = stream(128, 192, {1.0});
  // 16x24 grid: 9 window columns x (24-15) productive passes.
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_EQ(windows(r.levels[0]), 9u * 9u);
}

TEST(StreamTiming, WideFrameWindowCount) {
  const StreamingResult r = stream(512, 256, {1.0});
  EXPECT_EQ(windows(r.levels[0]),
            static_cast<std::uint64_t>((64 - 7) * (32 - 15)));
}

TEST(StreamTiming, TotalCyclesNearPixelStreamBound) {
  const StreamingResult r = stream(256, 256, {1.0, 2.0});
  const std::uint64_t pixels = 256u * 256u;
  // Extraction-bound: total = pixel ingest + pipeline drain + final sweeps.
  EXPECT_GE(r.total_cycles, pixels);
  EXPECT_LE(r.total_cycles, pixels + TimingModel::sweep_cycles(32) * 3 + 256 * 4);
}

TEST(StreamTiming, RingPeakWithinCapacity) {
  const StreamingResult r = stream(256, 256, {1.0, 2.0});
  // The paper reduced NHOGMem to 18 rows; the streamed circuit fits in that
  // ring but genuinely needs a 16-row window plus rows in flight.
  EXPECT_EQ(r.nhog_capacity, 18);
  for (const StreamLevel& level : r.levels) {
    EXPECT_LE(level.nhog_max_occupancy, 18);
  }
  EXPECT_GE(r.levels[0].nhog_max_occupancy, 16);
}

TEST(StreamTiming, WindowSizedRingCompletes) {
  // A ring of exactly one window's rows is the smallest the accelerator
  // takes; whether it keeps up is left to the simulation, and it does.
  const StreamingResult r = stream(256, 256, {1.0, 2.0}, 1, 16);
  EXPECT_LE(r.levels[0].nhog_max_occupancy, 16);
  EXPECT_EQ(windows(r.levels[0]), 25u * 17u);
  EXPECT_EQ(windows(r.levels[1]), 9u);
}

TEST(StreamTiming, RejectsRingSmallerThanAWindow) {
  AcceleratorConfig config;
  config.nhogmem_rows = 15;  // a window's 16 rows can never be resident
  EXPECT_DEATH(Accelerator(config, random_model(1)), "nhogmem_rows");
}

TEST(StreamTiming, GradientStreamsEveryCycle) {
  const StreamingResult r = stream(256, 256, {1.0, 2.0});
  // Extraction dominates: the gradient unit is busy nearly every cycle.
  EXPECT_GT(r.utilization_gradient, 0.9);
}

TEST(StreamTiming, ClassifierFasterThanExtractor) {
  const StreamingResult r = stream(256, 256, {1.0, 2.0});
  // "Ensuring that our classifier is as fast as the previous HOG extractor
  // stage": the classifier must not be the bottleneck (busy < extractor).
  EXPECT_LT(r.utilization_classifier, r.utilization_gradient);
}

TEST(StreamTiming, FpsReportedFromClock) {
  const StreamingResult r = stream(256, 256, {1.0, 2.0});
  EXPECT_NEAR(r.fps, 125e6 / static_cast<double>(r.total_cycles), 1e-9);
  EXPECT_NEAR(r.frame_ms, 1e3 / r.fps, 1e-12);
}

TEST(StreamTiming, SingleFrameHasNoSustainedPeriod) {
  const StreamingResult r = stream(128, 192, {1.0});
  ASSERT_EQ(r.frame_done_cycles.size(), 1u);
  EXPECT_EQ(r.frame_done_cycles[0], r.total_cycles);
  EXPECT_EQ(r.sustained_period_cycles, 0u);
}

TEST(StreamTiming, SustainedThroughputMatchesExtractorRate) {
  // Three frames streamed back to back: the inter-frame completion period
  // must equal the extractor's pixel count (the bottleneck stage), which is
  // the basis of the paper's 60 fps HDTV claim.
  const StreamingResult r = stream(256, 256, {1.0, 2.0}, 3);
  ASSERT_EQ(r.frame_done_cycles.size(), 3u);
  const std::uint64_t pixels = 256u * 256u;
  EXPECT_NEAR(static_cast<double>(r.sustained_period_cycles),
              static_cast<double>(pixels), static_cast<double>(pixels) * 0.02);
  // The camera cannot be stalled, so it sets the pace exactly: a stage that
  // lost even one cycle per frame would lengthen the period and, frames
  // later, overrun the gradient line buffer.
  EXPECT_EQ(r.sustained_period_cycles, pixels);
  EXPECT_EQ(r.frame_done_cycles[2] - r.frame_done_cycles[1],
            r.frame_done_cycles[1] - r.frame_done_cycles[0]);
  // Window counts triple relative to one frame.
  EXPECT_EQ(windows(r.levels[0]), 3u * 25u * 17u);
  EXPECT_EQ(windows(r.levels[1]), 3u * 9u);
  // The ring never grows beyond the paper's 18 rows across frame boundaries.
  EXPECT_LE(r.levels[0].nhog_max_occupancy, 18);
}

TEST(StreamTiming, ScaledLevelTooSmallForAWindowIsDropped) {
  // At scale 2 a 128x192 frame's 16x24 cells become 8x12: too short for a
  // 16-row window. Both paths drop the level rather than stretch it.
  AcceleratorConfig config;
  config.threshold = -1e9f;  // keep every window
  const Accelerator accel(config, random_model(3));
  const auto frames = random_frames(128, 192, 1, 5);
  const StreamingResult r = accel.stream(frames);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_EQ(r.levels[0].scale, 1.0);
  const auto raw = accel.detect(frames[0]);
  EXPECT_EQ(raw.size(), 9u * 9u);
  for (const auto& d : raw) EXPECT_EQ(d.scale, 1.0);
}

TEST(StreamTiming, CameraOverrunIsAnError) {
  // An 8-cell-wide frame gives the MACBAR array 288 + 7 * 36 = 540 cycles
  // per cell row, but a cell row of pixels takes only 8 * 64 = 512. The ring
  // fills, back-pressure reaches the camera, and the camera cannot wait.
  EXPECT_DEATH(stream(64, 4096, {1.0}), "overrun");
}

TEST(StreamTiming, VcdTraceWritten) {
  sim::VcdWriter vcd;
  stream(128, 192, {1.0, 2.0}, 1, 18, &vcd);
  const std::string path = testing::TempDir() + "/pdet_pipeline.vcd";
  ASSERT_TRUE(vcd.write(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("nhog_occupancy"), std::string::npos);
}

// ------------------------------------------------------------- resources ---

TEST(Resources, DefaultConfigMatchesPaperTable2) {
  const ResourceModel model;  // paper's configuration
  const ResourceVector total = model.total();
  const ResourceVector paper = ResourceModel::paper_table2();
  EXPECT_NEAR(total.lut, paper.lut, 0.5);
  EXPECT_NEAR(total.ff, paper.ff, 0.5);
  EXPECT_NEAR(total.lutram, paper.lutram, 0.5);
  EXPECT_NEAR(total.bram, paper.bram, 0.25);
  EXPECT_NEAR(total.dsp, paper.dsp, 0.25);
  EXPECT_NEAR(total.bufg, paper.bufg, 0.25);
}

TEST(Resources, FitsZc7020) {
  const ResourceModel model;
  EXPECT_TRUE(model.fits());
}

TEST(Resources, UtilizationPercentagesSane) {
  const ResourceModel model;
  const ResourceVector u = model.utilization();
  // Paper reports ~49% LUT on the ZC7020.
  EXPECT_NEAR(u.lut, 49.0, 1.5);
  EXPECT_GT(u.ff, 30.0);
  EXPECT_LT(u.ff, 45.0);
  EXPECT_LT(u.bram, 100.0);
}

TEST(Resources, ExtraScaleCostsOneClassifier) {
  AcceleratorResourceConfig base_config;
  AcceleratorResourceConfig three_scale = base_config;
  three_scale.num_scales = 3;
  const ResourceVector base = ResourceModel(base_config).total();
  const ResourceVector more = ResourceModel(three_scale).total();
  // One more classifier (7200 LUT) + scaler (1400) + scaled memory (500).
  EXPECT_NEAR(more.lut - base.lut, 7200 + 1400 + 500, 1.0);
  EXPECT_NEAR(more.dsp - base.dsp, 8, 0.01);
  EXPECT_GT(more.bram, base.bram);
}

TEST(Resources, ThreeScalesStillFitButFourDoNot) {
  // Section 5: "by employing a larger device with more resources, the design
  // could be easily extended to cover several scales" — on the ZC7020 itself
  // the BRAM budget bounds the scale count.
  AcceleratorResourceConfig config;
  config.num_scales = 3;
  EXPECT_TRUE(ResourceModel(config).fits());
  config.num_scales = 5;
  EXPECT_FALSE(ResourceModel(config).fits());
}

TEST(Resources, NhogBramScalesWithRowsAndWidth) {
  AcceleratorResourceConfig deep;
  deep.nhogmem_rows = 135;  // the un-reduced buffer of [10]
  const double base_bram = ResourceModel().total().bram;
  const double deep_bram = ResourceModel(deep).total().bram;
  // 135/18 = 7.5x the NHOGMem row count: the full-frame buffer blows the
  // 140-BRAM budget, which is exactly why the paper shrank it to 18 rows.
  EXPECT_GT(deep_bram, base_bram * 2.5);
  EXPECT_FALSE(ResourceModel(deep).fits());
}

TEST(Resources, NarrowFrameUsesLessBram) {
  AcceleratorResourceConfig narrow;
  narrow.frame_width = 640;
  narrow.frame_height = 480;
  EXPECT_LT(ResourceModel(narrow).total().bram, ResourceModel().total().bram);
}

TEST(Resources, TableRenderContainsModulesAndPaperRow) {
  const ResourceModel model;
  const std::string table = model.to_table();
  EXPECT_NE(table.find("svm_classifier_s0"), std::string::npos);
  EXPECT_NE(table.find("nhog_mem"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("paper Table 2"), std::string::npos);
  EXPECT_NE(table.find("26051"), std::string::npos);
}

TEST(Resources, BreakdownSumsToTotal) {
  const ResourceModel model;
  ResourceVector sum;
  for (const auto& m : model.breakdown()) sum += m.cost;
  const ResourceVector total = model.total();
  EXPECT_DOUBLE_EQ(sum.lut, total.lut);
  EXPECT_DOUBLE_EQ(sum.bram, total.bram);
}

}  // namespace
}  // namespace pdet::hwsim
