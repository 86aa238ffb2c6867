// Tests for the fixed-point datapath model (src/hwsim/fixed_pipeline) —
// verifies the hardware's arithmetic against the double-precision software
// chain it accelerates.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dataset/builder.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/hwsim/fixed_pipeline.hpp"
#include "src/imgproc/convert.hpp"
#include "src/svm/train_dcd.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace pdet::hwsim {
namespace {

hog::HogParams hw_params() {
  hog::HogParams p;  // defaults are the paper's hardware config
  return p;
}

imgproc::ImageU8 random_u8(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageU8 img(w, h);
  for (auto& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return img;
}

class IsqrtTest : public testing::TestWithParam<std::int64_t> {};

TEST_P(IsqrtTest, FloorOfExactRoot) {
  const std::int64_t v = GetParam();
  const std::int64_t r = isqrt64(v);
  EXPECT_LE(r * r, v);
  EXPECT_GT((r + 1) * (r + 1), v);
}

INSTANTIATE_TEST_SUITE_P(
    Values, IsqrtTest,
    testing::Values<std::int64_t>(0, 1, 2, 3, 4, 15, 16, 17, 99, 100, 101,
                                  65535, 65536, 1000000007LL,
                                  (std::int64_t{1} << 52) - 1,
                                  std::int64_t{1} << 52));

TEST(Isqrt, RandomizedProperty) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.next_u64() >> 12);
    const std::int64_t r = isqrt64(v);
    ASSERT_LE(r * r, v);
    ASSERT_GT((r + 1) * (r + 1), v);
  }
}

TEST(QuantizedModel, DecisionMatchesFloatModel) {
  util::Rng rng(5);
  svm::LinearModel m;
  m.weights.resize(4608);
  for (auto& w : m.weights) w = static_cast<float>(rng.normal(0.0, 0.02));
  m.bias = -0.13f;
  const FixedPointConfig config;
  const QuantizedModel q = QuantizedModel::quantize(m, config);

  // Features in the normalized domain [0, 1), quantized to Q14.
  std::vector<float> ff(4608);
  std::vector<std::int32_t> fi(4608);
  for (std::size_t i = 0; i < ff.size(); ++i) {
    const double v = rng.uniform(0.0, 0.9);
    fi[i] = static_cast<std::int32_t>(std::llround(v * 16384.0));
    ff[i] = static_cast<float>(fi[i]) / 16384.0f;
  }
  const double exact = m.decision(ff);
  const double fixed = q.decision(fi);
  // Weight quantization error: 4608 features * 0.5 LSB * |f| ~ small.
  EXPECT_NEAR(fixed, exact, 0.05);
}

TEST(QuantizedModel, BiasCarriedAtFullPrecision) {
  svm::LinearModel m;
  m.weights = {0.0f};
  m.bias = 0.625f;
  const QuantizedModel q = QuantizedModel::quantize(m, {});
  const std::vector<std::int32_t> zero{0};
  EXPECT_NEAR(q.decision(zero), 0.625, 1e-6);
}

TEST(FixedCells, MatchesFloatCellGridClosely) {
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);
  const imgproc::ImageU8 img = random_u8(64, 64, 7);

  const IntCellGrid fixed = pipe.compute_cells(img);
  const hog::CellGrid ref = hog::compute_cell_grid(imgproc::to_float(img), p);
  ASSERT_EQ(fixed.cells_x, ref.cells_x());
  ASSERT_EQ(fixed.cells_y, ref.cells_y());

  // Fixed path works on raw 0..255 with Q8 accumulators: scale factor
  // 255 * 256 relative to the float path on [0, 1].
  const double scale = 255.0 * 256.0;
  double err = 0.0;
  double mass = 0.0;
  for (int cy = 0; cy < ref.cells_y(); ++cy) {
    for (int cx = 0; cx < ref.cells_x(); ++cx) {
      const auto fh = fixed.hist(cx, cy);
      const auto rh = ref.hist(cx, cy);
      for (int b = 0; b < 9; ++b) {
        const double f = static_cast<double>(fh[static_cast<std::size_t>(b)]) / scale;
        const double r = rh[static_cast<std::size_t>(b)];
        err += std::fabs(f - r);
        mass += r;
      }
    }
  }
  EXPECT_LT(err / mass, 0.02) << "fixed-point histogram deviates > 2%";
}

TEST(FixedNormalize, FeaturesBoundedAndFinite) {
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);
  const IntCellGrid cells = pipe.compute_cells(random_u8(64, 128, 8));
  const IntBlockGrid blocks = pipe.normalize(cells);
  const std::int32_t one = 1 << 14;
  for (const auto v : blocks.data) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, one + (one >> 4));  // <= ~1 with quantization slack
  }
}

TEST(FixedNormalize, MatchesFloatBlockGrid) {
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);
  const imgproc::ImageU8 img = random_u8(64, 128, 9);

  const IntBlockGrid fixed = pipe.normalize(pipe.compute_cells(img));
  const hog::BlockGrid ref = hog::normalize_cells(
      hog::compute_cell_grid(imgproc::to_float(img), p), p);

  double err = 0.0;
  std::size_t n = 0;
  for (int cy = 0; cy < ref.blocks_y(); ++cy) {
    for (int cx = 0; cx < ref.blocks_x(); ++cx) {
      const auto ff = fixed.features(cx, cy);
      const auto rf = ref.block(cx, cy);
      for (int k = 0; k < 36; ++k) {
        err += std::fabs(static_cast<double>(ff[static_cast<std::size_t>(k)]) / 16384.0 -
                         rf[static_cast<std::size_t>(k)]);
        ++n;
      }
    }
  }
  EXPECT_LT(err / static_cast<double>(n), 0.01)
      << "mean absolute feature error above 0.01";
}

TEST(FixedDownscale, MatchesFloatFeatureScaling) {
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);
  const imgproc::ImageU8 img = random_u8(128, 256, 10);

  const IntCellGrid fixed_base = pipe.compute_cells(img);
  const IntCellGrid fixed_half = pipe.downscale_cells(fixed_base, 8, 16);

  const hog::CellGrid ref_base =
      hog::compute_cell_grid(imgproc::to_float(img), p);
  const hog::CellGrid ref_half =
      hog::scale_cell_grid(ref_base, 8, 16, hog::FeatureInterp::kBilinear);

  const double scale = 255.0 * 256.0;
  double err = 0.0;
  double mass = 0.0;
  for (int cy = 0; cy < 16; ++cy) {
    for (int cx = 0; cx < 8; ++cx) {
      const auto fh = fixed_half.hist(cx, cy);
      const auto rh = ref_half.hist(cx, cy);
      for (int b = 0; b < 9; ++b) {
        // The float path scales mass by the area ratio (4); the hardware
        // scaler skips that constant because normalization removes it.
        const double f = static_cast<double>(fh[static_cast<std::size_t>(b)]) / scale * 4.0;
        err += std::fabs(f - rh[static_cast<std::size_t>(b)]);
        mass += rh[static_cast<std::size_t>(b)];
      }
    }
  }
  EXPECT_LT(err / mass, 0.03);
}

TEST(FixedDownscale, IdentityDimsReturnsSameMass) {
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);
  const IntCellGrid base = pipe.compute_cells(random_u8(64, 64, 11));
  const IntCellGrid same = pipe.downscale_cells(base, base.cells_x, base.cells_y);
  for (std::size_t i = 0; i < base.data.size(); ++i) {
    EXPECT_EQ(same.data[i], base.data[i]);
  }
}

TEST(FixedEndToEnd, SignAgreementWithSoftwareChain) {
  // The decisive fidelity metric: the accelerator must classify (nearly)
  // identically to the software detector it implements.
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);

  const dataset::WindowSet train = dataset::make_window_set(21, 120, 240);
  const svm::Dataset data = dataset::to_svm_dataset(train, p);
  svm::DcdOptions opts;
  opts.C = 0.01;
  const svm::LinearModel model = svm::train_dcd(data, opts);
  const QuantizedModel qmodel = QuantizedModel::quantize(model, {});

  const dataset::WindowSet test = dataset::make_window_set(22, 40, 40);
  int agree = 0;
  double max_abs_diff = 0.0;
  for (const auto& w : test.windows) {
    const float sw_score =
        model.decision(hog::compute_window_descriptor(w, p));
    const imgproc::ImageU8 u8 = imgproc::to_u8(w);
    const IntBlockGrid blocks = pipe.normalize(pipe.compute_cells(u8));
    const double hw_score = pipe.classify_window(blocks, qmodel, 0, 0);
    if ((sw_score > 0) == (hw_score > 0)) ++agree;
    max_abs_diff = std::max(max_abs_diff,
                            std::fabs(hw_score - static_cast<double>(sw_score)));
  }
  EXPECT_GE(agree, 76) << "fixed-point accelerator disagrees with software "
                          "on more than 5% of windows";
  EXPECT_LT(max_abs_diff, 0.25);
}

TEST(FixedPipeline, RequiresCellGroupLayout) {
  hog::HogParams p = hw_params();
  p.layout = hog::DescriptorLayout::kDalalBlocks;
  EXPECT_DEATH(FixedHogPipeline pipe(p), "kCellGroups");
}

TEST(FixedPipeline, ExtractWindowSizeAndRange) {
  const hog::HogParams p = hw_params();
  const FixedHogPipeline pipe(p);
  const IntBlockGrid blocks = pipe.normalize(pipe.compute_cells(random_u8(128, 160, 12)));
  const auto desc = pipe.extract_window(blocks, 2, 1);
  EXPECT_EQ(desc.size(), 4608u);
}

template <typename T>
std::uint32_t crc_of(const std::vector<T>& values) {
  return util::crc32({reinterpret_cast<const std::uint8_t*>(values.data()),
                      values.size() * sizeof(T)});
}

// The oracle's bytes on three small frames, one per datapath configuration:
// CRC32s captured from the whole-frame oracle before its stage arithmetic
// was shared with the streamed circuit. They move only if the datapath's
// arithmetic is meant to change. Each frame has a flat band, so zero
// gradients and eps-dominated groups are covered too, and a size that is
// not a whole number of cells.
struct GoldenCase {
  const char* name;
  int width;
  int height;
  std::uint64_t seed;
  std::uint32_t cells;
  std::uint32_t down_2_0;
  std::uint32_t down_1_4;
  std::uint32_t blocks;
  std::uint32_t scores;
};

hog::HogParams golden_params(int index) {
  hog::HogParams p = hw_params();
  if (index == 1) p.spatial_interp = false;
  if (index == 2) {
    p.orientation_interp = false;
    p.norm = hog::BlockNorm::kL2;
  }
  return p;
}

TEST(FixedGolden, OracleBytesArePinned) {
  const GoldenCase cases[] = {
      {"default", 100, 165, 31,
       0x38319a09u, 0x87dc177cu, 0xaec3b086u, 0x5a031a74u, 0x78d977e5u},
      {"no spatial interp", 96, 139, 32,
       0xb06e1815u, 0xfcc84f62u, 0xec0e3a08u, 0xc248bca1u, 0xc6541561u},
      {"no orientation interp, L2", 77, 200, 33,
       0x7ecc1514u, 0x2cd756f1u, 0x3af22653u, 0xb3ef9b71u, 0x162cc107u},
  };
  for (int i = 0; i < 3; ++i) {
    const GoldenCase& c = cases[i];
    SCOPED_TRACE(c.name);
    const FixedHogPipeline pipe(golden_params(i));
    const hog::HogParams& p = pipe.params();
    imgproc::ImageU8 img = random_u8(c.width, c.height, c.seed);
    for (int y = c.height / 3; y < c.height / 2; ++y) {
      for (int x = 0; x < c.width; ++x) img.at(x, y) = 128;
    }
    const IntCellGrid cells = pipe.compute_cells(img);
    const auto down = [&](double ratio) {
      return pipe.downscale_cells(
          cells, static_cast<int>(std::lround(cells.cells_x / ratio)),
          static_cast<int>(std::lround(cells.cells_y / ratio)));
    };
    const IntBlockGrid blocks = pipe.normalize(cells);
    util::Rng rng(c.seed);
    svm::LinearModel model;
    model.weights.resize(static_cast<std::size_t>(p.descriptor_size()));
    for (auto& w : model.weights) w = static_cast<float>(rng.normal(0.0, 0.02));
    model.bias = -0.05f;
    const QuantizedModel qmodel = QuantizedModel::quantize(model, {});
    std::vector<double> scores;
    for (int cy = 0; cy + p.cells_per_window_y() <= blocks.cells_y; ++cy) {
      for (int cx = 0; cx + p.cells_per_window_x() <= blocks.cells_x; ++cx) {
        scores.push_back(pipe.classify_window(blocks, qmodel, cx, cy));
      }
    }
    ASSERT_FALSE(scores.empty());
    EXPECT_EQ(crc_of(cells.data), c.cells);
    EXPECT_EQ(crc_of(down(2.0).data), c.down_2_0);
    EXPECT_EQ(crc_of(down(1.4).data), c.down_1_4);
    EXPECT_EQ(crc_of(blocks.data), c.blocks);
    EXPECT_EQ(crc_of(scores), c.scores);
  }
}

}  // namespace
}  // namespace pdet::hwsim
