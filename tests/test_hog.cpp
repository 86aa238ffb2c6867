// Unit tests for src/hog: cell histograms, block normalization, descriptors.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/visualize.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/util/rng.hpp"

namespace pdet::hog {
namespace {

constexpr float kPi = std::numbers::pi_v<float>;

HogParams default_params() {
  HogParams p;
  return p;
}

imgproc::ImageF random_image(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(w, h);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

/// Image whose gradient is everywhere along `angle` (a sinusoidal grating).
imgproc::ImageF grating(int w, int h, float angle, float period = 8.0f) {
  imgproc::ImageF img(w, h);
  const float kx = std::cos(angle) * 2.0f * kPi / period;
  const float ky = std::sin(angle) * 2.0f * kPi / period;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.at(x, y) =
          0.5f + 0.5f * std::sin(kx * static_cast<float>(x) + ky * static_cast<float>(y));
    }
  }
  return img;
}

TEST(HogParams, PaperDefaults) {
  const HogParams p = default_params();
  EXPECT_EQ(p.cell_size, 8);
  EXPECT_EQ(p.bins, 9);
  EXPECT_EQ(p.cells_per_window_x(), 8);
  EXPECT_EQ(p.cells_per_window_y(), 16);
  EXPECT_EQ(p.block_feature_len(), 36);
  // Paper Section 5: "Each detection window is consisted of 16x8 blocks and
  // each of the blocks has the feature vector of 36 elements."
  EXPECT_EQ(p.blocks_per_window_x(), 8);
  EXPECT_EQ(p.blocks_per_window_y(), 16);
  EXPECT_EQ(p.descriptor_size(), 8 * 16 * 36);
}

TEST(HogParams, DalalLayoutDescriptorSize) {
  HogParams p = default_params();
  p.layout = DescriptorLayout::kDalalBlocks;
  // Dalal & Triggs: 7x15 blocks x 36 = 3780.
  EXPECT_EQ(p.blocks_per_window_x(), 7);
  EXPECT_EQ(p.blocks_per_window_y(), 15);
  EXPECT_EQ(p.descriptor_size(), 3780);
}

TEST(CellGrid, DimensionsDropPartialCells) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(random_image(70, 130, 1), p);
  EXPECT_EQ(g.cells_x(), 8);   // 70/8
  EXPECT_EQ(g.cells_y(), 16);  // 130/8
  EXPECT_EQ(g.bins(), 9);
}

TEST(CellGrid, HistogramsNonNegative) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(random_image(64, 64, 2), p);
  for (const float v : g.data()) EXPECT_GE(v, 0.0f);
}

TEST(CellGrid, ConstantImageHasZeroHistograms) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(imgproc::ImageF(64, 64, 0.5f), p);
  for (const float v : g.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(CellGrid, MassEqualsGradientMagnitudeWithoutSpatialInterp) {
  HogParams p = default_params();
  p.spatial_interp = false;
  const imgproc::ImageF img = random_image(32, 32, 3);
  const CellGrid g = compute_cell_grid(img, p);
  double hist_mass = 0.0;
  for (const float v : g.data()) hist_mass += v;
  const auto grad = imgproc::compute_gradients(img);
  double mag_mass = 0.0;
  for (const float v : grad.magnitude.pixels()) mag_mass += v;
  EXPECT_NEAR(hist_mass, mag_mass, mag_mass * 1e-5);
}

TEST(CellGrid, SpatialInterpOnlyLosesBorderMass) {
  HogParams p = default_params();
  const imgproc::ImageF img = random_image(32, 32, 3);
  p.spatial_interp = true;
  const CellGrid g = compute_cell_grid(img, p);
  double hist_mass = 0.0;
  for (const float v : g.data()) hist_mass += v;
  const auto grad = imgproc::compute_gradients(img);
  double mag_mass = 0.0;
  for (const float v : grad.magnitude.pixels()) mag_mass += v;
  EXPECT_LE(hist_mass, mag_mass * (1.0 + 1e-5));
  EXPECT_GE(hist_mass, mag_mass * 0.5);  // only border votes fall outside
}

class GratingBinTest : public testing::TestWithParam<int> {};

TEST_P(GratingBinTest, EnergyConcentratesInCorrectBin) {
  // A grating with gradient direction at the center of bin k must put the
  // plurality of histogram mass into bin k.
  const int bin = GetParam();
  HogParams p = default_params();
  const float angle = (static_cast<float>(bin) + 0.5f) * kPi / 9.0f;
  const CellGrid g = compute_cell_grid(grating(64, 64, angle), p);
  std::vector<double> per_bin(9, 0.0);
  for (int cy = 1; cy < g.cells_y() - 1; ++cy) {
    for (int cx = 1; cx < g.cells_x() - 1; ++cx) {
      const auto h = g.hist(cx, cy);
      for (int b = 0; b < 9; ++b) per_bin[static_cast<std::size_t>(b)] += h[static_cast<std::size_t>(b)];
    }
  }
  int argmax = 0;
  for (int b = 1; b < 9; ++b) {
    if (per_bin[static_cast<std::size_t>(b)] > per_bin[static_cast<std::size_t>(argmax)]) argmax = b;
  }
  EXPECT_EQ(argmax, bin);
}

INSTANTIATE_TEST_SUITE_P(AllBins, GratingBinTest, testing::Range(0, 9));

TEST(CellGrid, OrientationInterpSplitsBetweenBins) {
  HogParams p = default_params();
  p.spatial_interp = false;
  // Gradient exactly on the boundary between bins 0 and 1 (angle = pi/9).
  const CellGrid g = compute_cell_grid(grating(64, 64, kPi / 9.0f), p);
  double b0 = 0;
  double b1 = 0;
  double rest = 0;
  for (int cy = 1; cy < g.cells_y() - 1; ++cy) {
    for (int cx = 1; cx < g.cells_x() - 1; ++cx) {
      const auto h = g.hist(cx, cy);
      b0 += h[0];
      b1 += h[1];
      for (int b = 2; b < 9; ++b) rest += h[static_cast<std::size_t>(b)];
    }
  }
  // Roughly equal split between the two bracketing bins; little elsewhere.
  EXPECT_NEAR(b0 / (b0 + b1), 0.5, 0.1);
  EXPECT_LT(rest, (b0 + b1) * 0.25);
}

TEST(NormalizeBlock, L2ProducesUnitNorm) {
  HogParams p = default_params();
  p.norm = BlockNorm::kL2;
  std::vector<float> v(36, 0.0f);
  v[0] = 3.0f;
  v[1] = 4.0f;
  normalize_block(v, p);
  double sq = 0.0;
  for (const float x : v) sq += static_cast<double>(x) * x;
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-3);
  EXPECT_NEAR(v[0], 0.6f, 1e-3f);
}

TEST(NormalizeBlock, L2HysClipsDominantComponents) {
  HogParams p = default_params();
  p.norm = BlockNorm::kL2Hys;
  std::vector<float> v(36, 0.01f);
  v[0] = 100.0f;  // would be ~1.0 after plain L2
  normalize_block(v, p);
  // After clipping at 0.2 and renormalizing, the dominant value sits near
  // the clip ceiling but cannot dwarf the rest as it would under plain L2.
  EXPECT_LE(v[0], 1.0f);
  EXPECT_GT(v[0], 0.2f);  // renormalization scales it back up a bit
  EXPECT_LT(v[0] / v[1], 100.0f / 0.01f);
}

TEST(NormalizeBlock, L1SumsToOne) {
  HogParams p = default_params();
  p.norm = BlockNorm::kL1;
  std::vector<float> v(36, 1.0f);
  normalize_block(v, p);
  double sum = 0.0;
  for (const float x : v) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-2);
}

TEST(NormalizeBlock, L1SqrtIsSqrtOfL1) {
  HogParams p = default_params();
  std::vector<float> a(36, 2.0f);
  std::vector<float> b(36, 2.0f);
  p.norm = BlockNorm::kL1;
  normalize_block(a, p);
  p.norm = BlockNorm::kL1Sqrt;
  normalize_block(b, p);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i], std::sqrt(a[i]), 1e-5f);
  }
}

TEST(NormalizeBlock, ZeroBlockStaysFinite) {
  HogParams p = default_params();
  std::vector<float> v(36, 0.0f);
  normalize_block(v, p);
  for (const float x : v) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(BlockGrid, DalalDimensions) {
  HogParams p = default_params();
  p.layout = DescriptorLayout::kDalalBlocks;
  const CellGrid cells = compute_cell_grid(random_image(80, 80, 5), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  EXPECT_EQ(blocks.blocks_x(), cells.cells_x() - 1);
  EXPECT_EQ(blocks.blocks_y(), cells.cells_y() - 1);
  EXPECT_EQ(blocks.feature_len(), 36);
}

TEST(BlockGrid, CellGroupsDimensions) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(80, 80, 5), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  EXPECT_EQ(blocks.blocks_x(), cells.cells_x());
  EXPECT_EQ(blocks.blocks_y(), cells.cells_y());
}

TEST(BlockGrid, CellGroupsMatchesDalalOnInteriorCells) {
  // Interior cell (cx, cy): its LU-group feature equals its 9-vector inside
  // Dalal block (cx, cy); its RB-group feature equals its 9-vector inside
  // Dalal block (cx-1, cy-1). Same normalization, different packaging.
  HogParams pg = default_params();
  HogParams pd = default_params();
  pd.layout = DescriptorLayout::kDalalBlocks;
  const imgproc::ImageF img = random_image(64, 64, 6);
  const CellGrid cells = compute_cell_grid(img, pg);
  const BlockGrid groups = normalize_cells(cells, pg);
  const BlockGrid dalal = normalize_cells(cells, pd);

  const int cx = 3;
  const int cy = 4;
  const auto feat = groups.block(cx, cy);
  // LU: cell is top-left of block (cx, cy) -> offset 0 in that block.
  const auto blk_lu = dalal.block(cx, cy);
  for (int b = 0; b < 9; ++b) {
    EXPECT_NEAR(feat[static_cast<std::size_t>(b)], blk_lu[static_cast<std::size_t>(b)], 1e-6f);
  }
  // RB: cell is bottom-right of block (cx-1, cy-1) -> offset 27.
  const auto blk_rb = dalal.block(cx - 1, cy - 1);
  for (int b = 0; b < 9; ++b) {
    EXPECT_NEAR(feat[static_cast<std::size_t>(27 + b)],
                blk_rb[static_cast<std::size_t>(27 + b)], 1e-6f);
  }
}

TEST(BlockGrid, FeaturesBoundedByL2HysCeiling) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(96, 96, 7), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  for (const float v : blocks.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

/// The four-fold cell-group normalization: every cell gathers and
/// normalizes each of its four containing blocks itself (border blocks
/// clamped to the nearest valid one). The oracle for normalize_cells_into,
/// which normalizes each block once.
BlockGrid four_fold_cell_groups(const CellGrid& cells, const HogParams& p) {
  const int cx_count = cells.cells_x();
  const int cy_count = cells.cells_y();
  const int bins = cells.bins();
  const auto nbins = static_cast<std::size_t>(bins);
  BlockGrid out(cx_count, cy_count, p.block_feature_len(),
                DescriptorLayout::kCellGroups);
  std::vector<float> block(4 * nbins);
  for (int cy = 0; cy < cy_count; ++cy) {
    for (int cx = 0; cx < cx_count; ++cx) {
      const auto feat = out.block(cx, cy);
      for (int role = 0; role < 4; ++role) {  // LU, RU, LB, RB
        const int bx = std::clamp(cx - role % 2, 0, std::max(cx_count - 2, 0));
        const int by = std::clamp(cy - role / 2, 0, std::max(cy_count - 2, 0));
        auto dst = block.begin();
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            const auto h = cells.hist(bx + dx, by + dy);
            dst = std::copy(h.begin(), h.end(), dst);
          }
        }
        normalize_block(block, p);
        const auto at = static_cast<std::size_t>(
            (std::clamp(cy - by, 0, 1) * 2 + std::clamp(cx - bx, 0, 1)) * bins);
        std::copy(block.begin() + static_cast<std::ptrdiff_t>(at),
                  block.begin() + static_cast<std::ptrdiff_t>(at + nbins),
                  feat.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(role) * nbins));
      }
    }
  }
  return out;
}

CellGrid random_cells(int cx, int cy, int bins, std::uint64_t seed) {
  util::Rng rng(seed);
  CellGrid cells(cx, cy, bins);
  for (float& v : cells.data()) {
    // Some empty bins, magnitudes spread over several binades.
    v = rng.chance(0.1) ? 0.0f
                        : static_cast<float>(std::ldexp(rng.uniform(),
                                                        rng.uniform_int(-4, 6)));
  }
  return cells;
}

TEST(BlockGrid, CellGroupsNormalizeOnceEqualsFourFoldOracle) {
  std::uint64_t seed = 40;
  int grids = 0;
  for (const int bins : {4, 9, 12}) {
    for (const BlockNorm norm : {BlockNorm::kL2Hys, BlockNorm::kL2,
                                 BlockNorm::kL1, BlockNorm::kL1Sqrt}) {
      HogParams p = default_params();
      p.bins = bins;
      p.norm = norm;
      for (const auto& [cx, cy] : {std::pair{2, 2}, std::pair{3, 5},
                                   std::pair{7, 4}, std::pair{11, 13},
                                   std::pair{17, 9}}) {
        const CellGrid cells = random_cells(cx, cy, bins, ++seed);
        std::vector<float> scratch;
        BlockGrid got;
        normalize_cells_into(cells, p, scratch, got);
        const BlockGrid want = four_fold_cell_groups(cells, p);
        ASSERT_EQ(got.blocks_x(), want.blocks_x());
        ASSERT_EQ(got.blocks_y(), want.blocks_y());
        const std::span<const float> a = got.data();
        const std::span<const float> b = want.data();
        ASSERT_EQ(a.size(), b.size());
        int differing = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (std::bit_cast<std::uint32_t>(a[i]) !=
              std::bit_cast<std::uint32_t>(b[i])) {
            ++differing;
          }
        }
        EXPECT_EQ(differing, 0) << "bins " << bins << " norm "
                                << static_cast<int>(norm) << " grid " << cx
                                << "x" << cy;
        ++grids;
      }
    }
  }
  EXPECT_EQ(grids, 60);
}

TEST(BlockGrid, CellGroupsRejectGridsWithoutABlock) {
  // One cell wide or tall: no 2x2 block exists, and the gather would read
  // past the grid. The bounds check holds in release builds too.
  const HogParams p = default_params();
  EXPECT_DEATH(normalize_cells(random_cells(1, 5, 9, 1), p), "precondition");
  EXPECT_DEATH(normalize_cells(random_cells(6, 1, 9, 2), p), "precondition");
}

TEST(Descriptor, WindowPositions) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(128, 160, 8), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  // 16 cells wide, 20 tall: positions = 16-8+1 = 9 by 20-16+1 = 5.
  EXPECT_EQ(window_positions_x(blocks, p), 9);
  EXPECT_EQ(window_positions_y(blocks, p), 5);
}

TEST(Descriptor, TooSmallGridHasNoPositions) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(56, 64, 8), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  EXPECT_EQ(window_positions_x(blocks, p), 0);
}

TEST(Descriptor, ExtractMatchesManualGather) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(128, 160, 9), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  const auto desc = extract_window(blocks, p, 2, 1);
  ASSERT_EQ(desc.size(), static_cast<std::size_t>(p.descriptor_size()));
  // Block (i=3, j=5) of the window lives at grid (5, 6), flat index
  // (j*8 + i)*36.
  const auto direct = blocks.block(5, 6);
  const std::size_t off = (5u * 8u + 3u) * 36u;
  for (int k = 0; k < 36; ++k) {
    EXPECT_FLOAT_EQ(desc[off + static_cast<std::size_t>(k)], direct[static_cast<std::size_t>(k)]);
  }
}

TEST(Descriptor, WindowSizedImageConvenience) {
  const HogParams p = default_params();
  const imgproc::ImageF img = random_image(64, 128, 10);
  const auto desc = compute_window_descriptor(img, p);
  EXPECT_EQ(desc.size(), static_cast<std::size_t>(p.descriptor_size()));
}

TEST(Descriptor, LargerImageCenterCropped) {
  const HogParams p = default_params();
  imgproc::ImageF big(80, 144, 0.5f);
  const imgproc::ImageF center = random_image(64, 128, 11);
  big.paste(center, 8, 8);
  const auto desc_big = compute_window_descriptor(big, p);
  const auto desc_center = compute_window_descriptor(center, p);
  // Only border cells see different context (gradient clamping); interior
  // features identical. Compare a mid-window block.
  const std::size_t off = (8u * 8u + 4u) * 36u;
  for (int k = 0; k < 36; ++k) {
    EXPECT_NEAR(desc_big[off + static_cast<std::size_t>(k)],
                desc_center[off + static_cast<std::size_t>(k)], 1e-4f);
  }
}

TEST(Descriptor, DeterministicAcrossCalls) {
  const HogParams p = default_params();
  const imgproc::ImageF img = random_image(64, 128, 12);
  EXPECT_EQ(compute_window_descriptor(img, p), compute_window_descriptor(img, p));
}

TEST(Glyphs, DimensionsAndRange) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(random_image(64, 128, 20), p);
  const imgproc::ImageF glyphs = render_hog_glyphs(g);
  EXPECT_EQ(glyphs.width(), g.cells_x() * 16);
  EXPECT_EQ(glyphs.height(), g.cells_y() * 16);
  for (const float v : glyphs.pixels()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Glyphs, VerticalEdgeDrawsVerticalStick) {
  // A vertical-edge grating (horizontal gradient, bin ~0) must render
  // sticks along the EDGE direction, i.e. vertical: energy on the cell's
  // vertical midline exceeds the horizontal midline.
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(grating(64, 64, 0.0f), p);
  GlyphOptions opts;
  opts.cell_pixels = 17;  // odd: exact midline
  const imgproc::ImageF glyphs = render_hog_glyphs(g, opts);
  double vertical = 0.0;
  double horizontal = 0.0;
  const int c = 3 * 17 + 8;  // center of cell (3, 3)
  for (int d = -6; d <= 6; ++d) {
    vertical += glyphs.at(c, c + d);
    horizontal += glyphs.at(c + d, c);
  }
  EXPECT_GT(vertical, horizontal * 1.5);
}

TEST(Glyphs, EmptyGridRendersBlack) {
  CellGrid g(4, 4, 9);
  const imgproc::ImageF glyphs = render_hog_glyphs(g);
  for (const float v : glyphs.pixels()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Presmooth, SigmaBlursAwayFineGradients) {
  HogParams sharp = default_params();
  HogParams smooth = default_params();
  smooth.presmooth_sigma = 2.0f;
  const imgproc::ImageF img = random_image(64, 64, 21);
  const CellGrid g_sharp = compute_cell_grid(img, sharp);
  const CellGrid g_smooth = compute_cell_grid(img, smooth);
  double mass_sharp = 0.0;
  double mass_smooth = 0.0;
  for (const float v : g_sharp.data()) mass_sharp += v;
  for (const float v : g_smooth.data()) mass_smooth += v;
  EXPECT_LT(mass_smooth, mass_sharp * 0.6);
}

}  // namespace
}  // namespace pdet::hog
