// The streaming HOG front end against its oracle: the plane-based two-pass
// extraction it replaced (full-frame std::atan2 + fmod gradient planes, then
// a per-pixel scatter vote), kept here verbatim as the reference. Every
// kernel copy this host can run is checked: the oracle bound across frame
// shapes, gradient operators, interpolation flags and bin counts; the
// orientation polynomial against std::atan2; bit-identity under whole-cell
// shifts; and identical post-NMS boxes through the detection chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "src/dataset/scene.hpp"
#include "src/detect/engine.hpp"
#include "src/detect/nms.hpp"
#include "src/detect/scanner.hpp"
#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid_kernels.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/imgproc/convolve.hpp"
#include "src/imgproc/gradient_rows.hpp"
#include "src/util/rng.hpp"
#include "src/util/simd.hpp"

namespace pdet::hog {
namespace {

using imgproc::GradientOp;
using util::simd::Isa;

constexpr float kPi = std::numbers::pi_v<float>;

std::vector<Isa> runnable_isas() {
  std::vector<Isa> isas{Isa::kBaseline};
  if (util::simd::supported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

imgproc::ImageF random_image(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(w, h);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

CellGrid run_pass(Isa isa, const imgproc::ImageF& image,
                  const HogParams& params) {
  imgproc::GradientField scratch;
  CellGrid grid;
  compute_cell_grid_into(cell_grid_kernels().at(isa), image, params, scratch,
                         grid);
  return grid;
}

// --- oracle: the plane-based extraction, verbatim ---------------------------

void oracle_gradients(const imgproc::ImageF& src, GradientOp op,
                      imgproc::GradientField& g) {
  const int w = src.width();
  const int h = src.height();
  g.fx.reset(w, h);
  g.fy.reset(w, h);
  g.magnitude.reset(w, h);
  g.angle.reset(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float dx = 0.0f;
      float dy = 0.0f;
      switch (op) {
        case GradientOp::kCentered:
          dx = src.at_clamped(x + 1, y) - src.at_clamped(x - 1, y);
          dy = src.at_clamped(x, y + 1) - src.at_clamped(x, y - 1);
          break;
        case GradientOp::kOneSided:
          dx = src.at_clamped(x + 1, y) - src.at_clamped(x, y);
          dy = src.at_clamped(x, y + 1) - src.at_clamped(x, y);
          break;
        case GradientOp::kSobel:
        case GradientOp::kPrewitt: {
          const float c = op == GradientOp::kSobel ? 2.0f : 1.0f;
          const float inv = 1.0f / (2.0f + c);
          dx = inv * ((src.at_clamped(x + 1, y - 1) - src.at_clamped(x - 1, y - 1)) +
                      c * (src.at_clamped(x + 1, y) - src.at_clamped(x - 1, y)) +
                      (src.at_clamped(x + 1, y + 1) - src.at_clamped(x - 1, y + 1)));
          dy = inv * ((src.at_clamped(x - 1, y + 1) - src.at_clamped(x - 1, y - 1)) +
                      c * (src.at_clamped(x, y + 1) - src.at_clamped(x, y - 1)) +
                      (src.at_clamped(x + 1, y + 1) - src.at_clamped(x + 1, y - 1)));
          break;
        }
      }
      g.fx.at(x, y) = dx;
      g.fy.at(x, y) = dy;
      g.magnitude.at(x, y) = std::sqrt(dx * dx + dy * dy);
      g.angle.at(x, y) = imgproc::fold_unsigned(std::atan2(dy, dx));
    }
  }
}

/// The scatter vote over oracle gradient planes.
void oracle_vote(const imgproc::GradientField& g, int image_width,
                 int image_height, const HogParams& params, CellGrid& grid) {
  const int cell = params.cell_size;
  const int cells_x = image_width / cell;
  const int cells_y = image_height / cell;
  grid.reset(cells_x, cells_y, params.bins);
  if (cells_x == 0 || cells_y == 0) return;
  const float bin_width = kPi / static_cast<float>(params.bins);
  const float inv_bin_width = 1.0f / bin_width;
  const float inv_cell = 1.0f / static_cast<float>(cell);
  const int width = cells_x * cell;
  const int height = cells_y * cell;

  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const float mag = g.magnitude.at(x, y);
      if (mag == 0.0f) continue;
      const float angle = g.angle.at(x, y);
      int bin0;
      int bin1;
      float w1;
      if (params.orientation_interp) {
        const float pos = angle * inv_bin_width - 0.5f;
        const float floor_pos = std::floor(pos);
        bin0 = static_cast<int>(floor_pos);
        w1 = pos - floor_pos;
        bin1 = bin0 + 1;
        if (bin0 < 0) bin0 += params.bins;
        if (bin1 >= params.bins) bin1 -= params.bins;
      } else {
        bin0 = std::min(static_cast<int>(angle * inv_bin_width), params.bins - 1);
        bin1 = bin0;
        w1 = 0.0f;
      }
      auto vote_cell = [&](int cx, int cy, float weight) {
        if (cx < 0 || cx >= cells_x || cy < 0 || cy >= cells_y) return;
        auto h = grid.hist(cx, cy);
        h[static_cast<std::size_t>(bin0)] += weight * mag * (1.0f - w1);
        if (w1 > 0.0f) h[static_cast<std::size_t>(bin1)] += weight * mag * w1;
      };
      if (params.spatial_interp) {
        const float fx = (static_cast<float>(x) + 0.5f) * inv_cell - 0.5f;
        const float fy = (static_cast<float>(y) + 0.5f) * inv_cell - 0.5f;
        const int cx0 = static_cast<int>(std::floor(fx));
        const int cy0 = static_cast<int>(std::floor(fy));
        const float wx1 = fx - static_cast<float>(cx0);
        const float wy1 = fy - static_cast<float>(cy0);
        vote_cell(cx0, cy0, (1.0f - wx1) * (1.0f - wy1));
        vote_cell(cx0 + 1, cy0, wx1 * (1.0f - wy1));
        vote_cell(cx0, cy0 + 1, (1.0f - wx1) * wy1);
        vote_cell(cx0 + 1, cy0 + 1, wx1 * wy1);
      } else {
        vote_cell(x / cell, y / cell, 1.0f);
      }
    }
  }
}

/// Oracle gradients of `image` as the pass sees it (presmoothed if asked).
imgproc::GradientField oracle_field(const imgproc::ImageF& image,
                                    const HogParams& params) {
  imgproc::GradientField g;
  if (params.presmooth_sigma > 0.0f) {
    oracle_gradients(imgproc::gaussian_blur(image, params.presmooth_sigma),
                     params.gradient_op, g);
  } else {
    oracle_gradients(image, params.gradient_op, g);
  }
  return g;
}

/// Without orientation interpolation a pixel whose exact orientation lies
/// within the polynomial's error of a bin edge may legitimately land in the
/// neighbouring bin. This votes those pixels' magnitudes with the oracle's
/// spatial weights: a flip can move at most that mass, counted twice in L1.
CellGrid edge_mass(const imgproc::GradientField& g, int width, int height,
                   const HogParams& params) {
  imgproc::GradientField edge = g;
  const float inv_bin_width = static_cast<float>(params.bins) / kPi;
  const float slack = 4.0f * imgproc::kOrientationMaxError * inv_bin_width;
  for (std::size_t i = 0; i < edge.magnitude.pixels().size(); ++i) {
    const float pos = g.angle.pixels()[i] * inv_bin_width;
    const bool near_edge = std::fabs(pos - std::round(pos)) <= slack;
    if (!near_edge) edge.magnitude.pixels()[i] = 0.0f;
    edge.angle.pixels()[i] = 0.0f;
  }
  HogParams hard = params;
  hard.orientation_interp = false;
  CellGrid out;
  oracle_vote(edge, width, height, hard, out);
  return out;
}

/// Per cell: L1 distance to the oracle <= 1e-4 of the cell's mass, plus
/// twice its bin-edge mass for hard orientation binning.
void expect_within_oracle(const CellGrid& got, const CellGrid& want,
                          const CellGrid* edges, const std::string& what) {
  ASSERT_EQ(got.cells_x(), want.cells_x()) << what;
  ASSERT_EQ(got.cells_y(), want.cells_y()) << what;
  ASSERT_EQ(got.bins(), want.bins()) << what;
  int bad = 0;
  for (int cy = 0; cy < want.cells_y(); ++cy) {
    for (int cx = 0; cx < want.cells_x(); ++cx) {
      const auto g = got.hist(cx, cy);
      const auto w = want.hist(cx, cy);
      double l1 = 0.0;
      double mass = 0.0;
      double edge = 0.0;
      for (std::size_t b = 0; b < w.size(); ++b) {
        l1 += std::fabs(static_cast<double>(g[b]) - static_cast<double>(w[b]));
        mass += w[b];
        if (edges != nullptr) edge += edges->hist(cx, cy)[b];
      }
      if (!(l1 <= 1e-4 * mass + 2.0 * edge)) {
        if (++bad <= 3) {
          ADD_FAILURE() << what << ": cell (" << cx << ", " << cy << ") L1 "
                        << l1 << " vs mass " << mass << " edge " << edge;
        }
      }
    }
  }
  EXPECT_EQ(bad, 0) << what;
}

const char* op_name(GradientOp op) {
  switch (op) {
    case GradientOp::kCentered: return "centered";
    case GradientOp::kSobel: return "sobel";
    case GradientOp::kPrewitt: return "prewitt";
    case GradientOp::kOneSided: return "onesided";
  }
  return "?";
}

// --- grid: every copy within the oracle bound ------------------------------

TEST(HogFrontOracle, EveryCopyWithinBoundAcrossShapesOperatorsAndBins) {
  struct Frame {
    int w;
    int h;
    std::uint64_t seed;
  };
  // 61x67 and 90x45 are pyramid-level shapes that are not cell-aligned.
  const std::vector<Frame> frames = {
      {61, 67, 1}, {61, 67, 2}, {90, 45, 3}, {64, 128, 4},
      {640, 480, 5}, {960, 536, 6}};
  for (const Frame& f : frames) {
    const imgproc::ImageF image = random_image(f.w, f.h, f.seed);
    for (const GradientOp op : {GradientOp::kCentered, GradientOp::kSobel,
                                GradientOp::kPrewitt, GradientOp::kOneSided}) {
      HogParams params;
      params.gradient_op = op;
      const imgproc::GradientField g = oracle_field(image, params);
      for (const int bins : {4, 9, 12}) {
        for (const bool orientation_interp : {true, false}) {
          for (const bool spatial_interp : {true, false}) {
            params.bins = bins;
            params.orientation_interp = orientation_interp;
            params.spatial_interp = spatial_interp;
            CellGrid want;
            oracle_vote(g, f.w, f.h, params, want);
            CellGrid edges;
            if (!orientation_interp) edges = edge_mass(g, f.w, f.h, params);
            for (const Isa isa : runnable_isas()) {
              const std::string what =
                  std::string(util::simd::to_string(isa)) + " " +
                  std::to_string(f.w) + "x" + std::to_string(f.h) + " " +
                  op_name(op) + " bins=" + std::to_string(bins) +
                  " orient=" + std::to_string(orientation_interp) +
                  " spatial=" + std::to_string(spatial_interp);
              expect_within_oracle(run_pass(isa, image, params), want,
                                   orientation_interp ? nullptr : &edges, what);
            }
          }
        }
      }
    }
  }
}

TEST(HogFrontOracle, PresmoothedPassWithinBound) {
  HogParams params;
  params.presmooth_sigma = 0.8f;
  for (const std::uint64_t seed : {7u, 8u}) {
    const imgproc::ImageF image = random_image(96, 72, seed);
    CellGrid want;
    oracle_vote(oracle_field(image, params), 96, 72, params, want);
    for (const Isa isa : runnable_isas()) {
      expect_within_oracle(run_pass(isa, image, params), want, nullptr,
                           std::string("presmooth ") + util::simd::to_string(isa));
    }
  }
}

// --- orientation polynomial against std::atan2 -----------------------------

TEST(HogFrontOrientation, PolynomialWithinBoundOfAtan2) {
  std::vector<float> dx;
  std::vector<float> dy;
  const auto add = [&](float x, float y) {
    dx.push_back(x);
    dy.push_back(y);
  };
  // Signed zeros and the axes.
  for (const float z : {0.0f, -0.0f}) {
    for (const float v : {0.0f, -0.0f, 1.0f, -1.0f, 3.5f, -3.5f, 1e-30f}) {
      add(z, v);
      add(v, z);
    }
  }
  // Octant diagonals and the range-reduction threshold tan(pi/8).
  for (const float sx : {1.0f, -1.0f}) {
    for (const float sy : {1.0f, -1.0f}) {
      add(sx, sy);
      add(sx * 0.41421356f, sy);
      add(sx, sy * 0.41421356f);
      add(sx * 0.41421359f, sy);
      add(sx, sy * 0.41421353f);
    }
  }
  // Every octant, densely, at several radii.
  constexpr int kSteps = 4096;
  for (int i = 0; i < kSteps; ++i) {
    const double theta = -std::numbers::pi + 2.0 * std::numbers::pi *
                                                  (i + 0.5) / kSteps;
    for (const double r : {1e-3, 1.0, 1e3}) {
      add(static_cast<float>(r * std::cos(theta)),
          static_cast<float>(r * std::sin(theta)));
    }
  }
  const std::size_t n = dx.size();
  const auto padded = static_cast<std::size_t>(
      imgproc::GradientRows::span_for(static_cast<int>(n)));
  dx.resize(padded, 0.0f);
  dy.resize(padded, 0.0f);
  for (const Isa isa : runnable_isas()) {
    std::vector<float> mag(padded);
    std::vector<float> angle(padded);
    imgproc::gradient_kernels().at(isa).polar(
        dx.data(), dy.data(), static_cast<int>(padded), mag.data(),
        angle.data());
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(std::string(util::simd::to_string(isa)) + " dx=" +
                   std::to_string(dx[i]) + " dy=" + std::to_string(dy[i]));
      ASSERT_GE(angle[i], 0.0f);
      ASSERT_LT(angle[i], kPi);
      const float norm = std::sqrt(dx[i] * dx[i] + dy[i] * dy[i]);
      if (isa == Isa::kBaseline) {
        EXPECT_EQ(mag[i], norm);
      } else {
        EXPECT_NEAR(mag[i], norm, 2e-7f * norm);  // may fuse multiply-adds
      }
      const float want = imgproc::fold_unsigned(std::atan2(dy[i], dx[i]));
      double err = std::fabs(static_cast<double>(angle[i]) - want);
      err = std::min(err, std::numbers::pi - err);  // circular: 0 == pi
      EXPECT_LE(err, imgproc::kOrientationMaxError);
      if (dx[i] == 0.0f && dy[i] == 0.0f) {
        EXPECT_EQ(mag[i], 0.0f);
        EXPECT_EQ(angle[i], 0.0f);
      }
    }
  }
}

TEST(HogFrontOrientation, ZeroGradientPixelsVoteNothing) {
  // Flat left half, noise on the right: every cell whose support (the cell
  // plus half a cell each side, plus the 1-px stencil) lies in the flat half
  // must stay exactly empty.
  imgproc::ImageF image = random_image(128, 64, 9);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) image.at(x, y) = 0.5f;
  }
  for (const Isa isa : runnable_isas()) {
    for (const bool orientation_interp : {true, false}) {
      HogParams params;
      params.orientation_interp = orientation_interp;
      const CellGrid grid = run_pass(isa, image, params);
      for (int cy = 0; cy < grid.cells_y(); ++cy) {
        for (int cx = 0; cx <= 6; ++cx) {
          for (const float v : grid.hist(cx, cy)) {
            EXPECT_EQ(v, 0.0f) << util::simd::to_string(isa) << " cell " << cx
                               << "," << cy;
          }
        }
      }
    }
  }
}

// --- each copy is bit-identical under whole-cell shifts ----------------------

TEST(HogFrontKernels, EachCopyBitIdenticalUnderWholeCellShifts) {
  std::vector<HogParams> variants(4);
  variants[1].bins = 12;
  variants[1].orientation_interp = false;
  variants[2].gradient_op = GradientOp::kSobel;
  variants[2].spatial_interp = false;
  variants[3].cell_size = 6;  // cell and vector lattices out of step
  variants[3].window_width = 48;
  variants[3].window_height = 96;
  const imgproc::ImageF big = random_image(232, 200, 10);
  for (const HogParams& params : variants) {
    const int cell = params.cell_size;
    const int sx = 3 * cell;
    const int sy = 2 * cell;
    const imgproc::ImageF a = big.crop(0, 0, 160, 128);
    const imgproc::ImageF b = big.crop(sx, sy, 160, 128);
    for (const Isa isa : runnable_isas()) {
      const CellGrid ga = run_pass(isa, a, params);
      const CellGrid gb = run_pass(isa, b, params);
      int compared = 0;
      // Interior cells of both frames: one cell clear of every border.
      for (int cy = 1; cy + 1 < gb.cells_y() && cy + 3 < ga.cells_y(); ++cy) {
        for (int cx = 1; cx + 1 < gb.cells_x() && cx + 4 < ga.cells_x(); ++cx) {
          const auto hb = gb.hist(cx, cy);
          const auto ha = ga.hist(cx + 3, cy + 2);
          for (std::size_t k = 0; k < hb.size(); ++k) {
            ASSERT_EQ(hb[k], ha[k])
                << util::simd::to_string(isa) << " cell " << cell << " at ("
                << cx << ", " << cy << ") bin " << k;
          }
          ++compared;
        }
      }
      EXPECT_GT(compared, 50);
    }
  }
}

// --- identical post-NMS boxes through the detection chain --------------------

svm::LinearModel random_model(const HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  model.bias = 0.0f;
  return model;
}

/// The engine's feature-pyramid chain, one public stage call at a time, on
/// oracle cells.
std::vector<detect::Detection> oracle_chain(
    const imgproc::ImageF& frame, const HogParams& params,
    const svm::LinearModel& model, const detect::MultiscaleOptions& ms,
    score::ScoringBackend& backend) {
  CellGrid base;
  oracle_vote(oracle_field(frame, params), frame.width(), frame.height(),
              params, base);
  std::vector<detect::Detection> raw;
  for (const double s : ms.scales) {
    CellGrid scaled;
    const CellGrid* cells = &base;
    if (s != 1.0) {
      downscale_cell_grid_into(base, s, ms.feature_interp, scaled);
      cells = &scaled;
    }
    if (cells->cells_x() < params.cells_per_window_x() ||
        cells->cells_y() < params.cells_per_window_y()) {
      continue;
    }
    BlockGrid blocks;
    std::vector<float> block_scratch;
    normalize_cells_into(*cells, params, block_scratch, blocks);
    score::ScoreBatch batch;
    batch.configure(static_cast<std::size_t>(params.descriptor_size()),
                    score::kDefaultBatchCapacity);
    std::vector<detect::Detection> hits;
    detect::scan_level_into(blocks, params, model, backend, ms.scan, batch,
                            hits);
    for (detect::Detection d : hits) {
      d.x = static_cast<int>(std::lround(d.x * s));
      d.y = static_cast<int>(std::lround(d.y * s));
      d.width = static_cast<int>(std::lround(d.width * s));
      d.height = static_cast<int>(std::lround(d.height * s));
      d.scale = s;
      raw.push_back(d);
    }
  }
  std::vector<detect::Detection> scratch;
  std::vector<detect::Detection> kept;
  detect::nms_into(raw, ms.nms_iou, scratch, kept);
  return kept;
}

TEST(HogFrontBoxes, EnginePostNmsBoxesEqualOracleChain) {
  HogParams params;
  detect::MultiscaleOptions ms;  // the paper's {1, 2} feature pyramid
  ms.scan.threshold = -0.5f;
  int boxes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    dataset::SceneOptions scene;
    scene.width = 512;
    scene.height = 384;
    scene.pedestrian_distances_m = {12.0, 20.0, 35.0};
    util::Rng rng(seed);
    const imgproc::ImageF frame = dataset::render_scene(rng, scene).image;
    const svm::LinearModel model = random_model(params, seed ^ 0xabcdef);
    for (const score::BackendKind kind :
         {score::BackendKind::kScalar, score::BackendKind::kBatch}) {
      const std::unique_ptr<score::ScoringBackend> backend =
          score::make_backend(kind);
      const std::vector<detect::Detection> want =
          oracle_chain(frame, params, model, ms, *backend);
      detect::DetectionEngine engine(detect::EngineOptions{.backend = kind});
      const std::vector<detect::Detection>& got =
          engine.process(frame, params, model, ms).detections;
      ASSERT_EQ(got.size(), want.size())
          << "seed " << seed << " " << score::to_string(kind);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].x, want[i].x) << "seed " << seed;
        EXPECT_EQ(got[i].y, want[i].y) << "seed " << seed;
        EXPECT_EQ(got[i].width, want[i].width) << "seed " << seed;
        EXPECT_EQ(got[i].height, want[i].height) << "seed " << seed;
      }
      boxes += static_cast<int>(want.size());
    }
  }
  EXPECT_GT(boxes, 0) << "degenerate: no boxes compared";
}

}  // namespace
}  // namespace pdet::hog
