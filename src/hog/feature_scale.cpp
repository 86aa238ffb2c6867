#include "src/hog/feature_scale.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.hpp"

namespace pdet::hog {
namespace {

float sample_bilinear(const CellGrid& src, float cx, float cy, int bin) {
  const int x0 = static_cast<int>(std::floor(cx));
  const int y0 = static_cast<int>(std::floor(cy));
  const float wx = cx - static_cast<float>(x0);
  const float wy = cy - static_cast<float>(y0);
  auto value = [&](int x, int y) -> float {
    x = std::clamp(x, 0, src.cells_x() - 1);
    y = std::clamp(y, 0, src.cells_y() - 1);
    return src.hist(x, y)[static_cast<std::size_t>(bin)];
  };
  return (1.0f - wy) * ((1.0f - wx) * value(x0, y0) + wx * value(x0 + 1, y0)) +
         wy * ((1.0f - wx) * value(x0, y0 + 1) + wx * value(x0 + 1, y0 + 1));
}

float sample_area(const CellGrid& src, double sx0, double sx1, double sy0,
                  double sy1, int bin) {
  double acc = 0.0;
  double area = 0.0;
  for (int y = static_cast<int>(std::floor(sy0));
       y < static_cast<int>(std::ceil(sy1)); ++y) {
    const double hy = std::min(sy1, static_cast<double>(y) + 1.0) -
                      std::max(sy0, static_cast<double>(y));
    if (hy <= 0) continue;
    const int yc = std::clamp(y, 0, src.cells_y() - 1);
    for (int x = static_cast<int>(std::floor(sx0));
         x < static_cast<int>(std::ceil(sx1)); ++x) {
      const double wx = std::min(sx1, static_cast<double>(x) + 1.0) -
                        std::max(sx0, static_cast<double>(x));
      if (wx <= 0) continue;
      const int xc = std::clamp(x, 0, src.cells_x() - 1);
      acc += wx * hy * src.hist(xc, yc)[static_cast<std::size_t>(bin)];
      area += wx * hy;
    }
  }
  return area > 0 ? static_cast<float>(acc / area) : 0.0f;
}

}  // namespace

CellGrid scale_cell_grid(const CellGrid& src, int out_cells_x, int out_cells_y,
                         FeatureInterp interp) {
  if (out_cells_x == src.cells_x() && out_cells_y == src.cells_y()) return src;
  CellGrid out;
  scale_cell_grid_into(src, out_cells_x, out_cells_y, interp, out);
  return out;
}

void scale_cell_grid_into(const CellGrid& src, int out_cells_x,
                          int out_cells_y, FeatureInterp interp,
                          CellGrid& out) {
  PDET_TRACE_SCOPE("hog/feature_scale");
  PDET_REQUIRE(!src.empty());
  PDET_REQUIRE(out_cells_x >= 1 && out_cells_y >= 1);
  PDET_REQUIRE(&out != &src);
  if (out_cells_x == src.cells_x() && out_cells_y == src.cells_y()) {
    out = src;
    return;
  }

  out.reset(out_cells_x, out_cells_y, src.bins());
  const double ix = static_cast<double>(src.cells_x()) / out_cells_x;
  const double iy = static_cast<double>(src.cells_y()) / out_cells_y;
  // A destination cell aggregates ~ix*iy source cells' gradient mass; keep
  // totals on the same footing as a genuinely coarser extraction by scaling
  // with the area ratio (exact for kArea, consistent for the others).
  const auto mass = static_cast<float>(ix * iy);

  for (int cy = 0; cy < out_cells_y; ++cy) {
    for (int cx = 0; cx < out_cells_x; ++cx) {
      auto dst = out.hist(cx, cy);
      for (int b = 0; b < src.bins(); ++b) {
        float v = 0.0f;
        switch (interp) {
          case FeatureInterp::kNearest: {
            const int sx = std::clamp(
                static_cast<int>(std::floor((cx + 0.5) * ix)), 0,
                src.cells_x() - 1);
            const int sy = std::clamp(
                static_cast<int>(std::floor((cy + 0.5) * iy)), 0,
                src.cells_y() - 1);
            v = src.hist(sx, sy)[static_cast<std::size_t>(b)];
            break;
          }
          case FeatureInterp::kBilinear: {
            const auto fx = static_cast<float>((cx + 0.5) * ix - 0.5);
            const auto fy = static_cast<float>((cy + 0.5) * iy - 0.5);
            v = sample_bilinear(src, fx, fy, b);
            break;
          }
          case FeatureInterp::kArea:
            v = sample_area(src, cx * ix, (cx + 1) * ix, cy * iy, (cy + 1) * iy,
                            b);
            break;
        }
        dst[static_cast<std::size_t>(b)] = v * mass;
      }
    }
  }
}

CellGrid downscale_cell_grid(const CellGrid& src, double factor,
                             FeatureInterp interp) {
  PDET_REQUIRE(factor >= 1.0);
  const int ox = std::max(
      1, static_cast<int>(std::lround(src.cells_x() / factor)));
  const int oy = std::max(
      1, static_cast<int>(std::lround(src.cells_y() / factor)));
  return scale_cell_grid(src, ox, oy, interp);
}

void downscale_cell_grid_into(const CellGrid& src, double factor,
                              FeatureInterp interp, CellGrid& out) {
  PDET_REQUIRE(factor >= 1.0);
  const int ox = std::max(
      1, static_cast<int>(std::lround(src.cells_x() / factor)));
  const int oy = std::max(
      1, static_cast<int>(std::lround(src.cells_y() / factor)));
  scale_cell_grid_into(src, ox, oy, interp, out);
}

}  // namespace pdet::hog
