#include "src/tile/plan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/hog/cell_grid.hpp"
#include "src/util/assert.hpp"

namespace pdet::tile {
namespace {

// Halo guard in cells beyond the window span (see plan.hpp's file comment):
// 2 covers every border effect in the chain; more would only cost overlap.
constexpr int kGuardCells = 2;

bool is_integral(double s) { return std::abs(s - std::round(s)) < 1e-9; }

int round_up(int value, int unit) {
  return ((value + unit - 1) / unit) * unit;
}

}  // namespace

void TilePlan::build(int frame_w, int frame_h, const hog::HogParams& params,
                     const detect::MultiscaleOptions& multiscale,
                     const TilePlanOptions& options) {
  params.validate();
  hog::require_frame_alignment(frame_w, frame_h, params);
  PDET_REQUIRE(frame_w >= params.window_width &&
               frame_h >= params.window_height);
  PDET_REQUIRE(!multiscale.scales.empty());
  PDET_REQUIRE(options.tiles_x >= 0 && options.tiles_y >= 0);

  const int cell = params.cell_size;
  double s_max = 1.0;
  bool all_integral = true;
  long long lcm = 1;
  for (const double s : multiscale.scales) {
    PDET_REQUIRE(s >= 1.0);
    s_max = std::max(s_max, s);
    if (is_integral(s)) {
      lcm = std::lcm(lcm, static_cast<long long>(std::llround(s)));
    } else {
      all_integral = false;
    }
  }
  const int s_max_i = static_cast<int>(std::llround(std::ceil(s_max - 1e-9)));
  const int align_scale =
      all_integral ? static_cast<int>(lcm) : std::max(s_max_i, 1);
  alignment_px_ = cell * align_scale;

  // Halos in frame pixels, rounded up to the alignment unit so expanded tile
  // origins stay on the aligned lattice (the leading halo shifts the origin;
  // a misaligned origin would break the translation argument).
  const int guard_px = kGuardCells * cell;
  halo_lead_px_ = round_up(guard_px * s_max_i, alignment_px_);
  halo_trail_x_px_ =
      round_up((params.window_width + guard_px) * s_max_i, alignment_px_);
  halo_trail_y_px_ =
      round_up((params.window_height + guard_px) * s_max_i, alignment_px_);

  exact_ = all_integral && (frame_w / cell) % align_scale == 0 &&
           (frame_h / cell) % align_scale == 0;

  // Core sizes: from the requested grid when given, else from the target
  // tile size; always rounded up to the alignment unit and clamped so at
  // least one core fits.
  const auto core_size = [&](int frame, int tiles, int target) {
    int size = tiles > 0 ? (frame + tiles - 1) / tiles : target;
    size = round_up(std::max(size, 1), alignment_px_);
    return std::min(size, round_up(frame, alignment_px_));
  };
  const int core_w = core_size(frame_w, options.tiles_x, options.tile_width);
  const int core_h = core_size(frame_h, options.tiles_y, options.tile_height);

  frame_w_ = frame_w;
  frame_h_ = frame_h;
  core_x_.clear();
  core_y_.clear();
  for (int x = 0; x < frame_w; x += core_w) core_x_.push_back(x);
  for (int y = 0; y < frame_h; y += core_h) core_y_.push_back(y);
  tiles_x_ = static_cast<int>(core_x_.size());
  tiles_y_ = static_cast<int>(core_y_.size());

  tiles_.clear();
  for (int ty = 0; ty < tiles_y_; ++ty) {
    for (int tx = 0; tx < tiles_x_; ++tx) {
      TileGeometry t;
      t.index = ty * tiles_x_ + tx;
      t.tx = tx;
      t.ty = ty;
      t.core_x = core_x_[static_cast<std::size_t>(tx)];
      t.core_y = core_y_[static_cast<std::size_t>(ty)];
      t.core_w = std::min(core_w, frame_w - t.core_x);
      t.core_h = std::min(core_h, frame_h - t.core_y);
      t.x = std::max(0, t.core_x - halo_lead_px_);
      t.y = std::max(0, t.core_y - halo_lead_px_);
      t.w = std::min(frame_w, t.core_x + t.core_w + halo_trail_x_px_) - t.x;
      t.h = std::min(frame_h, t.core_y + t.core_h + halo_trail_y_px_) - t.y;
      // Alignment invariants: origins on the lattice, sizes cell-aligned
      // (interior edges are aligned; frame edges are cell-aligned by the
      // entry check).
      PDET_ASSERT(t.x % alignment_px_ == 0 && t.y % alignment_px_ == 0);
      PDET_ASSERT(t.w % params.cell_size == 0 && t.h % params.cell_size == 0);
      tiles_.push_back(t);
    }
  }
}

int TilePlan::owner_of(int px, int py) const {
  PDET_REQUIRE(built());
  PDET_REQUIRE(px >= 0 && px < frame_w_ && py >= 0 && py < frame_h_);
  const auto column = [](const std::vector<int>& origins, int v) {
    // origins is ascending and starts at 0: the owner is the last origin <= v.
    int lo = 0;
    for (std::size_t i = 1; i < origins.size(); ++i) {
      if (origins[i] <= v) lo = static_cast<int>(i);
    }
    return lo;
  };
  return column(core_y_, py) * tiles_x_ + column(core_x_, px);
}

}  // namespace pdet::tile
