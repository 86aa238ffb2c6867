// Tile decomposition of large frames (pdet::tile).
//
// The paper's pipeline — and every layer grown on top of it — assumes a
// frame small enough for one FrameWorkspace pass. Wasala & Kryjak's UHD
// HOG+SVM stream (PAPERS.md) holds real time at 3840x2160 by cutting the
// frame into tiles and running the identical pipeline per tile. TilePlan is
// the geometry half of that idea: it partitions a frame into a grid of
// *core* rectangles (which tile owns which detection) and expands each core
// by a *halo* so a pedestrian straddling a seam is still fully inside at
// least one tile's expanded rect.
//
// Exactness. The plan is built so that, for integer scale ladders, running
// the full detection chain per expanded tile and keeping only detections
// whose anchor lies in the tile's core reproduces the untiled raw detection
// multiset bit for bit (post-NMS boxes then match byte for byte — NMS is a
// deterministic total order, see nms.hpp). Three properties make that hold:
//
//   1. Tile origins are aligned to cell_size * L pixels, where L is the lcm
//      of the (integer) scales: the feature downscaler samples with the
//      ratio src_cells / round(src_cells / s), which equals s exactly only
//      when the cell count divides evenly — alignment guarantees it per
//      tile, and guarantees the tile's cell lattice is a pure translation of
//      the frame's.
//   2. The trailing halo spans (window + guard) * s_max pixels and the
//      leading halo guard * s_max, guard being 2 cells: 1 cell for the
//      spatial-interpolation vote bleed (a pixel votes into cell centers up
//      to one cell away) + 1 for the block-normalization neighborhood, with
//      the 1-px gradient border clamp landing inside the edge cell. Every
//      cell a *kept* window's descriptor reads is therefore bit-identical to
//      the untiled pass; only discarded halo-anchored windows see edge
//      pollution.
//   3. Cores half-open partition the frame, so each window anchor has
//      exactly one owner — cross-tile duplicates are impossible by
//      construction, not by NMS luck.
//
// Non-integer ladders still tile correctly (the halo covers the window at
// every scale, so recall is preserved); they just lose the bit-exactness
// guarantee, which exact() reports.
#pragma once

#include <vector>

#include "src/detect/multiscale.hpp"
#include "src/hog/params.hpp"

namespace pdet::tile {

struct TilePlanOptions {
  /// Target core tile size in pixels; rounded up to the alignment unit.
  /// Ignored on an axis where tiles_x/tiles_y is set.
  int tile_width = 960;
  int tile_height = 544;
  /// Desired tile grid (0 = derive from tile_width/tile_height). The last
  /// row/column absorbs the remainder, so the actual grid never exceeds it.
  int tiles_x = 0;
  int tiles_y = 0;
};

/// One tile: `core` is the owned (half-open) partition rectangle, `rect` the
/// expanded region actually cropped and detected (core + halo, clamped to
/// the frame).
struct TileGeometry {
  int index = 0;  ///< row-major index in the tile grid
  int tx = 0;     ///< tile grid column
  int ty = 0;     ///< tile grid row
  int core_x = 0, core_y = 0, core_w = 0, core_h = 0;
  int x = 0, y = 0, w = 0, h = 0;  ///< expanded rect (crop region)
};

class TilePlan {
 public:
  TilePlan() = default;

  /// Build the plan for `frame_w` x `frame_h`. Throws std::invalid_argument
  /// when the frame is not cell-aligned (hog::require_frame_alignment — the
  /// same contract as the untiled engine). Idempotent: rebuilding with the
  /// same inputs reuses the tile vector's storage.
  void build(int frame_w, int frame_h, const hog::HogParams& params,
             const detect::MultiscaleOptions& multiscale,
             const TilePlanOptions& options);

  bool built() const { return !tiles_.empty(); }
  int frame_width() const { return frame_w_; }
  int frame_height() const { return frame_h_; }
  int tiles_x() const { return tiles_x_; }
  int tiles_y() const { return tiles_y_; }
  int tile_count() const { return static_cast<int>(tiles_.size()); }
  const std::vector<TileGeometry>& tiles() const { return tiles_; }
  const TileGeometry& tile(int index) const {
    return tiles_[static_cast<std::size_t>(index)];
  }

  /// Tile-origin alignment unit in pixels (cell_size * lcm of the integer
  /// scale ladder; cell_size * ceil(s_max) for non-integer ladders).
  int alignment_px() const { return alignment_px_; }
  int halo_lead_px() const { return halo_lead_px_; }
  int halo_trail_x_px() const { return halo_trail_x_px_; }
  int halo_trail_y_px() const { return halo_trail_y_px_; }

  /// True when the plan carries the bit-exactness guarantee: every scale is
  /// an integer and the frame's cell counts divide by their lcm on both
  /// axes (see file comment). kHybrid additionally needs a power-of-two
  /// ladder, which integer-lcm alignment already implies for {1,2,4,...}.
  bool exact() const { return exact_; }

  /// The tile owning frame position (px, py): the unique tile whose core
  /// contains the point. Arguments must lie inside the frame.
  int owner_of(int px, int py) const;

 private:
  int frame_w_ = 0;
  int frame_h_ = 0;
  int tiles_x_ = 0;
  int tiles_y_ = 0;
  int alignment_px_ = 0;
  int halo_lead_px_ = 0;
  int halo_trail_x_px_ = 0;
  int halo_trail_y_px_ = 0;
  bool exact_ = false;
  std::vector<int> core_x_;  ///< column core origins (tiles_x entries)
  std::vector<int> core_y_;  ///< row core origins (tiles_y entries)
  std::vector<TileGeometry> tiles_;
};

}  // namespace pdet::tile
