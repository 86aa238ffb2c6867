// HOG feature scaling — the paper's core contribution (Section 4).
//
// Conventional multi-scale detection re-extracts HOG from a down-sampled
// *image* at every pyramid level. The paper instead extracts cell
// histograms once, at native resolution, and down-samples the *feature
// grid*: a pedestrian that spans 2x the detection window in the image spans
// 2x the window's 8x16 cells in the cell grid, so shrinking the cell grid by
// 2 brings it back into the fixed-size window / SVM model. Histogram
// down-sampling commutes approximately with gradient extraction for modest
// factors (the paper validates s <= 1.5 on INRIA), and block normalization
// is reapplied after scaling, so local contrast handling is preserved.
//
// This file holds the resampling stage only. The pyramids built from it
// (feature, image and Dollar's hybrid) live in one place,
// detect::DetectionEngine (see detect/multiscale.hpp's PyramidStrategy).
#pragma once

#include "src/hog/cell_grid.hpp"

namespace pdet::hog {

/// Interpolation used when resampling the cell-histogram grid.
enum class FeatureInterp {
  kNearest,
  kBilinear,  ///< what the shift-and-add hardware scalers implement
  kArea,      ///< box average over source cells
};

/// Resample `src` to out_cells_x x out_cells_y cells. Each orientation bin
/// channel is resampled independently; histogram mass is rescaled by the
/// area ratio so cell totals remain comparable across levels (block
/// normalization later removes any residual global factor).
CellGrid scale_cell_grid(const CellGrid& src, int out_cells_x, int out_cells_y,
                         FeatureInterp interp);

/// Down-scale by `factor` (>= 1; factor 1.3 shrinks the grid by 1/1.3).
CellGrid downscale_cell_grid(const CellGrid& src, double factor,
                             FeatureInterp interp);

/// `scale_cell_grid` / `downscale_cell_grid` into a caller-owned grid. `out`
/// is re-shaped in place and never releases storage, so a warm grid incurs
/// no allocation (the DetectionEngine workspace path). `out` must not alias
/// `src`; identity sizes degenerate to a copy.
void scale_cell_grid_into(const CellGrid& src, int out_cells_x,
                          int out_cells_y, FeatureInterp interp, CellGrid& out);
void downscale_cell_grid_into(const CellGrid& src, double factor,
                              FeatureInterp interp, CellGrid& out);

}  // namespace pdet::hog
