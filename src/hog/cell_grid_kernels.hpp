// Per-ISA kernels of the streaming cell-histogram pass (util::simd seam).
//
// compute_cell_grid_into makes one pass over the frame. Each image row's
// gradients come from imgproc::GradientRows, and the row's votes go straight
// into column accumulators of the (at most two) cell rows it touches — bin b
// of pixel column x at acc[b * bin_stride + x], scaled by the row's vertical
// bilinear weight. Once a cell row has seen its last pixel row, `reduce`
// folds its columns into cell histograms with the horizontal bilinear
// weights. No full-frame plane is written.
//
// Every cell sums its votes in an order fixed relative to the cell (rows in
// y order per column, then columns in x order), and the bilinear weights
// are computed from a pixel's offset inside its cell, so a frame shifted by
// whole cells — a tile — gets bit-identical interior histograms.
#pragma once

#include <cstddef>

#include "src/hog/cell_grid.hpp"
#include "src/imgproc/gradient_rows.hpp"

namespace pdet::hog {

/// Where one pixel row's votes go.
struct VoteRow {
  int bins = 0;
  float inv_bin_width = 0.0f;  ///< bins / pi
  bool orientation_interp = true;
  std::size_t bin_stride = 0;  ///< floats between an accumulator's bins
  float* acc0 = nullptr;       ///< first cell row's accumulator (pixel 0, bin 0)
  float w0 = 0.0f;             ///< its vertical weight
  float* acc1 = nullptr;       ///< second cell row's; nullptr for one target
  float w1 = 0.0f;
};

/// One ISA's copy of the pass.
struct CellGridKernels {
  imgproc::GradientKernels gradient;
  /// Add n pixels' votes to the row's accumulators: magnitude-weighted and
  /// triangular in orientation across the two nearest bin centers, or into
  /// the one bin holding the orientation without orientation_interp.
  void (*vote)(const float* magnitude, const float* orientation, int n,
               const VoteRow& row);
  /// Fold a finished cell row's column sums into its cells_x * bins
  /// histograms: cell c sums column c * cell + r_lo + j weighted by wx[j],
  /// for j < r_n, in that order.
  void (*reduce)(const float* acc, std::size_t bin_stride, int bins,
                 int cells_x, int cell, const float* wx, int r_lo, int r_n,
                 float* hist);
};

/// The pass's copies; compute_cell_grid_into runs cell_grid_kernels().active().
const util::simd::Kernels<CellGridKernels>& cell_grid_kernels();

/// compute_cell_grid_into with one ISA's kernels.
void compute_cell_grid_into(const CellGridKernels& kernels,
                            const imgproc::ImageF& image,
                            const HogParams& params,
                            imgproc::GradientField& scratch, CellGrid& out);

}  // namespace pdet::hog
