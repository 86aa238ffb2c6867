// Block normalization (paper Section 3.1, final stage of HOG extraction).
#pragma once

#include <span>
#include <vector>

#include "src/hog/cell_grid.hpp"

namespace pdet::hog {

/// Grid of normalized block features. Interpretation depends on layout:
///  - kDalalBlocks: element (bx, by) is the L*-normalized concatenation of
///    the 4 cell histograms of the 2x2 block with top-left cell (bx, by);
///    grid is (cells_x-1) x (cells_y-1).
///  - kCellGroups: element (cx, cy) is cell (cx, cy)'s histogram normalized
///    four times, once per containing block (as that block's LU, RU, LB, RB
///    member, in that order); grid is cells_x x cells_y. This is the layout
///    the paper's NHOGMem memory banks hold.
class BlockGrid {
 public:
  BlockGrid() = default;
  BlockGrid(int blocks_x, int blocks_y, int feature_len,
            DescriptorLayout layout);

  int blocks_x() const { return blocks_x_; }
  int blocks_y() const { return blocks_y_; }
  int feature_len() const { return feature_len_; }
  DescriptorLayout layout() const { return layout_; }
  bool empty() const { return data_.empty(); }

  /// Bytes reserved by the feature buffer (workspace accounting).
  std::size_t capacity_bytes() const { return data_.capacity() * sizeof(float); }

  /// Re-shape in place, zeroed; storage is never released, so a warm grid
  /// re-shapes without allocating.
  void reset(int blocks_x, int blocks_y, int feature_len,
             DescriptorLayout layout);

  std::span<float> block(int bx, int by);
  std::span<const float> block(int bx, int by) const;

  std::span<const float> data() const { return data_; }

 private:
  int blocks_x_ = 0;
  int blocks_y_ = 0;
  int feature_len_ = 0;
  DescriptorLayout layout_ = DescriptorLayout::kCellGroups;
  std::vector<float> data_;
};

/// Normalize a single raw block vector in place per `params.norm`.
void normalize_block(std::span<float> v, const HogParams& params);

/// Normalize a full cell grid into a block grid per params.layout.
BlockGrid normalize_cells(const CellGrid& cells, const HogParams& params);

/// `normalize_cells` into a caller-owned grid. `block_scratch` holds the
/// raw blocks being normalized — for the cell-group layout a ring of two
/// block rows, so each block is normalized once however many cells share
/// it; with warm buffers the stage performs no allocation (the
/// DetectionEngine workspace path). A cell-group grid must be at least 2x2
/// cells (CellGrid::hist rejects the gather otherwise).
void normalize_cells_into(const CellGrid& cells, const HogParams& params,
                          std::vector<float>& block_scratch, BlockGrid& out);

}  // namespace pdet::hog
