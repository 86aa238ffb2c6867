#include "src/hog/block_grid.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.hpp"

namespace pdet::hog {

BlockGrid::BlockGrid(int blocks_x, int blocks_y, int feature_len,
                     DescriptorLayout layout)
    : blocks_x_(blocks_x),
      blocks_y_(blocks_y),
      feature_len_(feature_len),
      layout_(layout),
      data_(static_cast<std::size_t>(blocks_x) *
                static_cast<std::size_t>(blocks_y) *
                static_cast<std::size_t>(feature_len),
            0.0f) {
  PDET_REQUIRE(blocks_x >= 0 && blocks_y >= 0 && feature_len >= 1);
}

std::span<float> BlockGrid::block(int bx, int by) {
  PDET_ASSERT(bx >= 0 && bx < blocks_x_ && by >= 0 && by < blocks_y_);
  const std::size_t offset =
      (static_cast<std::size_t>(by) * static_cast<std::size_t>(blocks_x_) +
       static_cast<std::size_t>(bx)) *
      static_cast<std::size_t>(feature_len_);
  return std::span<float>(data_).subspan(offset,
                                         static_cast<std::size_t>(feature_len_));
}

std::span<const float> BlockGrid::block(int bx, int by) const {
  PDET_ASSERT(bx >= 0 && bx < blocks_x_ && by >= 0 && by < blocks_y_);
  const std::size_t offset =
      (static_cast<std::size_t>(by) * static_cast<std::size_t>(blocks_x_) +
       static_cast<std::size_t>(bx)) *
      static_cast<std::size_t>(feature_len_);
  return std::span<const float>(data_).subspan(
      offset, static_cast<std::size_t>(feature_len_));
}

void BlockGrid::reset(int blocks_x, int blocks_y, int feature_len,
                      DescriptorLayout layout) {
  PDET_REQUIRE(blocks_x >= 0 && blocks_y >= 0 && feature_len >= 1);
  blocks_x_ = blocks_x;
  blocks_y_ = blocks_y;
  feature_len_ = feature_len;
  layout_ = layout;
  data_.resize(static_cast<std::size_t>(blocks_x) *
               static_cast<std::size_t>(blocks_y) *
               static_cast<std::size_t>(feature_len));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

void normalize_block(std::span<float> v, const HogParams& params) {
  const float eps = params.normalize_epsilon;
  switch (params.norm) {
    case BlockNorm::kL2:
    case BlockNorm::kL2Hys: {
      float sq = 0.0f;
      for (const float x : v) sq += x * x;
      float inv = 1.0f / std::sqrt(sq + eps * eps);
      for (float& x : v) x *= inv;
      if (params.norm == BlockNorm::kL2Hys) {
        sq = 0.0f;
        for (float& x : v) {
          x = std::min(x, params.l2hys_clip);
          sq += x * x;
        }
        inv = 1.0f / std::sqrt(sq + eps * eps);
        for (float& x : v) x *= inv;
      }
      break;
    }
    case BlockNorm::kL1: {
      float s = 0.0f;
      for (const float x : v) s += std::fabs(x);
      const float inv = 1.0f / (s + eps);
      for (float& x : v) x *= inv;
      break;
    }
    case BlockNorm::kL1Sqrt: {
      float s = 0.0f;
      for (const float x : v) s += std::fabs(x);
      const float inv = 1.0f / (s + eps);
      for (float& x : v) x = std::sqrt(std::max(x * inv, 0.0f));
      break;
    }
  }
}

namespace {

/// Gather the 2x2 block with top-left cell (bx, by) into `out` (4 x bins).
void gather_block(const CellGrid& cells, int bx, int by, std::span<float> out) {
  const int bins = cells.bins();
  int k = 0;
  for (int dy = 0; dy < 2; ++dy) {
    for (int dx = 0; dx < 2; ++dx) {
      const auto h = cells.hist(bx + dx, by + dy);
      std::copy(h.begin(), h.end(), out.begin() + k);
      k += bins;
    }
  }
}

void normalize_dalal(const CellGrid& cells, const HogParams& params,
                     BlockGrid& out) {
  const int bx_count = cells.cells_x() - 1;
  const int by_count = cells.cells_y() - 1;
  out.reset(std::max(bx_count, 0), std::max(by_count, 0),
            params.block_feature_len(), DescriptorLayout::kDalalBlocks);
  for (int by = 0; by < by_count; ++by) {
    for (int bx = 0; bx < bx_count; ++bx) {
      auto blk = out.block(bx, by);
      gather_block(cells, bx, by, blk);
      normalize_block(blk, params);
    }
  }
}

void normalize_cell_groups(const CellGrid& cells, const HogParams& params,
                           std::vector<float>& ring, BlockGrid& out) {
  const int cx_count = cells.cells_x();
  const int cy_count = cells.cells_y();
  const int bins = cells.bins();
  out.reset(cx_count, cy_count, params.block_feature_len(),
            DescriptorLayout::kCellGroups);
  if (cx_count == 0 || cy_count == 0) return;

  // Every 2x2 block is gathered and normalized once, into a ring of two
  // block rows; each cell then copies its four groups out of the ring.
  // Border blocks are clamped to the nearest valid block so edge cells
  // still get 4 groups (the streaming hardware does the same by replicating
  // its line buffers). A grid one cell wide or tall has no 2x2 block: its
  // gather reads past the grid and CellGrid::hist rejects it.
  const int bx_last = std::max(cx_count - 2, 0);
  const int by_last = std::max(cy_count - 2, 0);
  const auto block_len = static_cast<std::size_t>(4 * bins);
  const auto row_len = static_cast<std::size_t>(bx_last + 1) * block_len;
  ring.resize(2 * row_len);
  auto ring_block = [&](int bx, int by) {
    return ring.data() + static_cast<std::size_t>(by % 2) * row_len +
           static_cast<std::size_t>(bx) * block_len;
  };
  auto normalize_block_row = [&](int by) {
    for (int bx = 0; bx <= bx_last; ++bx) {
      const std::span<float> blk(ring_block(bx, by), block_len);
      gather_block(cells, bx, by, blk);
      normalize_block(blk, params);
    }
  };

  normalize_block_row(0);
  for (int cy = 0; cy < cy_count; ++cy) {
    // Cell row cy reads block rows cy - 1 and cy (clamped); row cy - 1 is
    // already in the ring.
    if (cy >= 1 && cy <= by_last) normalize_block_row(cy);
    for (int cx = 0; cx < cx_count; ++cx) {
      float* feat = out.block(cx, cy).data();
      // Group order matches the paper / [10]: LU, RU, LB, RB — the cell's
      // role within the containing block, whose top-left cell is
      // (cx - role % 2, cy - role / 2) before clamping.
      for (int role = 0; role < 4; ++role) {
        const int bx = std::clamp(cx - role % 2, 0, bx_last);
        const int by = std::clamp(cy - role / 2, 0, by_last);
        // Position of the cell inside the (possibly clamped) block.
        const int dx = std::clamp(cx - bx, 0, 1);
        const int dy = std::clamp(cy - by, 0, 1);
        const float* src =
            ring_block(bx, by) + static_cast<std::size_t>((dy * 2 + dx) * bins);
        std::copy(src, src + bins, feat + role * bins);
      }
    }
  }
}

}  // namespace

BlockGrid normalize_cells(const CellGrid& cells, const HogParams& params) {
  BlockGrid out;
  std::vector<float> scratch;
  normalize_cells_into(cells, params, scratch, out);
  return out;
}

void normalize_cells_into(const CellGrid& cells, const HogParams& params,
                          std::vector<float>& block_scratch, BlockGrid& out) {
  PDET_TRACE_SCOPE("hog/block_norm");
  params.validate();
  PDET_REQUIRE(cells.bins() == params.bins);
  if (params.layout == DescriptorLayout::kDalalBlocks) {
    normalize_dalal(cells, params, out);
    return;
  }
  normalize_cell_groups(cells, params, block_scratch, out);
}

}  // namespace pdet::hog
