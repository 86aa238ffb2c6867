#include "src/hog/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/hog/cell_grid_kernels.hpp"
#include "src/imgproc/convolve.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/strings.hpp"

namespace pdet::hog {
namespace {

using imgproc::kRowSpan;
using util::simd::padded_floats;

#define PDET_SIMD_KERNEL_FILE "src/hog/cell_grid_kernels.inc"
#include "src/util/simd_clone.inc"

/// Bilinear split of a pixel at offset `r` inside its cell between the
/// cell centers bracketing it: (1 - w1) to cell `first` (-1 = the previous
/// cell, 0 = its own) and w1 to `first + 1`. Computed from the offset alone,
/// so the pattern repeats exactly every cell.
struct Split {
  int first;
  float w1;
};

Split split(int r, float inv_cell) {
  const float f = (static_cast<float>(r) + 0.5f) * inv_cell - 0.5f;
  return f < 0.0f ? Split{-1, f + 1.0f} : Split{0, f};
}

}  // namespace

void require_frame_alignment(int width, int height, const HogParams& params) {
  if (width % params.cell_size != 0 || height % params.cell_size != 0) {
    throw std::invalid_argument(util::format(
        "frame %dx%d is not a multiple of the HOG cell size %d "
        "(trailing partial cells would be silently dropped); pad or crop "
        "the frame to %dx%d",
        width, height, params.cell_size,
        width - width % params.cell_size,
        height - height % params.cell_size));
  }
}

CellGrid::CellGrid(int cells_x, int cells_y, int bins)
    : cells_x_(cells_x),
      cells_y_(cells_y),
      bins_(bins),
      data_(static_cast<std::size_t>(cells_x) * static_cast<std::size_t>(cells_y) *
                static_cast<std::size_t>(bins),
            0.0f) {
  PDET_REQUIRE(cells_x >= 0 && cells_y >= 0 && bins >= 1);
}

void CellGrid::reset(int cells_x, int cells_y, int bins) {
  PDET_REQUIRE(cells_x >= 0 && cells_y >= 0 && bins >= 1);
  cells_x_ = cells_x;
  cells_y_ = cells_y;
  bins_ = bins;
  data_.resize(static_cast<std::size_t>(cells_x) *
               static_cast<std::size_t>(cells_y) *
               static_cast<std::size_t>(bins));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

CellGrid compute_cell_grid(const imgproc::ImageF& image,
                           const HogParams& params) {
  CellGrid grid;
  imgproc::GradientField grad;
  compute_cell_grid_into(image, params, grad, grid);
  return grid;
}

const util::simd::Kernels<CellGridKernels>& cell_grid_kernels() {
  static const util::simd::Kernels<CellGridKernels> table = [] {
    const auto& gradient = imgproc::gradient_kernels();
    return util::simd::Kernels<CellGridKernels>{
        {gradient.baseline, vote_base, reduce_base},
#ifdef PDET_SIMD_AVX2_CLONE
        {gradient.avx2, vote_avx2, reduce_avx2},
#else
        {gradient.baseline, vote_base, reduce_base},
#endif
    };
  }();
  return table;
}

void compute_cell_grid_into(const imgproc::ImageF& image,
                            const HogParams& params,
                            imgproc::GradientField& scratch, CellGrid& grid) {
  compute_cell_grid_into(cell_grid_kernels().active(), image, params, scratch,
                         grid);
}

void compute_cell_grid_into(const CellGridKernels& kernels,
                            const imgproc::ImageF& image,
                            const HogParams& params,
                            imgproc::GradientField& scratch, CellGrid& grid) {
  PDET_TRACE_SCOPE("hog/cell_grid");
  params.validate();
  PDET_REQUIRE(!image.empty());
  obs::counter_add("hog.cell_grids");
  obs::counter_add("imgproc.gradient_pixels",
                   static_cast<long long>(image.width()) *
                       static_cast<long long>(image.height()));

  const int cell = params.cell_size;
  const int bins = params.bins;
  const int cells_x = image.width() / cell;
  const int cells_y = image.height() / cell;
  grid.reset(cells_x, cells_y, bins);
  if (cells_x == 0 || cells_y == 0) return;

  const imgproc::ImageF* src = &image;
  if (params.presmooth_sigma > 0.0f) {
    imgproc::gaussian_blur_into(image, params.presmooth_sigma, scratch.blur,
                                scratch.smoothed);
    src = &scratch.smoothed;
  }

  // Scratch layout, 64-byte aligned pieces: the gradient row stream, two
  // cell-row accumulator slots (cell row cy uses slot cy & 1: a pixel row
  // touches at most two adjacent cell rows), and the horizontal weights.
  // Accumulator columns run from -margin to span + margin; the margins stay
  // zero, so edge cells reduce over them without bounds checks.
  const int cols = cells_x * cell;  // trailing partial cells dropped
  const int rows = cells_y * cell;
  const auto span = static_cast<std::size_t>(imgproc::GradientRows::span_for(cols));
  const std::size_t margin = padded_floats(static_cast<std::size_t>(cell));
  const std::size_t bin_stride = padded_floats(margin + span + margin);
  const std::size_t slot_floats = bin_stride * static_cast<std::size_t>(bins);
  const std::size_t stream_floats = imgproc::GradientRows::scratch_floats(cols);
  float* base = util::simd::aligned_floats(
      scratch.rows, stream_floats + 2 * slot_floats +
                        padded_floats(3 * static_cast<std::size_t>(cell)));
  imgproc::GradientRows stream(*src, params.gradient_op, cols, kernels.gradient,
                               base);
  float* slots = base + stream_floats;
  float* wx = slots + 2 * slot_floats;
  std::fill(slots, slots + 2 * slot_floats, 0.0f);
  const auto slot = [&](int cy) {
    return slots + static_cast<std::size_t>(cy & 1) * slot_floats + margin;
  };

  // Horizontal weights of cell 0 over column offsets [r_lo, r_lo + r_n);
  // every cell uses the same table, shifted by whole cells.
  const float inv_cell = 1.0f / static_cast<float>(cell);
  int r_lo = 0;
  int r_n = cell;
  if (params.spatial_interp) {
    r_lo = -cell;
    r_n = 0;
    for (int r = -cell; r < 2 * cell; ++r) {
      const int q = (r + cell) / cell - 1;  // floor(r / cell)
      const Split s = split(r - q * cell, inv_cell);
      const int first = q + s.first;
      if (first != 0 && first != -1) {
        if (r_n == 0) r_lo = r + 1;
        continue;
      }
      wx[r_n++] = first == 0 ? 1.0f - s.w1 : s.w1;
    }
  } else {
    std::fill(wx, wx + cell, 1.0f);
  }

  VoteRow vote;
  vote.bins = bins;
  vote.inv_bin_width = static_cast<float>(bins) / std::numbers::pi_v<float>;
  vote.orientation_interp = params.orientation_interp;
  vote.bin_stride = bin_stride;
  float* hist = grid.data().data();
  const std::size_t hist_row = static_cast<std::size_t>(cells_x) *
                               static_cast<std::size_t>(bins);
  int flushed = 0;  // cell rows below this are reduced into the grid
  const auto flush_below = [&](int limit) {
    for (; flushed < limit; ++flushed) {
      float* acc = slot(flushed);
      kernels.reduce(acc, bin_stride, bins, cells_x, cell, wx, r_lo, r_n,
                     hist + static_cast<std::size_t>(flushed) * hist_row);
      std::fill(acc - margin, acc - margin + slot_floats, 0.0f);
    }
  };
  // First cell row pixel row y votes into (the second is that + 1).
  const auto first_row = [&](int y, float* w1) {
    const int q = y / cell;
    if (!params.spatial_interp) {
      *w1 = 0.0f;
      return q;
    }
    const Split s = split(y - q * cell, inv_cell);
    *w1 = s.w1;
    return q + s.first;
  };

  for (int y = 0; y < rows; ++y) {
    stream.compute(y);
    float w1 = 0.0f;
    const int cy0 = first_row(y, &w1);
    const bool has0 = cy0 >= 0;
    const bool has1 = params.spatial_interp && cy0 + 1 < cells_y;
    if (has0) {
      vote.acc0 = slot(cy0);
      vote.w0 = 1.0f - w1;
      vote.acc1 = has1 ? slot(cy0 + 1) : nullptr;
      vote.w1 = w1;
    } else {
      vote.acc0 = slot(cy0 + 1);
      vote.w0 = w1;
      vote.acc1 = nullptr;
    }
    kernels.vote(stream.magnitude(), stream.orientation(), stream.span(), vote);
    if (y + 1 < rows) {
      float unused = 0.0f;
      flush_below(std::max(first_row(y + 1, &unused), 0));
    }
  }
  flush_below(cells_y);
}

}  // namespace pdet::hog
