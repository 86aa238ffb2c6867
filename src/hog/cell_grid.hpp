// Per-cell orientation histograms (the raw HOG stage, paper Section 3.1).
#pragma once

#include <span>
#include <vector>

#include "src/hog/params.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/imgproc/image.hpp"

namespace pdet::hog {

/// Dense grid of per-cell orientation histograms. The grid is the
/// scale-carrying object in pdet: image pyramids produce one CellGrid per
/// level by re-extraction, the paper's feature pyramid produces them by
/// down-sampling (see feature_scale.hpp).
class CellGrid {
 public:
  CellGrid() = default;
  CellGrid(int cells_x, int cells_y, int bins);

  int cells_x() const { return cells_x_; }
  int cells_y() const { return cells_y_; }
  int bins() const { return bins_; }
  bool empty() const { return data_.empty(); }

  /// Bytes reserved by the histogram buffer (workspace accounting).
  std::size_t capacity_bytes() const { return data_.capacity() * sizeof(float); }

  /// Re-shape in place to `cells_x` x `cells_y` x `bins`, zeroed. Storage is
  /// never released, so a warm grid re-shapes without allocating.
  void reset(int cells_x, int cells_y, int bins);

  /// Cell (cx, cy)'s histogram; an index outside the grid aborts in every
  /// build type. Inline, so callers that clamp their indices (the feature
  /// down-scaler reads one value per call) pay neither a call nor, mostly,
  /// the check.
  std::span<float> hist(int cx, int cy) {
    return {data_.data() + offset(cx, cy), static_cast<std::size_t>(bins_)};
  }
  std::span<const float> hist(int cx, int cy) const {
    return {data_.data() + offset(cx, cy), static_cast<std::size_t>(bins_)};
  }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

 private:
  std::size_t offset(int cx, int cy) const {
    PDET_REQUIRE(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
    return (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
            static_cast<std::size_t>(cx)) *
           static_cast<std::size_t>(bins_);
  }

  int cells_x_ = 0;
  int cells_y_ = 0;
  int bins_ = 0;
  std::vector<float> data_;
};

/// Throw std::invalid_argument unless both frame dimensions are exact
/// multiples of params.cell_size. Top-level detection entries
/// (DetectionEngine::process, detect_multiscale, tile::TilePlan) call this:
/// a misaligned frame would silently lose its trailing partial cells, which
/// tiling turns from a curiosity into a routine hazard. A throw (not a
/// PDET_REQUIRE abort) keeps bad frames containable — frames arrive off the
/// network, and the runtime's worker fault containment must be able to turn
/// one into a per-frame error instead of a process death.
void require_frame_alignment(int width, int height, const HogParams& params);

/// Extract cell histograms from a grayscale float image.
///
/// The image is processed in full; dimensions need not be cell-aligned (the
/// trailing partial cells are dropped, as the streaming hardware does).
/// Pyramid levels of arbitrary resized dimensions rely on this; full input
/// frames should be gated with require_frame_alignment first.
/// Voting follows params: magnitude-weighted, bilinear in orientation
/// between the two nearest bins, and (optionally) bilinear in space across
/// the four nearest cell centers.
///
/// One streaming pass over image rows computes gradients and votes them
/// straight into cell histograms (cell_grid_kernels.hpp); no full-frame
/// gradient plane is built.
CellGrid compute_cell_grid(const imgproc::ImageF& image,
                           const HogParams& params);

/// `compute_cell_grid` into a caller-owned grid. `grad_scratch` is the
/// pass's row scratch (padded input rows, one gradient row, two cell rows
/// of vote accumulators, and the presmoothed frame when
/// `params.presmooth_sigma > 0`); its gradient planes are left untouched.
/// With warm buffers the stage performs no allocation, presmoothing
/// included (the DetectionEngine workspace path).
void compute_cell_grid_into(const imgproc::ImageF& image,
                            const HogParams& params,
                            imgproc::GradientField& grad_scratch,
                            CellGrid& out);

}  // namespace pdet::hog
