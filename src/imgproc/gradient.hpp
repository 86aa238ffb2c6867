// Image gradients for HOG (paper Eq. 1-2).
//
// Dalal & Triggs found the plain centered [-1 0 1] mask (no smoothing) to be
// the best-performing gradient operator for HOG; the paper's hardware uses
// the same. Orientation is *unsigned*: theta is folded into [0, pi).
#pragma once

#include <cstddef>
#include <vector>

#include "src/imgproc/convolve.hpp"
#include "src/imgproc/image.hpp"

namespace pdet::imgproc {

/// Derivative operator. Dalal & Triggs tested several and found the plain
/// centered difference best for HOG; the others are provided for the
/// ablation bench that reproduces that comparison.
enum class GradientOp {
  kCentered,  ///< [-1 0 1] (default, and what the paper's RTL computes)
  kSobel,     ///< 3x3 Sobel
  kPrewitt,   ///< 3x3 Prewitt
  kOneSided,  ///< forward difference [-1 1]
};

/// Full-frame gradient planes (compute_gradients_into) and the scratch of
/// the streaming cell-grid pass (hog::compute_cell_grid_into). That pass
/// never fills the planes: it carves its padded input rows, one gradient
/// row and its per-cell-row vote accumulators from `rows`, and presmooths
/// into `smoothed`. Storage is re-shaped in place and never released, so a
/// warm field incurs no allocation on either path.
struct GradientField {
  ImageF fx;         ///< horizontal gradient f_x(x, y)
  ImageF fy;         ///< vertical gradient f_y(x, y)
  ImageF magnitude;  ///< m(x, y) = sqrt(fx^2 + fy^2)      (paper Eq. 1)
  ImageF angle;      ///< theta(x, y) folded to [0, pi)     (paper Eq. 2)

  std::vector<float> rows;  ///< row scratch of the streaming pass
  ImageF smoothed;          ///< presmoothed frame (presmooth_sigma > 0)
  BlurScratch blur;         ///< the Gaussian pass behind `smoothed`

  /// Bytes reserved by every buffer above (workspace accounting).
  std::size_t capacity_bytes() const;
};

/// Gradients with border replication using the selected operator. The
/// angle plane comes from the row pass's orientation polynomial, within
/// 1e-6 rad of atan2 (kOrientationMaxError in gradient_rows.hpp).
GradientField compute_gradients(const ImageF& src,
                                GradientOp op = GradientOp::kCentered);

/// `compute_gradients` into a caller-owned field: every plane is re-shaped
/// in place and storage is never released, so a warm GradientField incurs no
/// allocation. Runs the same row kernels as the cell-grid pass.
void compute_gradients_into(const ImageF& src, GradientOp op,
                            GradientField& out);

/// Fold an arbitrary angle (radians) into the unsigned-orientation interval
/// [0, pi).
float fold_unsigned(float angle_radians);

}  // namespace pdet::imgproc
