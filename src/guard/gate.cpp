#include "src/guard/gate.hpp"

#include <cmath>

#include "src/util/assert.hpp"

namespace pdet::guard {
namespace {

/// Blackout / saturation bounds on the global mean (luminance in [0,1]).
constexpr float kMinMean = 0.02f;
constexpr float kMaxMean = 0.98f;
/// Contrast floor: global standard deviation below this is a flat frame
/// (fog on the lens, severe gain compression). Rendered street scenes sit
/// around 0.1–0.2; the floor is an order of magnitude under that.
constexpr float kMinContrast = 0.005f;
/// A row/column is "dead" when its variance is under kDeadLineVariance AND
/// its mean is under kDeadMaxMean — a near-zero constant line. The mean
/// bound keeps a naturally flat bright sky row from counting.
constexpr float kDeadLineVariance = 1e-6f;
constexpr float kDeadMaxMean = 0.02f;
/// Dead-line verdict ladder: this many flags the reason (kDegraded) ...
constexpr int kDegradedDeadLines = 2;
/// ... and this many makes the frame kUnusable.
constexpr int kUnusableDeadLines = 6;
/// Tear detection: top-half sample rows all exactly equal to the previous
/// frame while at least this many bottom-half cells changed.
constexpr int kTearMinChanged = 8;

}  // namespace

const char* to_string(FrameQuality q) {
  switch (q) {
    case FrameQuality::kHealthy: return "healthy";
    case FrameQuality::kDegraded: return "degraded";
    case FrameQuality::kUnusable: return "unusable";
  }
  return "?";
}

std::string reasons_to_string(std::uint32_t reasons) {
  if (reasons == 0) return "none";
  static constexpr struct {
    std::uint32_t bit;
    const char* name;
  } kNames[] = {
      {kReasonFrozen, "frozen"},         {kReasonTear, "tear"},
      {kReasonBlackout, "blackout"},     {kReasonOverexposed, "overexposed"},
      {kReasonLowContrast, "low-contrast"},
      {kReasonDeadRows, "dead-rows"},    {kReasonDeadCols, "dead-cols"},
  };
  std::string out;
  for (const auto& n : kNames) {
    if ((reasons & n.bit) == 0) continue;
    if (!out.empty()) out.push_back('|');
    out += n.name;
  }
  return out.empty() ? "none" : out;
}

const GuardVerdict& FrameGuard::inspect(const imgproc::ImageF& frame) {
  const int w = frame.width();
  const int h = frame.height();
  PDET_REQUIRE(w > 0 && h > 0);

  verdict_ = GuardVerdict{};

  // --- one pass: row means/variances + column sums --------------------
  const auto uw = static_cast<std::size_t>(w);
  const auto uh = static_cast<std::size_t>(h);
  if (row_mean_.size() < uh) {
    row_mean_.resize(uh);
    row_var_.resize(uh);
  }
  if (col_sum_.size() < uw) {
    col_sum_.resize(uw);
    col_sum2_.resize(uw);
  }
  for (std::size_t x = 0; x < uw; ++x) {
    col_sum_[x] = 0.0;
    col_sum2_[x] = 0.0;
  }
  double total = 0.0;
  double total2 = 0.0;
  for (int y = 0; y < h; ++y) {
    const float* r = frame.row(y);
    double s = 0.0;
    double s2 = 0.0;
    for (int x = 0; x < w; ++x) {
      const double v = r[x];
      s += v;
      s2 += v * v;
      col_sum_[static_cast<std::size_t>(x)] += v;
      col_sum2_[static_cast<std::size_t>(x)] += v * v;
    }
    const double m = s / w;
    row_mean_[static_cast<std::size_t>(y)] = static_cast<float>(m);
    row_var_[static_cast<std::size_t>(y)] =
        static_cast<float>(std::max(0.0, s2 / w - m * m));
    total += s;
    total2 += s2;
  }
  const double n = static_cast<double>(uw) * static_cast<double>(uh);
  const double mean = total / n;
  const double var = std::max(0.0, total2 / n - mean * mean);
  verdict_.mean = static_cast<float>(mean);
  verdict_.contrast = static_cast<float>(std::sqrt(var));

  // --- dead rows / columns --------------------------------------------
  for (int y = 0; y < h; ++y) {
    const auto uy = static_cast<std::size_t>(y);
    if (row_var_[uy] < kDeadLineVariance && row_mean_[uy] < kDeadMaxMean) {
      ++verdict_.dead_rows;
    }
  }
  for (int x = 0; x < w; ++x) {
    const auto ux = static_cast<std::size_t>(x);
    const double cm = col_sum_[ux] / h;
    const double cv = std::max(0.0, col_sum2_[ux] / h - cm * cm);
    if (cv < kDeadLineVariance && cm < kDeadMaxMean) {
      ++verdict_.dead_cols;
    }
  }

  // --- sample grid vs previous frame (freeze / tear) ------------------
  // Fixed kGrid x kGrid probe positions, proportional across the frame.
  for (int gy = 0; gy < kGrid; ++gy) {
    const int y = (2 * gy + 1) * h / (2 * kGrid);
    const float* r = frame.row(y);
    for (int gx = 0; gx < kGrid; ++gx) {
      const int x = (2 * gx + 1) * w / (2 * kGrid);
      grid_[static_cast<std::size_t>(gy * kGrid + gx)] = r[x];
    }
  }
  bool frozen = false;
  bool tear = false;
  if (have_prev_ && prev_width_ == w && prev_height_ == h) {
    int changed_top = 0;
    int changed_bottom = 0;
    for (int gy = 0; gy < kGrid; ++gy) {
      for (int gx = 0; gx < kGrid; ++gx) {
        const auto i = static_cast<std::size_t>(gy * kGrid + gx);
        if (grid_[i] != prev_grid_[i]) {
          if (gy < kGrid / 2) {
            ++changed_top;
          } else {
            ++changed_bottom;
          }
        }
      }
    }
    frozen = changed_top == 0 && changed_bottom == 0;
    // Tear: the whole top half is a byte-exact replay of the previous frame
    // while the bottom half carries new content. Live frames have per-pixel
    // sensor noise, so an all-identical top half cannot occur naturally.
    tear = !frozen && changed_top == 0 && changed_bottom >= kTearMinChanged;
    verdict_.frame_changed = !frozen;
  }
  prev_grid_ = grid_;
  prev_width_ = w;
  prev_height_ = h;
  have_prev_ = true;

  // --- verdict ---------------------------------------------------------
  std::uint32_t reasons = 0;
  if (frozen) reasons |= kReasonFrozen;
  if (tear) reasons |= kReasonTear;
  if (verdict_.mean < kMinMean) reasons |= kReasonBlackout;
  if (verdict_.mean > kMaxMean) reasons |= kReasonOverexposed;
  if (verdict_.contrast < kMinContrast) reasons |= kReasonLowContrast;
  const int dead_lines = std::max(verdict_.dead_rows, verdict_.dead_cols);
  if (verdict_.dead_rows >= kDegradedDeadLines) reasons |= kReasonDeadRows;
  if (verdict_.dead_cols >= kDegradedDeadLines) reasons |= kReasonDeadCols;
  verdict_.reasons = reasons;

  constexpr std::uint32_t kUnusableMask =
      kReasonFrozen | kReasonTear | kReasonBlackout | kReasonOverexposed |
      kReasonLowContrast;
  if ((reasons & kUnusableMask) != 0 || dead_lines >= kUnusableDeadLines) {
    verdict_.quality = FrameQuality::kUnusable;
  } else if (reasons != 0) {
    verdict_.quality = FrameQuality::kDegraded;
  } else {
    verdict_.quality = FrameQuality::kHealthy;
  }
  return verdict_;
}

}  // namespace pdet::guard
