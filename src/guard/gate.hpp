// Frame integrity gate (pdet::guard).
//
// In a driver-assistance deployment the dominant sensor failure is not a
// crashed process but a silently degraded camera: a frozen capture pipeline
// repeating its last frame, dead readout rows, a torn transfer mixing two
// exposures, gain drift saturating the image. A detector fed such frames
// fails *confidently* — it reports "no pedestrian" on pixels that carry no
// information. FrameGuard is the cheap per-stream gate that validates the
// pixels before the engine sees them: one pass over the frame computing
// row/column intensity profiles (dead-line detection), global mean and
// contrast (blackout / saturation), and a sparse sample grid compared
// against the previous frame (freeze / tear detection), emitting a
// FrameQuality verdict with reason flags.
//
// Design constraints, mirroring detect::FrameWorkspace:
//   - zero steady-state allocations: the profile vectors and sample grids
//     are sized on first inspect() and only regrow past the high-water mark;
//   - one gate per stream, called from one thread (the runtime calls it on
//     the submit path, which is single-producer per stream by contract);
//   - deterministic: the verdict is a pure function of (this frame, the
//     previous frame) — no wall clock, no randomness.
//
// Freeze and tear are detected by *exact* sample equality with the previous
// frame. This is deliberate: rendered (and real) frames carry per-pixel
// sensor noise, so two live frames are never bitwise equal — only a capture
// pipeline replaying a buffer produces exact repeats. Threshold-based diffs
// would have to trade false freezes on static scenes against missed slow
// drifts; exact equality sidesteps the trade.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/imgproc/image.hpp"

namespace pdet::guard {

/// Per-frame verdict, ordered by severity (the camera-health machine relies
/// on the ordering; the wire decoder rejects values above kUnusable).
enum class FrameQuality : std::uint8_t {
  kHealthy = 0,   ///< pixels look live; schedule normally
  kDegraded = 1,  ///< suspicious but usable; schedule, count, watch
  kUnusable = 2,  ///< carries no detection information; do not schedule
};

const char* to_string(FrameQuality q);

// Reason flags (bitmask — one frame can trip several).
inline constexpr std::uint32_t kReasonFrozen = 1u << 0;       ///< exact repeat
inline constexpr std::uint32_t kReasonTear = 1u << 1;         ///< old top, new bottom
inline constexpr std::uint32_t kReasonBlackout = 1u << 2;     ///< mean below floor
inline constexpr std::uint32_t kReasonOverexposed = 1u << 3;  ///< mean above ceiling
inline constexpr std::uint32_t kReasonLowContrast = 1u << 4;  ///< stddev below floor
inline constexpr std::uint32_t kReasonDeadRows = 1u << 5;     ///< constant dark rows
inline constexpr std::uint32_t kReasonDeadCols = 1u << 6;     ///< constant dark cols

/// Render a reason mask as "frozen|dead-rows" (static buffer cycle-free;
/// returns "none" for 0).
std::string reasons_to_string(std::uint32_t reasons);

/// What inspect() measured, alongside the verdict. POD snapshot — the
/// runtime copies the fields it forwards into StreamResult.
struct GuardVerdict {
  FrameQuality quality = FrameQuality::kHealthy;
  std::uint32_t reasons = 0;
  float mean = 0.0f;
  float contrast = 0.0f;  ///< global standard deviation
  int dead_rows = 0;
  int dead_cols = 0;
  /// False when the frame is an exact repeat of the previous one (at the
  /// sample grid); true for the first frame.
  bool frame_changed = true;
};

/// The gate's bounds (blackout/saturation means, contrast floor, dead-line
/// variance and mean, the dead-line verdict ladder, the tear threshold) are
/// constants in gate.cpp.
class FrameGuard {
 public:
  FrameGuard() = default;

  /// Gate one frame. One pass over the pixels plus a kGrid x kGrid sample
  /// comparison; no allocation once the profile buffers have seen this
  /// frame size. Not thread-safe — one FrameGuard per producer.
  const GuardVerdict& inspect(const imgproc::ImageF& frame);

  const GuardVerdict& last() const { return verdict_; }

  /// Forget the previous-frame sample grid (e.g. after a stream reset);
  /// the next inspect() cannot flag freeze/tear.
  void reset_history() { have_prev_ = false; }

  /// Sample-grid side length: 16x16 = 256 probes regardless of frame size.
  static constexpr int kGrid = 16;

 private:
  GuardVerdict verdict_;
  // Warm per-frame state (high-water sized, never shrunk).
  std::vector<float> row_mean_;
  std::vector<float> row_var_;
  std::vector<double> col_sum_;
  std::vector<double> col_sum2_;
  std::array<float, kGrid * kGrid> grid_{};
  std::array<float, kGrid * kGrid> prev_grid_{};
  bool have_prev_ = false;
  int prev_width_ = 0;
  int prev_height_ = 0;
};

}  // namespace pdet::guard
