// Frame-to-frame pedestrian tracking.
//
// The accelerator emits per-frame detections at 60 fps; a DAS consumes
// *tracks* — persistent object identities whose size growth encodes closing
// speed (and thus time-to-collision, the quantity the paper's Section-1
// stopping analysis needs). This is a deliberately simple greedy-IoU tracker
// in the spirit of what rides on top of such detectors: associate by IoU,
// smooth with an exponential filter, coast briefly through missed frames.
#pragma once

#include <optional>
#include <vector>

#include "src/detect/detection.hpp"

namespace pdet::detect {

struct Track {
  int id = 0;
  Detection box;            ///< smoothed current estimate
  int age = 0;              ///< frames since creation
  int hits = 0;             ///< frames with an associated detection
  int misses_in_a_row = 0;
  float last_score = 0.0f;
  /// Smoothed growth rate of box height per frame (fraction, e.g. 0.01 =
  /// +1%/frame). Positive growth = approaching.
  double height_growth_per_frame = 0.0;
  /// Smoothed box-center velocity in pixels per frame (EMA of the smoothed
  /// center's frame-to-frame delta; coasting tracks keep the last estimate).
  double vx_per_frame = 0.0;
  double vy_per_frame = 0.0;

  bool confirmed(int min_hits) const { return hits >= min_hits; }

  /// Extrapolate the track `frames_ahead` frames: center advances with the
  /// velocity estimate, height compounds the growth rate, width keeps the
  /// aspect ratio. This is the occupancy prediction the tile RoiScheduler
  /// consumes — deliberately the same constant-velocity model the DAS
  /// stopping analysis assumes.
  Detection predicted(int frames_ahead) const;
};

/// The association IoU (0.3), the hits that confirm a track (2) and the
/// EMA weights of the growth (0.3) and velocity (0.5) samples are constants
/// in tracker.cpp.
struct TrackerOptions {
  int max_misses = 3;         ///< coast this many frames, then drop
  double position_alpha = 0.6;  ///< EMA weight of the new detection
  /// Extrapolation cap for predict_boxes(): predictions beyond this many
  /// frames ahead are clamped to max_coast, and tracks that have already
  /// coasted past it (misses_in_a_row > max_coast) are excluded entirely.
  /// The constant-velocity + compounding-growth model is only credible for
  /// a handful of frames; an uncapped prediction drifts a stale box across
  /// the frame — worse than admitting the track is gone.
  int max_coast = 8;
};

class Tracker {
 public:
  explicit Tracker(TrackerOptions options = {});

  /// Advance one frame: associate detections, update/create/drop tracks.
  /// Returns the live tracks after the update.
  const std::vector<Track>& update(const std::vector<Detection>& detections);

  const std::vector<Track>& tracks() const { return tracks_; }

  /// Fill `out` with Track::predicted(frames_ahead) for every confirmed
  /// track (two hits or more). `out` is cleared first and reuses its
  /// capacity — the runtime calls this per frame on a warm vector.
  /// Extrapolation is bounded by options().max_coast: frames_ahead is
  /// clamped to it, and tracks already coasting beyond it are skipped.
  void predict_boxes(int frames_ahead, std::vector<Detection>& out) const;

  const TrackerOptions& options() const { return options_; }

  /// Estimated frames until the track's box height reaches `limit_height`
  /// px, from the current height and smoothed growth; nullopt if receding or
  /// static. With frame period T this is time-to-collision-ish.
  static std::optional<double> frames_to_height(const Track& track,
                                                int limit_height);

 private:
  TrackerOptions options_;
  std::vector<Track> tracks_;
  int next_id_ = 1;
  /// update()'s association marks, warm so a steady update allocates nothing.
  std::vector<bool> det_used_;
  std::vector<bool> trk_used_;
};

}  // namespace pdet::detect
