#include "src/detect/tracker.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"

namespace pdet::detect {
namespace {

constexpr double kMatchIou = 0.3;  ///< minimum IoU to associate
constexpr int kMinHits = 2;        ///< frames before a track is "confirmed"
/// EMA weights of the new growth and velocity samples.
constexpr double kGrowthAlpha = 0.3;
constexpr double kVelocityAlpha = 0.5;

}  // namespace

Tracker::Tracker(TrackerOptions options) : options_(options) {
  PDET_REQUIRE(options.max_misses >= 0);
  PDET_REQUIRE(options.position_alpha > 0.0 && options.position_alpha <= 1.0);
  PDET_REQUIRE(options.max_coast >= 0);
}

const std::vector<Track>& Tracker::update(
    const std::vector<Detection>& detections) {
  PDET_TRACE_SCOPE("detect/tracker_update");
  // Greedy association: repeatedly take the globally best (track, detection)
  // IoU pair above the threshold.
  det_used_.assign(detections.size(), false);
  trk_used_.assign(tracks_.size(), false);
  while (true) {
    double best_iou = kMatchIou;
    int best_t = -1;
    int best_d = -1;
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
      if (trk_used_[t]) continue;
      for (std::size_t d = 0; d < detections.size(); ++d) {
        if (det_used_[d]) continue;
        const double v = iou(tracks_[t].box, detections[d]);
        if (v >= best_iou) {
          best_iou = v;
          best_t = static_cast<int>(t);
          best_d = static_cast<int>(d);
        }
      }
    }
    if (best_t < 0) break;
    trk_used_[static_cast<std::size_t>(best_t)] = true;
    det_used_[static_cast<std::size_t>(best_d)] = true;

    Track& track = tracks_[static_cast<std::size_t>(best_t)];
    const Detection& det = detections[static_cast<std::size_t>(best_d)];
    const double a = options_.position_alpha;
    const int old_height = track.box.height;
    const double old_cx = track.box.x + track.box.width / 2.0;
    const double old_cy = track.box.y + track.box.height / 2.0;
    track.box.x = static_cast<int>(std::lround(a * det.x + (1 - a) * track.box.x));
    track.box.y = static_cast<int>(std::lround(a * det.y + (1 - a) * track.box.y));
    track.box.width =
        static_cast<int>(std::lround(a * det.width + (1 - a) * track.box.width));
    track.box.height = static_cast<int>(
        std::lround(a * det.height + (1 - a) * track.box.height));
    track.box.score = det.score;
    track.box.scale = det.scale;
    track.last_score = det.score;
    ++track.hits;
    track.misses_in_a_row = 0;
    if (old_height > 0) {
      const double growth =
          static_cast<double>(track.box.height - old_height) / old_height;
      track.height_growth_per_frame =
          kGrowthAlpha * growth +
          (1 - kGrowthAlpha) * track.height_growth_per_frame;
    }
    // Velocity sample = smoothed center's frame-to-frame delta. Coasting
    // tracks skip this block entirely, so they keep the last estimate.
    const double va = kVelocityAlpha;
    const double new_cx = track.box.x + track.box.width / 2.0;
    const double new_cy = track.box.y + track.box.height / 2.0;
    track.vx_per_frame = va * (new_cx - old_cx) + (1 - va) * track.vx_per_frame;
    track.vy_per_frame = va * (new_cy - old_cy) + (1 - va) * track.vy_per_frame;
  }

  // Unmatched tracks coast; drop after max_misses.
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    ++tracks_[t].age;
    if (!trk_used_[t]) ++tracks_[t].misses_in_a_row;
  }
  tracks_.erase(std::remove_if(tracks_.begin(), tracks_.end(),
                               [&](const Track& track) {
                                 return track.misses_in_a_row > options_.max_misses;
                               }),
                tracks_.end());

  // Unmatched detections found new tracks.
  for (std::size_t d = 0; d < detections.size(); ++d) {
    if (det_used_[d]) continue;
    Track track;
    track.id = next_id_++;
    track.box = detections[d];
    track.hits = 1;
    track.last_score = detections[d].score;
    tracks_.push_back(track);
  }
  obs::gauge_set("tracker.active_tracks",
                 static_cast<double>(tracks_.size()));
  return tracks_;
}

Detection Track::predicted(int frames_ahead) const {
  PDET_REQUIRE(frames_ahead >= 0);
  Detection out = box;
  const double cx = box.x + box.width / 2.0 + vx_per_frame * frames_ahead;
  const double cy = box.y + box.height / 2.0 + vy_per_frame * frames_ahead;
  // Height compounds the growth estimate; width follows to keep the aspect.
  double h = box.height;
  double w = box.width;
  if (box.height > 0) {
    h = box.height * std::pow(1.0 + height_growth_per_frame, frames_ahead);
    h = std::max(1.0, h);
    w = box.width * (h / box.height);
  }
  out.width = static_cast<int>(std::lround(w));
  out.height = static_cast<int>(std::lround(h));
  out.x = static_cast<int>(std::lround(cx - out.width / 2.0));
  out.y = static_cast<int>(std::lround(cy - out.height / 2.0));
  return out;
}

void Tracker::predict_boxes(int frames_ahead,
                            std::vector<Detection>& out) const {
  out.clear();
  const int ahead = std::min(frames_ahead, options_.max_coast);
  for (const Track& track : tracks_) {
    if (!track.confirmed(kMinHits)) continue;
    // A track that has coasted past the cap is gone, not predictable — an
    // uncapped extrapolation would drift its stale box across the frame.
    if (track.misses_in_a_row > options_.max_coast) continue;
    out.push_back(track.predicted(ahead));
  }
}

std::optional<double> Tracker::frames_to_height(const Track& track,
                                                int limit_height) {
  PDET_REQUIRE(limit_height > 0);
  if (track.height_growth_per_frame <= 1e-6) return std::nullopt;
  if (track.box.height <= 0) return std::nullopt;
  if (track.box.height >= limit_height) return 0.0;
  // height * (1+g)^n = limit  =>  n = log(limit/height) / log(1+g).
  return std::log(static_cast<double>(limit_height) / track.box.height) /
         std::log1p(track.height_growth_per_frame);
}

}  // namespace pdet::detect
