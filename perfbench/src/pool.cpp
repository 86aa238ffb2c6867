// Inputs of a run: the trained model, the frame pool rendered from the seed,
// and the reference boxes every delivered frame is checked against.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/multistream.hpp"
#include "src/detect/engine.hpp"

namespace perfbench {

std::uint64_t now_ns() { return pd::obs::timeline_now_ns(); }

Model train_model() {
  // The same fixed training set the runtime benches use.
  pd::core::PedestrianDetector detector;
  detector.train(pd::dataset::make_window_set(71, 250, 500));
  return Model{detector.model(), detector.config().hog,
               detector.config().multiscale};
}

std::size_t queue_capacity(const Workload& w) {
  return std::max<std::size_t>(
      8, static_cast<std::size_t>(std::ceil(0.5 * w.rate_per_server())));
}

pd::detect::MultiscaleOptions workload_multiscale(const Model& model,
                                                  const Workload& w) {
  pd::detect::MultiscaleOptions options = model.multiscale;
  options.scales = w.scales;
  options.strategy = pd::detect::PyramidStrategy::kFeature;
  return options;
}

namespace {

/// Run `job(i)` for i in [0, n) on up to four threads.
template <typename Job>
void parallel_for(int n, const Job& job) {
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) job(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

Pool build_pool(const Workload& w, const Model& model, std::uint64_t seed,
                int frames_per_stream) {
  pd::dataset::MultiStreamOptions source_options;
  source_options.scene.width = w.width;
  source_options.scene.height = w.height;
  source_options.scene.camera.focal_px = kFocalPx;
  source_options.scene.camera.camera_height_m = w.camera_height_m;
  source_options.min_pedestrians = kPedestrians;
  source_options.max_pedestrians = kPedestrians;
  source_options.min_distance_m = w.min_distance_m;
  source_options.max_distance_m = w.max_distance_m;
  const pd::dataset::MultiStreamSource source(seed, source_options);
  const pd::detect::MultiscaleOptions multiscale =
      workload_multiscale(model, w);

  Pool pool;
  pool.streams.resize(static_cast<std::size_t>(w.streams));
  for (auto& frames : pool.streams) {
    frames.resize(static_cast<std::size_t>(frames_per_stream));
  }
  const int total = w.streams * frames_per_stream;
  parallel_for(total, [&](int i) {
    const int stream = i % w.streams;
    const int index = i / w.streams;
    PoolFrame& frame = pool.streams[static_cast<std::size_t>(stream)]
                                   [static_cast<std::size_t>(index)];
    pd::dataset::Scene scene = source.frame(stream, index);
    frame.image = std::move(scene.image);
    for (const pd::dataset::GroundTruthBox& b : scene.truth) {
      frame.truth.push_back({b.x, b.y, b.width, b.height});
    }
    // Reference: a standalone single-lane engine on the workload's backend.
    pd::detect::EngineOptions engine_options;
    engine_options.backend = w.backend;
    pd::detect::DetectionEngine engine(engine_options);
    frame.reference =
        engine.process(frame.image, model.hog, model.model, multiscale)
            .detections;
    frame.match = pd::eval::match_frame(frame.reference, frame.truth,
                                        std::numeric_limits<float>::lowest());
  });
  return pool;
}

bool same_boxes(std::span<const pd::detect::Detection> a,
                std::span<const pd::detect::Detection> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const pd::detect::Detection& x = a[i];
    const pd::detect::Detection& y = b[i];
    if (x.x != y.x || x.y != y.y || x.width != y.width ||
        x.height != y.height || x.score != y.score || x.scale != y.scale) {
      return false;
    }
  }
  return true;
}

RecordLog::RecordLog() : chunks_(kMaxChunks) {}

FrameRecord& RecordLog::append() {
  const std::size_t chunk = size_ / kChunk;
  if (chunk >= kMaxChunks) throw std::length_error("RecordLog full");
  if (!chunks_[chunk]) chunks_[chunk] = std::make_unique<FrameRecord[]>(kChunk);
  FrameRecord& rec = chunks_[chunk][size_ % kChunk];
  ++size_;
  return rec;
}

FrameRecord& RecordLog::operator[](std::size_t i) {
  return chunks_[i / kChunk][i % kChunk];
}

const FrameRecord& RecordLog::operator[](std::size_t i) const {
  return chunks_[i / kChunk][i % kChunk];
}

Outcome judge(const Pool& pool, int stream, const FrameRecord& rec,
              std::span<const pd::detect::Detection> boxes, bool in_order) {
  if (!in_order) return Outcome::kMismatch;
  return same_boxes(boxes, pool.at(stream, rec.pool).reference)
             ? Outcome::kOk
             : Outcome::kMismatch;
}

}  // namespace perfbench
