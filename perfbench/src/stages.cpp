// Per-layer numbers of the traced run: the engine's own chain replayed one
// public stage call at a time, and the tile layer at its design point.
#include <cmath>

#include "bench.hpp"
#include "src/dataset/multistream.hpp"
#include "src/detect/engine.hpp"
#include "src/detect/nms.hpp"
#include "src/detect/scanner.hpp"
#include "src/guard/gate.hpp"
#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/net/wire.hpp"
#include "src/tile/engine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Warm buffers for one pyramid level of the replay (mirrors
/// detect::LevelWorkspace).
struct LevelScratch {
  pd::hog::CellGrid cells;
  pd::hog::BlockGrid blocks;
  std::vector<float> block_scratch;
  pd::score::ScoreBatch batch;
  std::vector<pd::detect::Detection> hits;
};

}  // namespace

StageLedger replay_stages(const Workload& w, const Model& model,
                          const Pool& pool, double budget_s) {
  StageLedger ledger;
  const pd::detect::MultiscaleOptions ms = workload_multiscale(model, w);
  const pd::hog::HogParams& params = model.hog;
  const std::unique_ptr<pd::score::ScoringBackend> backend =
      pd::score::make_backend(w.backend);

  pd::imgproc::GradientField grad;
  pd::imgproc::GradientField cell_grad;
  pd::hog::CellGrid base;
  std::vector<LevelScratch> levels(ms.scales.size());
  LevelScratch probe;
  std::vector<pd::detect::Detection> raw;
  std::vector<pd::detect::Detection> nms_scratch;
  std::vector<pd::detect::Detection> kept;
  pd::detect::EngineOptions one_lane;
  one_lane.backend = w.backend;
  pd::detect::DetectionEngine engine(one_lane);
  pd::detect::EngineOptions lanes_options = one_lane;
  lanes_options.threads = w.engine_threads;
  pd::detect::DetectionEngine engine_lanes(lanes_options);
  pd::guard::FrameGuard gate;
  pd::net::wire::SubmitFrame submit;
  std::vector<std::uint8_t> wire_buf;
  pd::net::wire::Message message;

  const int frames = w.streams * pool.frames_per_stream();
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  // Pass 0 warms every buffer and is not counted.
  for (int i = 0; i <= frames && (i < 2 || now_ns() < deadline); ++i) {
    const int stream = i % w.streams;
    const int index = (i / w.streams) % pool.frames_per_stream();
    const PoolFrame& f = pool.at(stream, index);
    const bool counted = i > 0;
    Span frame_span("replay.frame",
                    (static_cast<std::uint64_t>(stream + 1) << 40) |
                        static_cast<std::uint64_t>(i));
    StageLedger t;  // this frame

    {
      Span s("imgproc.compute_gradients_into");
      pd::imgproc::compute_gradients_into(f.image, params.gradient_op, grad);
      t.gradient_ms = s.end();
    }
    {
      Span s("hog.compute_cell_grid_into");
      pd::hog::compute_cell_grid_into(f.image, params, cell_grad, base);
      t.cell_grid_ms = s.end();
    }
    raw.clear();
    for (std::size_t l = 0; l < ms.scales.size(); ++l) {
      const double scale = ms.scales[l];
      LevelScratch& level = levels[l];
      const pd::hog::CellGrid* cells = &base;
      if (scale != 1.0) {
        Span s("hog.downscale_cell_grid_into");
        pd::hog::downscale_cell_grid_into(base, scale, ms.feature_interp,
                                          level.cells);
        t.downscale_ms += s.end();
        ++t.downscaled_levels;
        cells = &level.cells;
      }
      if (cells->cells_x() < params.cells_per_window_x() ||
          cells->cells_y() < params.cells_per_window_y()) {
        continue;  // the engine drops this level too
      }
      {
        Span s("hog.normalize_cells_into");
        pd::hog::normalize_cells_into(*cells, params, level.block_scratch,
                                      level.blocks);
        t.normalize_ms += s.end();
      }
      level.batch.configure(static_cast<std::size_t>(params.descriptor_size()),
                            pd::score::kDefaultBatchCapacity);
      {
        Span s("detect.scan_level_into");
        pd::detect::scan_level_into(level.blocks, params, model.model,
                                    *backend, ms.scan, level.batch,
                                    level.hits);
        t.scan_ms += s.end();
      }
      t.windows += static_cast<double>(pd::detect::scan_window_count(
          level.blocks, params, ms.scan.cell_stride));
      ++t.levels;
      for (pd::detect::Detection d : level.hits) {
        // Level -> frame coordinates, the engine's arithmetic.
        d.x = static_cast<int>(std::lround(d.x * scale));
        d.y = static_cast<int>(std::lround(d.y * scale));
        d.width = static_cast<int>(std::lround(d.width * scale));
        d.height = static_cast<int>(std::lround(d.height * scale));
        d.scale = scale;
        raw.push_back(d);
      }
    }
    if (t.downscaled_levels == 0) {
      // Single-scale ladder: time one x2 level so the vote/downscale ratio
      // (EXPERIMENTS E5) still has a denominator.
      Span s("hog.downscale_cell_grid_into");
      pd::hog::downscale_cell_grid_into(base, 2.0, ms.feature_interp,
                                        probe.cells);
      t.downscale_ms = s.end();
      t.downscale_probe = true;
    }
    t.raw = static_cast<double>(raw.size());
    {
      Span s("detect.nms_into");
      pd::detect::nms_into(raw, ms.nms_iou, nms_scratch, kept);
      t.nms_ms = s.end();
    }
    {
      Span s("detect.process");
      const pd::detect::MultiscaleResult& r =
          engine.process(f.image, params, model.model, ms);
      t.process_ms = s.end();
      if (!same_boxes(kept, r.detections)) ++ledger.mismatches;
    }
    {
      Span s("detect.process_lanes");
      engine_lanes.process(f.image, params, model.model, ms);
      t.process_lanes_ms = s.end();
    }
    {
      Span s("guard.inspect");
      const pd::guard::GuardVerdict& v = gate.inspect(f.image);
      t.inspect_us = s.end() * 1e3;
      if (counted && v.quality != pd::guard::FrameQuality::kHealthy) {
        ++ledger.guard_verdicts;
      }
    }
    submit.tag = static_cast<std::uint64_t>(i);
    submit.image = f.image;
    wire_buf.clear();
    {
      Span s("net.encode_submit_frame");
      pd::net::wire::encode_submit_frame(submit, wire_buf);
      t.encode_us = s.end() * 1e3;
    }
    {
      Span s("net.decode_message");
      std::size_t consumed = 0;
      pd::net::wire::decode_message(wire_buf, message, consumed);
      t.decode_us = s.end() * 1e3;
    }
    if (!counted) continue;

    ++ledger.frames;
    ledger.levels = t.levels;
    ledger.downscaled_levels = t.downscaled_levels;
    ledger.downscale_probe = t.downscale_probe;
    ledger.gradient_ms += t.gradient_ms;
    ledger.cell_grid_ms += t.cell_grid_ms;
    ledger.normalize_ms += t.normalize_ms;
    ledger.downscale_ms += t.downscale_ms;
    ledger.scan_ms += t.scan_ms;
    ledger.nms_ms += t.nms_ms;
    ledger.windows += t.windows;
    ledger.raw += t.raw;
    ledger.process_ms += t.process_ms;
    ledger.process_lanes_ms += t.process_lanes_ms;
    ledger.inspect_us += t.inspect_us;
    ledger.encode_us += t.encode_us;
    ledger.decode_us += t.decode_us;
    ledger.wire_bytes = static_cast<double>(wire_buf.size());
  }

  const double n = std::max(1, ledger.frames);
  for (double* v : {&ledger.gradient_ms, &ledger.cell_grid_ms,
                    &ledger.normalize_ms, &ledger.downscale_ms,
                    &ledger.scan_ms, &ledger.nms_ms, &ledger.windows,
                    &ledger.raw, &ledger.process_ms, &ledger.process_lanes_ms,
                    &ledger.inspect_us, &ledger.encode_us, &ledger.decode_us}) {
    *v /= n;
  }
  const PoolFrame& f0 = pool.at(0, 0);
  ledger.megapixels = static_cast<double>(f0.image.width()) *
                      static_cast<double>(f0.image.height()) / 1e6;
  ledger.workspace_bytes = engine.stats().alloc_bytes;
  return ledger;
}

TileLedger probe_tiles(const Model& model, std::uint64_t seed, bool smoke) {
  // The same street camera at twice the resolution: 1920x1088 is the
  // cell-aligned 1080p frame whose 2x2 plan of 960x544 tiles is exact, so
  // tiled boxes must equal untiled boxes byte for byte.
  pd::dataset::MultiStreamOptions source_options;
  source_options.scene.width = 960;
  source_options.scene.height = 544;
  source_options.render_scale = smoke ? 1.0 : 2.0;
  source_options.min_pedestrians = kPedestrians;
  source_options.max_pedestrians = kPedestrians;
  source_options.min_distance_m = 13.0;
  source_options.max_distance_m = 32.0;
  const pd::dataset::MultiStreamSource source(seed, source_options);
  std::vector<pd::imgproc::ImageF> frames;
  for (int i = 0; i < (smoke ? 1 : 2); ++i) {
    frames.push_back(source.frame(0, i).image);
  }

  pd::detect::MultiscaleOptions ms = model.multiscale;
  ms.scales = {1.0, 2.0};
  ms.strategy = pd::detect::PyramidStrategy::kFeature;
  pd::detect::EngineOptions engine_options;
  engine_options.backend = pd::score::BackendKind::kBatch;
  pd::detect::DetectionEngine untiled(engine_options);
  pd::tile::TileEngineOptions tile_options;
  tile_options.threads = 2;
  tile_options.engine = engine_options;
  pd::tile::TileEngine tiled(tile_options);
  untiled.process(frames[0], model.hog, model.model, ms);  // warm
  tiled.process(frames[0], model.hog, model.model, ms);

  TileLedger ledger;
  double windows_untiled = 0.0;
  double windows_tiled = 0.0;
  std::vector<pd::detect::Detection> reference;
  for (int rep = 0; rep < (smoke ? 1 : 2); ++rep) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::uint64_t id = (0xffull << 40) | (rep * 16 + i);
      {
        Span s("detect.process_untiled", id);
        const pd::detect::MultiscaleResult& r =
            untiled.process(frames[i], model.hog, model.model, ms);
        ledger.untiled_ms += s.end();
        reference = r.detections;
        windows_untiled += static_cast<double>(r.windows_evaluated);
      }
      {
        Span s("tile.process", id);
        const pd::tile::TiledResult& r =
            tiled.process(frames[i], model.hog, model.model, ms);
        ledger.tiled_ms += s.end();
        windows_tiled += static_cast<double>(r.windows_evaluated);
        if (!same_boxes(r.detections, reference)) ++ledger.mismatches;
      }
      ++ledger.frames;
    }
  }
  ledger.untiled_ms /= ledger.frames;
  ledger.tiled_ms /= ledger.frames;
  ledger.window_overhead =
      windows_untiled > 0.0 ? windows_tiled / windows_untiled : 0.0;
  double crop_pixels = 0.0;
  for (const pd::tile::TileGeometry& g : tiled.plan().tiles()) {
    crop_pixels += static_cast<double>(g.w) * static_cast<double>(g.h);
  }
  ledger.pixel_overhead =
      crop_pixels / (static_cast<double>(frames[0].width()) *
                     static_cast<double>(frames[0].height()));
  return ledger;
}

}  // namespace perfbench
