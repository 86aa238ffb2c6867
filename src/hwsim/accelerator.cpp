#include "src/hwsim/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "src/detect/nms.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/vcd.hpp"
#include "src/util/assert.hpp"

namespace pdet::hwsim {
namespace {

// One level's chain: [scaler →] normalizer → NHOGMem → classifier. The
// native level reads its fan-out port directly; an extra scale reads it
// through a shift-and-add scaler.
struct LevelChain {
  LevelChain(const FixedHogPipeline& pipeline, const QuantizedModel& model,
             int nhog_rows, int frames, double level_scale, LevelSize base,
             LevelSize level_grid)
      : scale(level_scale),
        grid(level_grid),
        mem(nhog_rows, grid.cells_x, pipeline.params().bins),
        normalizer(pipeline, grid.cells_x, grid.cells_y, frames,
                   scale == 1.0 ? input : scaled, mem),
        classifier(pipeline.params(), model, grid, frames, mem) {
    if (scale != 1.0) {
      scaler.emplace(pipeline, base, grid, frames, input, scaled);
    }
  }

  double scale;
  LevelSize grid;
  sim::Fifo<CellRowData> input{4};   ///< this level's fan-out port
  sim::Fifo<CellRowData> scaled{4};  ///< the scaler's output
  DataNhogMem mem;
  StreamNormalizer normalizer;
  StreamClassifier classifier;
  std::optional<StreamCellScaler> scaler;
};

// Appends the window at cell (cell_x, cell_y) of the level at `scale` to
// `raw` as a frame-coordinate box if its score passes the threshold.
void keep(const AcceleratorConfig& config, std::vector<detect::Detection>& raw,
          double scale, int cell_x, int cell_y, double score) {
  if (!(score > config.threshold)) return;
  const hog::HogParams& hp = config.hog;
  detect::Detection d;
  d.x = static_cast<int>(std::lround(cell_x * hp.cell_size * scale));
  d.y = static_cast<int>(std::lround(cell_y * hp.cell_size * scale));
  d.width = static_cast<int>(std::lround(hp.window_width * scale));
  d.height = static_cast<int>(std::lround(hp.window_height * scale));
  d.score = static_cast<float>(score);
  d.scale = scale;
  raw.push_back(d);
}

}  // namespace

Accelerator::Accelerator(const AcceleratorConfig& config,
                         const svm::LinearModel& model)
    : config_(config),
      pipeline_(config.hog, config.fixed),
      qmodel_(QuantizedModel::quantize(model, config.fixed)) {
  PDET_REQUIRE(!config_.scales.empty());
  PDET_REQUIRE(config_.scales.front() == 1.0 &&
               "first scale must be the native level");
  // Below a window's cell rows the classifier's first pass can never find
  // its rows resident, so the circuit would deadlock.
  PDET_REQUIRE(config_.nhogmem_rows >= config_.hog.cells_per_window_y());
  PDET_REQUIRE(model.dimension() ==
               static_cast<std::size_t>(config.hog.descriptor_size()));
}

std::vector<detect::Detection> Accelerator::detect(
    const imgproc::ImageU8& frame) const {
  const hog::HogParams& hp = config_.hog;
  // Extract once at native resolution — the paper's point.
  const IntCellGrid base = pipeline_.compute_cells(frame);

  std::vector<detect::Detection> raw;
  for (const double scale : config_.scales) {
    const auto grid = pipeline_.level_size({base.cells_x, base.cells_y}, scale);
    if (!grid) continue;
    const IntBlockGrid blocks = pipeline_.normalize(
        scale == 1.0
            ? base
            : pipeline_.downscale_cells(base, grid->cells_x, grid->cells_y));
    const int nx = grid->cells_x - hp.cells_per_window_x() + 1;
    const int ny = grid->cells_y - hp.cells_per_window_y() + 1;
    for (int cy = 0; cy < ny; ++cy) {
      for (int cx = 0; cx < nx; ++cx) {
        keep(config_, raw, scale, cx, cy,
             pipeline_.classify_window(blocks, qmodel_, cx, cy));
      }
    }
  }
  return raw;
}

StreamingResult Accelerator::stream(std::span<const imgproc::ImageU8> frames,
                                    sim::VcdWriter* vcd) const {
  PDET_REQUIRE(!frames.empty());
  const int width = frames.front().width();
  const int height = frames.front().height();
  for (const auto& f : frames) {
    PDET_REQUIRE(f.width() == width && f.height() == height);
  }
  const int n = static_cast<int>(frames.size());
  const hog::HogParams& hp = config_.hog;
  const LevelSize base{width / hp.cell_size, height / hp.cell_size};

  std::vector<std::unique_ptr<LevelChain>> chains;
  for (const double scale : config_.scales) {
    if (const auto grid = pipeline_.level_size(base, scale)) {
      chains.push_back(std::make_unique<LevelChain>(
          pipeline_, qmodel_, config_.nhogmem_rows, n, scale, base, *grid));
    }
  }
  PDET_REQUIRE(!chains.empty() && "frame smaller than one window");

  sim::Fifo<std::uint8_t> px_fifo(2);
  sim::Fifo<GradientVote> vote_fifo(2);
  sim::Fifo<CellRowData> row_fifo(4);
  StreamPixelSource source(frames, px_fifo);
  StreamGradientUnit gradient(pipeline_, width, height, n, px_fifo, vote_fifo);
  StreamCellAccumulator accumulator(pipeline_, width, height, n, vote_fifo,
                                    row_fifo);
  std::vector<sim::Fifo<CellRowData>*> ports;
  for (const auto& c : chains) ports.push_back(&c->input);
  StreamFanout fanout(row_fifo, std::move(ports));

  sim::Simulator simulator;
  simulator.add_commit_hook([&] {
    px_fifo.commit();
    vote_fifo.commit();
    row_fifo.commit();
    for (const auto& c : chains) {
      c->input.commit();
      c->scaled.commit();
    }
  });
  simulator.add(source);
  simulator.add(gradient);
  simulator.add(accumulator);
  simulator.add(fanout);
  // A chain's normalizer writes its NHOGMem before the classifier reads it
  // in the same cycle: the memory is passive, not a FIFO.
  for (const auto& c : chains) {
    if (c->scaler) simulator.add(*c->scaler);
    simulator.add(c->normalizer);
    simulator.add(c->classifier);
  }

  if (vcd != nullptr) {
    vcd->add_signal("px_fifo_size", 3, [&] { return px_fifo.size(); });
    vcd->add_signal("vote_fifo_size", 3, [&] { return vote_fifo.size(); });
    vcd->add_signal("cellrow_fifo_size", 3, [&] { return row_fifo.size(); });
    for (std::size_t i = 0; i < chains.size(); ++i) {
      const LevelChain& c = *chains[i];
      const std::string level = "_s" + std::to_string(i);
      vcd->add_signal("nhog_occupancy" + level, 8, [&c] {
        return static_cast<std::uint64_t>(c.mem.occupancy());
      });
      vcd->add_signal("rows_swept" + level, 16, [&c] {
        return static_cast<std::uint64_t>(c.classifier.swept_rows());
      });
      vcd->add_signal("windows_done" + level, 32, [&c] {
        return static_cast<std::uint64_t>(c.classifier.scores().size());
      });
    }
    simulator.set_vcd(vcd);
  }

  const auto all_done = [&] {
    return std::all_of(chains.begin(), chains.end(),
                       [](const auto& c) { return c->classifier.done(); });
  };
  const std::uint64_t pixels = static_cast<std::uint64_t>(width) *
                               static_cast<std::uint64_t>(height) *
                               static_cast<std::uint64_t>(n);
  const bool finished = simulator.run_until(all_done, 2 * pixels + 1'000'000);
  PDET_REQUIRE(finished && "streaming pipeline did not complete");

  StreamingResult result;
  result.total_cycles = simulator.cycle();
  result.nhog_capacity = config_.nhogmem_rows;
  result.frame_done_cycles.assign(static_cast<std::size_t>(n), 0);
  for (const auto& c : chains) {
    StreamLevel level;
    level.scale = c->scale;
    level.grid = c->grid;
    level.scores = c->classifier.scores();
    level.nhog_max_occupancy = c->mem.max_occupancy();
    level.min_bank_reads = ~std::uint64_t{0};
    for (int b = 0; b < DataNhogMem::kBanks; ++b) {
      level.min_bank_reads = std::min(level.min_bank_reads, c->mem.bank_reads(b));
      level.max_bank_reads = std::max(level.max_bank_reads, c->mem.bank_reads(b));
    }
    for (std::size_t f = 0; f < result.frame_done_cycles.size(); ++f) {
      result.frame_done_cycles[f] = std::max(
          result.frame_done_cycles[f], c->classifier.frame_done_cycles()[f]);
    }
    result.levels.push_back(std::move(level));
  }
  if (n >= 2) {
    std::vector<std::uint64_t> periods;
    for (std::size_t f = 1; f < result.frame_done_cycles.size(); ++f) {
      periods.push_back(result.frame_done_cycles[f] -
                        result.frame_done_cycles[f - 1]);
    }
    std::sort(periods.begin(), periods.end());
    result.sustained_period_cycles = periods[periods.size() / 2];
  }
  const auto total = static_cast<double>(result.total_cycles);
  result.utilization_gradient =
      static_cast<double>(gradient.busy_cycles()) / total;
  result.utilization_classifier =
      static_cast<double>(chains.front()->classifier.busy_cycles()) / total;
  result.frame_ms = 1e3 * total / (n * config_.clock_hz);
  result.fps = 1e3 / result.frame_ms;
  return result;
}

FrameResult Accelerator::process_frame(const imgproc::ImageU8& frame) const {
  FrameResult result;
  result.timing = stream({&frame, 1});
  for (const StreamLevel& level : result.timing.levels) {
    for (const WindowScore& s : level.scores) {
      keep(config_, result.raw, level.scale, s.cell_x, s.cell_y, s.score);
    }
  }
  result.detections = detect::nms(result.raw);
  return result;
}

ResourceModel Accelerator::resources(int frame_width, int frame_height) const {
  AcceleratorResourceConfig rc;
  rc.frame_width = frame_width;
  rc.frame_height = frame_height;
  rc.cell_size = config_.hog.cell_size;
  rc.nhogmem_rows = config_.nhogmem_rows;
  rc.num_scales = static_cast<int>(config_.scales.size());
  rc.bins = config_.hog.bins;
  return ResourceModel(rc);
}

TimingModel Accelerator::timing(int frame_width, int frame_height) const {
  TimingConfig tc;
  tc.frame_width = frame_width;
  tc.frame_height = frame_height;
  tc.cell_size = config_.hog.cell_size;
  tc.clock_hz = config_.clock_hz;
  return TimingModel(tc);
}

}  // namespace pdet::hwsim
