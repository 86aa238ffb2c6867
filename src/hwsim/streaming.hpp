// Cycle-level model of the accelerator (paper Figures 5-8), carrying the
// real fixed-point values.
//
// Each RTL block is a sim::Module on the shared clock, passing the values it
// computes through registered FIFOs:
//
//   StreamPixelSource --1 px/cycle--> StreamGradientUnit --1 vote/cycle-->
//   StreamCellAccumulator --cell rows--> StreamFanout --+--> level chain 0
//                                                      +--> level chain 1..
//   level chain: [StreamCellScaler -->] StreamNormalizer --> DataNhogMem
//                (16 banks, nhogmem_rows ring) <--columns-- StreamClassifier
//
// The units keep only the schedule: line buffers and border replication,
// the bilinear spill and the row hand-off, the normalizer's 3-row window,
// the ring, the bank reads and the sweep cadence (timing.hpp). Every value
// comes from FixedHogPipeline's stage functions (fixed_pipeline.hpp): vote,
// deposit, normalize_group with read_groups, and ScaleTap::blend; each
// group is normalized once. So the window scores are bit-identical to
// FixedHogPipeline's batch path; the test suite asserts this.
// Accelerator::stream (accelerator.hpp) wires these units into one run over
// the scale list and streams one or more frames back to back.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/hwsim/fixed_pipeline.hpp"
#include "src/sim/fifo.hpp"
#include "src/sim/module.hpp"

namespace pdet::hwsim {

/// One finished row of cell histograms (bins per cell, Q.hist fixed point).
/// Rows are numbered across the whole run: frame f's row c is
/// f * cells_y + c.
struct CellRowData {
  int row = 0;
  std::vector<std::int64_t> hist;  ///< cells_x * bins
};

/// One finished row of normalized cell-group features (Q.norm).
struct NormRowData {
  int row = 0;
  std::vector<std::int32_t> features;  ///< cells_x * 36
};

/// Streams the frames' pixels in raster order, one per cycle, frame after
/// frame. Like a camera it cannot be stalled: a full FIFO is an overrun.
class StreamPixelSource : public sim::Module {
 public:
  StreamPixelSource(std::span<const imgproc::ImageU8> frames,
                    sim::Fifo<std::uint8_t>& out);
  void eval() override;

 private:
  std::span<const imgproc::ImageU8> frames_;
  sim::Fifo<std::uint8_t>& out_;
  std::size_t frame_ = 0;
  std::size_t index_ = 0;
};

/// Line-buffered gradient unit. Consumes one pixel per cycle; once a full
/// row plus one pixel is buffered it emits one gradient vote per cycle: the
/// centered differences, with border replication, binned by
/// FixedHogPipeline::vote.
class StreamGradientUnit : public sim::Module {
 public:
  StreamGradientUnit(const FixedHogPipeline& pipeline, int width, int height,
                     int frames, sim::Fifo<std::uint8_t>& in,
                     sim::Fifo<GradientVote>& out);
  void eval() override;
  std::uint64_t busy_cycles() const { return busy_; }

 private:
  GradientVote vote_at(std::size_t index) const;
  std::uint8_t pixel(int x, std::size_t line) const;

  const FixedHogPipeline& pipeline_;
  int width_;
  int height_;
  sim::Fifo<std::uint8_t>& in_;
  sim::Fifo<GradientVote>& out_;
  // Three-line window over the run's lines: line n lives in lines_[n % 3].
  std::vector<std::uint8_t> lines_[3];
  std::size_t received_ = 0;
  std::size_t emitted_ = 0;
  std::size_t total_;
  std::uint64_t busy_ = 0;
};

/// Accumulates gradient votes into cell histograms with
/// FixedHogPipeline::deposit. Owns three cell-row accumulator banks: the
/// bilinear spatial vote of a pixel in image rows [8c, 8c+4) still touches
/// cell row c-1, so row c-1 is only final once row 8c+4 begins — the
/// overlap that forces line-buffered accumulators in the RTL. A finished
/// row's bank is never one the next vote writes, so the hand-off and that
/// vote share a cycle.
class StreamCellAccumulator : public sim::Module {
 public:
  StreamCellAccumulator(const FixedHogPipeline& pipeline, int width,
                        int height, int frames, sim::Fifo<GradientVote>& in,
                        sim::Fifo<CellRowData>& out);
  void eval() override;

 private:
  bool row_final(int row) const;
  std::vector<std::int64_t>& bank(int row);
  void finalize_row(int row);

  const FixedHogPipeline& pipeline_;
  int cells_x_;
  int cells_y_;
  int rows_total_;
  std::size_t votes_per_frame_;
  sim::Fifo<GradientVote>& in_;
  sim::Fifo<CellRowData>& out_;
  // Ring of 3 accumulator banks indexed by row % 3.
  std::vector<std::int64_t> banks_[3];
  int emitted_rows_ = 0;
  std::size_t votes_seen_ = 0;
};

/// 16-bank normalized-feature memory holding real data. Rows live in an
/// nhogmem_rows ring; bank(cy) = cy mod 16, so the 16 cells of a window
/// column always come from 16 distinct banks — the conflict-free read
/// pattern the paper's classifier depends on. Reads are counted per bank.
class DataNhogMem {
 public:
  DataNhogMem(int capacity_rows, int cells_x, int bins);

  void write_row(NormRowData row);
  bool has_row(int row) const;
  void evict_below(int row);

  /// Read one cell's 36-vector; counts one access on the row's bank.
  std::span<const std::int32_t> read_cell(int row, int cx);

  int occupancy() const { return static_cast<int>(rows_.size()); }
  int max_occupancy() const { return max_occupancy_; }
  int capacity() const { return capacity_; }
  std::uint64_t bank_reads(int bank) const;
  static constexpr int kBanks = 16;

 private:
  int capacity_;
  int cells_x_;
  int feature_len_;
  std::vector<NormRowData> rows_;  // sorted by row
  int max_occupancy_ = 0;
  std::uint64_t reads_[kBanks] = {};
};

/// Normalizes finished cell rows and writes them to the data memory. Cell
/// row r of a frame belongs to group rows r-1 and r (borders clamp); group
/// row r spans cell rows r and r+1, so it is normalized once, with
/// FixedHogPipeline::normalize_group, when row r is produced, and kept for
/// row r+1. Each row's features are read from its two group rows
/// (FixedHogPipeline::read_groups). Busy 2 cycles per cell; takes a cell
/// row only when its 3-row window (rows r-1, r, r+1) has room.
class StreamNormalizer : public sim::Module {
 public:
  StreamNormalizer(const FixedHogPipeline& pipeline, int cells_x, int cells_y,
                   int frames, sim::Fifo<CellRowData>& in, DataNhogMem& mem);
  void eval() override;

 private:
  void produce(int row);
  const std::vector<std::int64_t>& buffered(int row) const;

  const FixedHogPipeline& pipeline_;
  int cells_x_;
  int cells_y_;
  int rows_total_;
  sim::Fifo<CellRowData>& in_;
  DataNhogMem& mem_;
  std::deque<CellRowData> window_;  // the <= 3 rows around the next row
  std::vector<std::int32_t> group_rows_[2];  // group row g in [g % 2]
  int highest_row_ = -1;
  int emitted_ = 0;
  int busy_countdown_ = 0;
  std::optional<NormRowData> pending_;
};

/// One-to-N fan-out of finished cell rows: every level's chain consumes the
/// extractor's output (paper Figure 5/6 tee point).
class StreamFanout : public sim::Module {
 public:
  StreamFanout(sim::Fifo<CellRowData>& in,
               std::vector<sim::Fifo<CellRowData>*> outs);
  void eval() override;

 private:
  sim::Fifo<CellRowData>& in_;
  std::vector<sim::Fifo<CellRowData>*> outs_;
};

/// Streaming shift-and-add cell-histogram down-scaler (paper Figure 6): the
/// separable bilinear resampler of FixedHogPipeline::downscale_cells run as
/// a clocked row pipeline. Consumes source cell rows, applies the horizontal
/// CSD taps immediately, buffers the mid rows its output rows still need,
/// and emits scaled cell rows — bit-identical to the batch scaler. Occupies
/// 2 cycles per output cell per row, like the other row engines.
class StreamCellScaler : public sim::Module {
 public:
  StreamCellScaler(const FixedHogPipeline& pipeline, LevelSize src,
                   LevelSize out, int frames, sim::Fifo<CellRowData>& in,
                   sim::Fifo<CellRowData>& out_fifo);
  void eval() override;

 private:
  std::vector<std::int64_t> horizontal_pass(const CellRowData& row) const;

  int bins_;
  LevelSize src_;
  LevelSize out_;
  int rows_total_;
  std::vector<ScaleTap> xtaps_;
  std::vector<ScaleTap> ytaps_;
  sim::Fifo<CellRowData>& in_;
  sim::Fifo<CellRowData>& out_fifo_;
  /// Mid (horizontally-scaled) rows still needed by pending output rows.
  std::deque<std::pair<int, std::vector<std::int64_t>>> mid_rows_;
  int highest_src_row_ = -1;
  int emitted_ = 0;
  int busy_countdown_ = 0;
  std::optional<CellRowData> pending_;
};

/// One window's score; (cell_x, cell_y) is its anchor in its frame's level.
struct WindowScore {
  int frame = 0;
  int cell_x = 0;
  int cell_y = 0;
  double score = 0.0;
};

/// Row-locked MACBAR classifier over real data: one pass per grid row at the
/// paper cadence (TimingModel::sweep_cycles); a pass whose row completes a
/// window's rows within its frame emits true window scores via the
/// quantized model.
class StreamClassifier : public sim::Module {
 public:
  StreamClassifier(const hog::HogParams& params, const QuantizedModel& model,
                   LevelSize grid, int frames, DataNhogMem& mem);
  void eval() override;
  bool done() const { return swept_rows_ == rows_total_; }
  const std::vector<WindowScore>& scores() const { return scores_; }
  int swept_rows() const { return swept_rows_; }
  std::uint64_t busy_cycles() const { return busy_; }
  /// Cycle at which each frame's last pass finished.
  const std::vector<std::uint64_t>& frame_done_cycles() const {
    return frame_done_cycles_;
  }

 private:
  void run_pass(int row);

  hog::HogParams params_;
  const QuantizedModel& model_;
  LevelSize grid_;
  int rows_total_;
  DataNhogMem& mem_;
  int swept_rows_ = 0;
  std::uint64_t sweep_countdown_ = 0;
  std::uint64_t busy_ = 0;
  std::uint64_t cycle_ = 0;
  std::vector<WindowScore> scores_;
  std::vector<std::uint64_t> frame_done_cycles_;
};

}  // namespace pdet::hwsim
