#include "src/hwsim/streaming.hpp"

#include <algorithm>

#include "src/hwsim/timing.hpp"
#include "src/util/assert.hpp"

namespace pdet::hwsim {

// ----------------------------------------------------------- PixelSource ---

StreamPixelSource::StreamPixelSource(std::span<const imgproc::ImageU8> frames,
                                     sim::Fifo<std::uint8_t>& out)
    : Module("stream_pixel_source"), frames_(frames), out_(out) {}

void StreamPixelSource::eval() {
  if (frame_ == frames_.size()) return;
  PDET_REQUIRE(out_.can_push() &&
               "pixel FIFO overrun: the camera cannot be stalled");
  const imgproc::ImageU8& frame = frames_[frame_];
  out_.push(frame.pixels()[index_]);
  if (++index_ == frame.pixel_count()) {
    index_ = 0;
    ++frame_;
  }
}

// ---------------------------------------------------------- GradientUnit ---

StreamGradientUnit::StreamGradientUnit(const FixedHogPipeline& pipeline,
                                       int width, int height, int frames,
                                       sim::Fifo<std::uint8_t>& in,
                                       sim::Fifo<GradientVote>& out)
    : Module("stream_gradient_unit"),
      pipeline_(pipeline),
      width_(width),
      height_(height),
      in_(in),
      out_(out),
      total_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
             static_cast<std::size_t>(frames)) {
  for (auto& line : lines_) line.assign(static_cast<std::size_t>(width), 0);
}

std::uint8_t StreamGradientUnit::pixel(int x, std::size_t line) const {
  x = std::clamp(x, 0, width_ - 1);
  return lines_[line % 3][static_cast<std::size_t>(x)];
}

GradientVote StreamGradientUnit::vote_at(std::size_t index) const {
  const auto w = static_cast<std::size_t>(width_);
  const auto x = static_cast<int>(index % w);
  const std::size_t line = index / w;
  const auto y = static_cast<int>(line % static_cast<std::size_t>(height_));
  // Border replication within the frame: its first and last rows are their
  // own neighbours, never the adjacent frame's.
  const std::size_t above = y > 0 ? line - 1 : line;
  const std::size_t below = y + 1 < height_ ? line + 1 : line;
  const int dx = static_cast<int>(pixel(x + 1, line)) -
                 static_cast<int>(pixel(x - 1, line));
  const int dy = static_cast<int>(pixel(x, below)) -
                 static_cast<int>(pixel(x, above));
  return pipeline_.vote(x, y, dx, dy);
}

void StreamGradientUnit::eval() {
  const auto w = static_cast<std::size_t>(width_);
  bool active = false;
  // Take one pixel per cycle, but never overwrite a line the lagging emit
  // pointer still reads. A refusal backs up into the source's FIFO.
  if (in_.can_pop() && received_ < emitted_ + 2 * w) {
    lines_[(received_ / w) % 3][received_ % w] = in_.pop();
    ++received_;
    active = true;
  }
  if (emitted_ < total_ && out_.can_push()) {
    // (x, y) needs pixel (x, y+1), which arrives after (x+1, y); a frame's
    // last row needs only the rest of its frame.
    const std::size_t line = emitted_ / w;
    const bool last_row =
        static_cast<int>(line % static_cast<std::size_t>(height_)) ==
        height_ - 1;
    const std::size_t needed =
        last_row ? (line + 1) * w : (line + 1) * w + emitted_ % w + 1;
    if (received_ >= needed) {
      out_.push(vote_at(emitted_));
      ++emitted_;
      active = true;
    }
  }
  if (active) ++busy_;
}

// ------------------------------------------------------- CellAccumulator ---

StreamCellAccumulator::StreamCellAccumulator(const FixedHogPipeline& pipeline,
                                             int width, int height, int frames,
                                             sim::Fifo<GradientVote>& in,
                                             sim::Fifo<CellRowData>& out)
    : Module("stream_cell_accumulator"),
      pipeline_(pipeline),
      cells_x_(width / pipeline.params().cell_size),
      cells_y_(height / pipeline.params().cell_size),
      rows_total_(cells_y_ * frames),
      votes_per_frame_(static_cast<std::size_t>(width) *
                       static_cast<std::size_t>(height)),
      in_(in),
      out_(out) {
  for (auto& b : banks_) {
    b.assign(static_cast<std::size_t>(cells_x_) *
                 static_cast<std::size_t>(pipeline.params().bins),
             0);
  }
}

std::vector<std::int64_t>& StreamCellAccumulator::bank(int row) {
  return banks_[static_cast<std::size_t>(row % 3)];
}

bool StreamCellAccumulator::row_final(int row) const {
  const auto frame = static_cast<std::size_t>(row / cells_y_);
  if (votes_seen_ >= (frame + 1) * votes_per_frame_) return true;
  if (!in_.can_pop()) return false;
  // Cell row c receives its last vote from image row 8c + 11 (bilinear) or
  // 8c + 7 (no spatial interpolation); a vote past that row finalizes it.
  const hog::HogParams& params = pipeline_.params();
  const int spill = params.spatial_interp ? 11 : 7;
  return in_.front().y > (row % cells_y_) * params.cell_size + spill;
}

void StreamCellAccumulator::finalize_row(int row) {
  CellRowData data;
  data.row = row;
  data.hist = bank(row);
  std::fill(bank(row).begin(), bank(row).end(), 0);
  out_.push(std::move(data));
  ++emitted_rows_;
}

void StreamCellAccumulator::eval() {
  if (emitted_rows_ < rows_total_ && row_final(emitted_rows_)) {
    if (!out_.can_push()) return;  // back-pressure stalls the vote stream
    finalize_row(emitted_rows_);
  }
  if (!in_.can_pop()) return;
  const auto frame_row0 =
      static_cast<int>(votes_seen_ / votes_per_frame_) * cells_y_;
  ++votes_seen_;
  pipeline_.deposit(in_.pop(), {cells_x_, cells_y_},
                    [&](int cy) -> std::vector<std::int64_t>& {
                      // Never a row that was already handed off.
                      PDET_ASSERT(frame_row0 + cy >= emitted_rows_);
                      return bank(frame_row0 + cy);
                    });
}

// ------------------------------------------------------------ DataNhogMem --

DataNhogMem::DataNhogMem(int capacity_rows, int cells_x, int bins)
    : capacity_(capacity_rows), cells_x_(cells_x), feature_len_(4 * bins) {
  PDET_REQUIRE(capacity_rows >= 1 && cells_x >= 1);
}

void DataNhogMem::write_row(NormRowData row) {
  PDET_REQUIRE(occupancy() < capacity_ && "DataNhogMem ring overflow");
  PDET_REQUIRE(!has_row(row.row));
  PDET_REQUIRE(row.features.size() ==
               static_cast<std::size_t>(cells_x_) * static_cast<std::size_t>(feature_len_));
  rows_.push_back(std::move(row));
  std::sort(rows_.begin(), rows_.end(),
            [](const NormRowData& a, const NormRowData& b) { return a.row < b.row; });
  max_occupancy_ = std::max(max_occupancy_, occupancy());
}

bool DataNhogMem::has_row(int row) const {
  return std::any_of(rows_.begin(), rows_.end(),
                     [row](const NormRowData& r) { return r.row == row; });
}

void DataNhogMem::evict_below(int row) {
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(),
                             [row](const NormRowData& r) { return r.row < row; }),
              rows_.end());
}

std::span<const std::int32_t> DataNhogMem::read_cell(int row, int cx) {
  PDET_REQUIRE(cx >= 0 && cx < cells_x_);
  for (const auto& r : rows_) {
    if (r.row == row) {
      ++reads_[row % kBanks];
      return std::span<const std::int32_t>(r.features)
          .subspan(static_cast<std::size_t>(cx) * static_cast<std::size_t>(feature_len_),
                   static_cast<std::size_t>(feature_len_));
    }
  }
  PDET_REQUIRE(false && "read of absent NHOGMem row");
  return {};
}

std::uint64_t DataNhogMem::bank_reads(int bank) const {
  PDET_REQUIRE(bank >= 0 && bank < kBanks);
  return reads_[bank];
}

// -------------------------------------------------------- StreamNormalizer -

StreamNormalizer::StreamNormalizer(const FixedHogPipeline& pipeline,
                                   int cells_x, int cells_y, int frames,
                                   sim::Fifo<CellRowData>& in, DataNhogMem& mem)
    : Module("stream_normalizer"),
      pipeline_(pipeline),
      cells_x_(cells_x),
      cells_y_(cells_y),
      rows_total_(cells_y * frames),
      in_(in),
      mem_(mem) {
  const auto group_len =
      static_cast<std::size_t>(pipeline.params().block_feature_len());
  for (auto& groups : group_rows_) {
    groups.assign(static_cast<std::size_t>(group_count(cells_x)) * group_len,
                  0);
  }
}

const std::vector<std::int64_t>& StreamNormalizer::buffered(int row) const {
  const auto it =
      std::find_if(window_.begin(), window_.end(),
                   [row](const CellRowData& w) { return w.row == row; });
  PDET_REQUIRE(it != window_.end() && "normalizer lost a buffered cell row");
  return it->hist;
}

void StreamNormalizer::produce(int row) {
  const auto group_len =
      static_cast<std::size_t>(pipeline_.params().block_feature_len());
  const int local = row % cells_y_;
  if (local < group_count(cells_y_)) {
    // Group row `local` spans this cell row and the next (a one-row frame
    // repeats its row); the following cell row reads it again.
    const auto& top = buffered(row);
    const auto& bottom = buffered(local + 1 < cells_y_ ? row + 1 : row);
    const std::span<std::int32_t> groups(group_rows_[local % 2]);
    for (int bx = 0; bx < group_count(cells_x_); ++bx) {
      pipeline_.normalize_group(
          top, bottom, bx,
          groups.subspan(static_cast<std::size_t>(bx) * group_len, group_len));
    }
  }
  NormRowData out;
  out.row = row;
  out.features.resize(static_cast<std::size_t>(cells_x_) * group_len);
  pipeline_.read_groups(local, cells_y_,
                        group_rows_[group_of(local, 1, cells_y_) % 2],
                        group_rows_[group_of(local, 0, cells_y_) % 2],
                        out.features);
  pending_ = std::move(out);
}

void StreamNormalizer::eval() {
  // The window holds rows r-1, r and r+1 of the next row r's frame (the
  // groups of row r-1 are already kept); a new row is taken only while the
  // window has room for it.
  const int first = std::max(emitted_ - 1, emitted_ - emitted_ % cells_y_);
  while (!window_.empty() && window_.front().row < first) window_.pop_front();
  if (window_.size() < 3 && in_.can_pop()) {
    window_.push_back(in_.pop());
    highest_row_ = window_.back().row;
  }

  if (busy_countdown_ > 0) {
    if (--busy_countdown_ == 0) {
      mem_.write_row(std::move(*pending_));
      pending_.reset();
      ++emitted_;
    }
    return;
  }
  if (emitted_ >= rows_total_) return;
  const int next = emitted_;
  const bool frame_bottom = next % cells_y_ == cells_y_ - 1;
  if (highest_row_ < (frame_bottom ? next : next + 1)) return;
  if (mem_.occupancy() >= mem_.capacity()) return;
  produce(next);
  busy_countdown_ = 2 * cells_x_;
}

// ----------------------------------------------------------- StreamFanout --

StreamFanout::StreamFanout(sim::Fifo<CellRowData>& in,
                           std::vector<sim::Fifo<CellRowData>*> outs)
    : Module("stream_fanout"), in_(in), outs_(std::move(outs)) {
  PDET_REQUIRE(!outs_.empty());
}

void StreamFanout::eval() {
  if (!in_.can_pop()) return;
  for (sim::Fifo<CellRowData>* out : outs_) {
    if (!out->can_push()) return;  // back-pressure from any consumer stalls
  }
  const CellRowData row = in_.pop();
  for (sim::Fifo<CellRowData>* out : outs_) out->push(row);
}

// ------------------------------------------------------- StreamCellScaler --

StreamCellScaler::StreamCellScaler(const FixedHogPipeline& pipeline,
                                   LevelSize src, LevelSize out, int frames,
                                   sim::Fifo<CellRowData>& in,
                                   sim::Fifo<CellRowData>& out_fifo)
    : Module("stream_cell_scaler"),
      bins_(pipeline.params().bins),
      src_(src),
      out_(out),
      rows_total_(out.cells_y * frames),
      xtaps_(scale_taps(out.cells_x, src.cells_x,
                        pipeline.config().scale_frac_bits)),
      ytaps_(scale_taps(out.cells_y, src.cells_y,
                        pipeline.config().scale_frac_bits)),
      in_(in),
      out_fifo_(out_fifo) {}

std::vector<std::int64_t> StreamCellScaler::horizontal_pass(
    const CellRowData& row) const {
  const auto bins = static_cast<std::size_t>(bins_);
  std::vector<std::int64_t> mid(xtaps_.size() * bins);
  const auto src = std::span<const std::int64_t>(row.hist);
  for (std::size_t ox = 0; ox < xtaps_.size(); ++ox) {
    const ScaleTap& t = xtaps_[ox];
    t.blend(src.subspan(static_cast<std::size_t>(t.i0) * bins, bins),
            src.subspan(static_cast<std::size_t>(t.i1) * bins, bins),
            std::span<std::int64_t>(mid).subspan(ox * bins, bins));
  }
  return mid;
}

void StreamCellScaler::eval() {
  // Output row o of frame f reads source rows f * src_.cells_y + its taps.
  const auto src_row0 = [&](int o) { return o / out_.cells_y * src_.cells_y; };
  const auto ytap = [&](int o) -> const ScaleTap& {
    return ytaps_[static_cast<std::size_t>(o % out_.cells_y)];
  };
  if (in_.can_pop()) {
    CellRowData row = in_.pop();
    highest_src_row_ = row.row;
    mid_rows_.emplace_back(row.row, horizontal_pass(row));
    // Prune mid rows no pending output row can still read.
    if (emitted_ < rows_total_) {
      const int min_needed = src_row0(emitted_) + ytap(emitted_).i0;
      while (!mid_rows_.empty() && mid_rows_.front().first < min_needed) {
        mid_rows_.pop_front();
      }
    }
  }

  if (busy_countdown_ > 0) {
    if (--busy_countdown_ == 0) {
      if (!out_fifo_.can_push()) {
        busy_countdown_ = 1;  // hold the result until the FIFO drains
        return;
      }
      out_fifo_.push(std::move(*pending_));
      pending_.reset();
      ++emitted_;
    }
    return;
  }
  if (emitted_ >= rows_total_) return;
  const ScaleTap& ty = ytap(emitted_);
  const int i0 = src_row0(emitted_) + ty.i0;
  const int i1 = src_row0(emitted_) + ty.i1;
  if (highest_src_row_ < i1) return;

  const std::vector<std::int64_t>* mid0 = nullptr;
  const std::vector<std::int64_t>* mid1 = nullptr;
  for (const auto& [idx, mid] : mid_rows_) {
    if (idx == i0) mid0 = &mid;
    if (idx == i1) mid1 = &mid;
  }
  PDET_REQUIRE(mid0 != nullptr && mid1 != nullptr &&
               "scaler pruned a mid row it still needed");
  CellRowData out_row;
  out_row.row = emitted_;
  out_row.hist.resize(mid0->size());
  ty.blend(*mid0, *mid1, out_row.hist);
  pending_ = std::move(out_row);
  busy_countdown_ = 2 * out_.cells_x;
}

// -------------------------------------------------------- StreamClassifier -

StreamClassifier::StreamClassifier(const hog::HogParams& params,
                                   const QuantizedModel& model, LevelSize grid,
                                   int frames, DataNhogMem& mem)
    : Module("stream_classifier"),
      params_(params),
      model_(model),
      grid_(grid),
      rows_total_(grid.cells_y * frames),
      mem_(mem) {
  PDET_REQUIRE(grid.cells_x >= params.cells_per_window_x() &&
               grid.cells_y >= params.cells_per_window_y());
}

void StreamClassifier::run_pass(int row) {
  const int bw = params_.cells_per_window_x();
  const int bh = params_.cells_per_window_y();
  const int local = row % grid_.cells_y;
  if (local >= bh - 1) {
    const int top = row - (bh - 1);
    std::vector<std::int32_t> desc;
    desc.reserve(static_cast<std::size_t>(params_.descriptor_size()));
    for (int cx = 0; cx + bw <= grid_.cells_x; ++cx) {
      desc.clear();
      for (int j = 0; j < bh; ++j) {
        for (int i = 0; i < bw; ++i) {
          const auto f = mem_.read_cell(top + j, cx + i);
          desc.insert(desc.end(), f.begin(), f.end());
        }
      }
      scores_.push_back({row / grid_.cells_y, cx, local - (bh - 1),
                         model_.decision(desc)});
    }
  }
  // Rows above the next pass's window are dead. Windows never span frames,
  // so a frame's last pass frees the whole frame.
  const int next_local = (row + 1) % grid_.cells_y;
  mem_.evict_below(row + 1 - std::min(next_local, bh - 1));
  if (local == grid_.cells_y - 1) frame_done_cycles_.push_back(cycle_);
}

void StreamClassifier::eval() {
  ++cycle_;
  if (done()) return;
  if (sweep_countdown_ > 0) {
    ++busy_;
    if (--sweep_countdown_ == 0) {
      run_pass(swept_rows_);
      ++swept_rows_;
    }
    return;
  }
  if (mem_.has_row(swept_rows_)) {
    sweep_countdown_ = TimingModel::sweep_cycles(grid_.cells_x);
  }
}

}  // namespace pdet::hwsim
