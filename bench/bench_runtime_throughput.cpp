// Serving-runtime throughput: aggregate fps / latency / drops vs streams.
//
// The paper's system argument is a *serving* argument — the accelerator is
// worth building because it sustains camera rate with a bounded worst case.
// This bench asks the same question of the host runtime: N paced camera
// streams (fixed per-stream frame interval, the offered load of a real DAS
// camera rig) are pushed through a DetectionServer, and we measure aggregate
// throughput, queue-wait/total-latency percentiles and the drop rate as the
// stream count grows. One stream leaves the engine pool mostly idle; more
// streams fill it — so aggregate fps must scale with stream count until the
// pool saturates (worker parallelism extends the saturation point on
// multicore hosts; on a single core the pacing idle time alone provides the
// headroom). A final deliberately-overloaded configuration shows the
// load-shedding path: bounded queue, degradation ladder and drop accounting
// instead of unbounded backlog.
//
// Also verifies the runtime's allocation discipline end to end with a global
// operator-new counter: after a warmup pass, submit -> queue -> engine ->
// in-order delivery must run allocation-free (the engine's zero-allocation
// steady state, preserved by the layers the runtime adds on top), with the
// input gate and the stream tracker it feeds off and on.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/multistream.hpp"
#include "src/detect/engine.hpp"
#include "src/fault/injector.hpp"
#include "src/obs/report.hpp"
#include "src/runtime/server.hpp"
#include "src/score/backend.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

// Ground-truth heap accounting (same pattern as bench_frame_detection): the
// steady-state section measures what the runtime actually allocates.
namespace {
std::atomic<long long> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pdet;

struct RunConfig {
  int streams = 1;
  int workers = 1;
  int frames_per_stream = 8;
  double interval_ms = 0.0;  ///< per-stream pacing; 0 = submit flat out
  std::size_t queue_capacity = 16;
  runtime::BackpressurePolicy policy = runtime::BackpressurePolicy::kBlock;
  double deadline_ms = 0.0;
  int max_level = 3;  ///< scheduler ladder ceiling (0 = never degrade/skip)
  score::BackendKind backend = score::BackendKind::kScalar;
};

/// Pre-rendered frames, one small rotation per stream (a camera loop).
using Feed = std::vector<std::vector<imgproc::ImageF>>;

runtime::RuntimeStats run_server(const svm::LinearModel& model,
                                 const hog::HogParams& hog,
                                 const detect::MultiscaleOptions& multiscale,
                                 const Feed& feed, const RunConfig& cfg) {
  runtime::ServerOptions opts;
  opts.workers = cfg.workers;
  opts.queue_capacity = cfg.queue_capacity;
  opts.backpressure = cfg.policy;
  opts.scheduler.deadline_ms = cfg.deadline_ms;
  opts.scheduler.max_level = cfg.max_level;
  opts.backend = cfg.backend;
  opts.hog = hog;
  opts.multiscale = multiscale;
  runtime::DetectionServer server(model, opts);
  for (int s = 0; s < cfg.streams; ++s) {
    server.add_stream("cam" + std::to_string(s), nullptr);
  }
  server.start();
  std::vector<std::thread> producers;
  for (int s = 0; s < cfg.streams; ++s) {
    producers.emplace_back([&, s] {
      const auto& pool = feed[static_cast<std::size_t>(s)];
      const auto interval =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(cfg.interval_ms));
      auto next = std::chrono::steady_clock::now();
      for (int f = 0; f < cfg.frames_per_stream; ++f) {
        (void)server.submit(s, pool[static_cast<std::size_t>(f) % pool.size()]);
        if (cfg.interval_ms > 0.0) {
          next += interval;
          std::this_thread::sleep_until(next);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  server.drain();
  server.stop();
  return server.stats();
}

double drop_rate(const runtime::RuntimeStats& s) {
  return s.submitted > 0
             ? static_cast<double>(s.dropped_queue + s.dropped_deadline) /
                   static_cast<double>(s.submitted)
             : 0.0;
}

/// The reference the window kernel is pinned to, as a backend: each window
/// read out through the batch's accessor and scored by
/// LinearModel::decision, one serial dot product per window.
class DecisionBackend final : public score::BackendBase {
 public:
  score::BackendKind kind() const override {
    return score::BackendKind::kScalar;
  }

 protected:
  void kernel(const svm::LinearModel& model, score::ScoreBatch& batch) override {
    thread_local std::vector<float> row;
    row.resize(batch.dimension());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch.window(i, row);
      batch.set_score(i, model.decision(row));
    }
  }
};

/// Aggregate fps of `streams` cameras served flat out by `workers` engines
/// that all call `backend` directly, as the server's engines do. Worker w
/// serves streams w, w + workers, ... in turn.
double engine_pool_fps(const svm::LinearModel& model,
                       const hog::HogParams& hog,
                       const detect::MultiscaleOptions& multiscale,
                       const Feed& feed, int streams, int workers,
                       int frames_per_stream, score::ScoringBackend& backend) {
  const util::Timer timer;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      detect::DetectionEngine engine(
          detect::EngineOptions{.scorer = &backend});
      for (int f = 0; f < frames_per_stream; ++f) {
        for (int s = w; s < streams; s += workers) {
          const auto& pool = feed[static_cast<std::size_t>(s)];
          engine.process(pool[static_cast<std::size_t>(f) % pool.size()], hog,
                         model, multiscale);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(streams) * frames_per_stream / timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_runtime_throughput",
                "aggregate fps / latency / drops vs stream count");
  cli.add_int("frames", 10, "frames per stream per configuration");
  cli.add_int("pool", 4, "distinct frames per stream (cycled)");
  cli.add_string("backend", "scalar",
                 "scoring backend for the main sections: scalar | batch | "
                 "hwsim (the batch-fill table and the kernel gate always run "
                 "the CPU kernel)");
  obs::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  score::BackendKind backend = score::BackendKind::kScalar;
  if (!score::parse_backend(cli.get_string("backend"), backend)) {
    std::fprintf(stderr, "unknown --backend %s (want scalar|batch|hwsim)\n",
                 cli.get_string("backend").c_str());
    return 1;
  }
  util::set_default_log_level(util::LogLevel::kWarn);
  obs::configure_from_cli(cli);
  obs::set_metrics_enabled(true);
  util::Timer timer;

  std::printf("training detector...\n");
  core::PedestrianDetector detector;
  detector.train(dataset::make_window_set(71, 250, 500));
  const hog::HogParams hog = detector.config().hog;
  detect::MultiscaleOptions multiscale = detector.config().multiscale;
  multiscale.scales = {1.0, 1.26, 1.59, 2.0};

  dataset::MultiStreamOptions mopts;
  mopts.scene.width = 256;
  mopts.scene.height = 192;
  mopts.scene.camera.focal_px = 520.0;
  const dataset::MultiStreamSource source(404, mopts);
  constexpr int kMaxStreams = 8;
  const int pool_frames = cli.get_int("pool");
  Feed feed(static_cast<std::size_t>(kMaxStreams));
  for (int s = 0; s < kMaxStreams; ++s) {
    for (int f = 0; f < pool_frames; ++f) {
      feed[static_cast<std::size_t>(s)].push_back(source.frame(s, f).image);
    }
  }

  // Calibrate per-frame service time on this host, then pace each camera at
  // 6x that: one stream uses ~1/6 of one worker's capacity, four streams
  // ~2/3 — loaded enough to measure, lossless by construction.
  RunConfig calib;
  calib.frames_per_stream = 4;
  calib.backend = backend;
  const runtime::RuntimeStats warm =
      run_server(detector.model(), hog, multiscale, feed, calib);
  const double service_ms = warm.service_ms.p50 > 0.0 ? warm.service_ms.p50 : 1.0;
  const double interval_ms = 6.0 * service_ms;
  std::printf("calibration: service p50 %.1f ms -> camera interval %.1f ms "
              "(%u hardware thread%s)\n\n",
              service_ms, interval_ms, std::thread::hardware_concurrency(),
              std::thread::hardware_concurrency() == 1 ? "" : "s");

  // --- aggregate throughput vs stream count (lossless: kBlock, no deadline) --
  const int frames = cli.get_int("frames");
  util::Table table({"streams", "workers", "aggregate fps", "wait p50/p99 ms",
                     "total p50/p99 ms", "drop %"});
  double fps_1x1 = 0.0;
  double fps_4x4 = 0.0;
  bool lossless_clean = true;
  for (const int n : {1, 2, 4}) {
    RunConfig cfg;
    cfg.streams = n;
    cfg.workers = n;
    cfg.frames_per_stream = frames;
    cfg.interval_ms = interval_ms;
    cfg.backend = backend;
    const runtime::RuntimeStats s =
        run_server(detector.model(), hog, multiscale, feed, cfg);
    if (n == 1) fps_1x1 = s.aggregate_fps;
    if (n == 4) fps_4x4 = s.aggregate_fps;
    lossless_clean = lossless_clean && drop_rate(s) == 0.0 &&
                     s.completed == s.submitted && s.degraded == 0;
    table.add_row(
        {std::to_string(n), std::to_string(n),
         util::to_fixed(s.aggregate_fps, 1),
         util::to_fixed(s.queue_wait_ms.p50, 1) + " / " +
             util::to_fixed(s.queue_wait_ms.p99, 1),
         util::to_fixed(s.total_latency_ms.p50, 1) + " / " +
             util::to_fixed(s.total_latency_ms.p99, 1),
         util::to_fixed(100.0 * drop_rate(s), 1)});
    const std::string prefix = "runtime.bench.streams_" + std::to_string(n);
    obs::gauge_set(prefix + ".aggregate_fps", s.aggregate_fps);
    obs::gauge_set(prefix + ".total_ms_p50", s.total_latency_ms.p50);
    obs::gauge_set(prefix + ".total_ms_p99", s.total_latency_ms.p99);
    obs::gauge_set(prefix + ".drop_rate", drop_rate(s));
  }
  std::fputs(table.to_string().c_str(), stdout);
  const double scaling = fps_1x1 > 0.0 ? fps_4x4 / fps_1x1 : 0.0;
  obs::gauge_set("runtime.bench.scaling_4v1", scaling);
  std::printf("\naggregate scaling 4 streams/4 workers vs 1/1: %.2fx "
              "(expected >= 1.5x; drops in lossless mode: %s)\n",
              scaling, lossless_clean ? "none" : "UNEXPECTED");


  // --- batch fill, flat out ---
  // Every stream submits flat out (interval 0, kBlock, no deadline) so every
  // engine scores concurrently through the server's one backend; "mean
  // fill" is the server's windows per unit of batch capacity
  // (RuntimeStats::score_fill). `scalar` and `batch` name the same window
  // kernel, so one row per stream count covers both.
  std::printf("\n--- batch fill (flat out, block) ---\n");
  // A dense 12% scale ladder: the feature pyramid makes the extra levels
  // cheap to *build* (cell-grid downscale, no re-extraction) but every level
  // still pays full window-scanning cost — exactly the regime the paper's
  // accelerator targets, and the one where window scoring is the bottleneck.
  detect::MultiscaleOptions fill_ms = multiscale;
  fill_ms.scales = {1.0, 1.12, 1.26, 1.41, 1.59, 1.78, 2.0};
  util::Table fill_table({"streams", "aggregate fps", "total p99 ms",
                          "batches", "mean fill"});
  bool batch_exactly_once = true;
  for (const int n : {1, 2, 4, 8}) {
    RunConfig cfg;
    cfg.streams = n;
    cfg.workers = n;
    cfg.frames_per_stream = 3 * frames;
    cfg.interval_ms = 0.0;
    cfg.max_level = 0;  // lossless: every frame full-pyramid, none skipped
    cfg.backend = score::BackendKind::kBatch;
    // Best of two runs per cell: flat-out scheduling on a loaded host is
    // noisy.
    runtime::RuntimeStats s =
        run_server(detector.model(), hog, fill_ms, feed, cfg);
    const runtime::RuntimeStats s2 =
        run_server(detector.model(), hog, fill_ms, feed, cfg);
    batch_exactly_once = batch_exactly_once && s.completed == s.submitted &&
                         s2.completed == s2.submitted &&
                         drop_rate(s) == 0.0 && drop_rate(s2) == 0.0;
    if (s2.aggregate_fps > s.aggregate_fps) s = s2;
    fill_table.add_row({std::to_string(n), util::to_fixed(s.aggregate_fps, 1),
                        util::to_fixed(s.total_latency_ms.p99, 1),
                        std::to_string(s.score_batches),
                        util::to_fixed(s.score_fill, 2)});
    const std::string prefix =
        "runtime.bench.fill.streams_" + std::to_string(n);
    obs::gauge_set(prefix + ".aggregate_fps", s.aggregate_fps);
    obs::gauge_set(prefix + ".mean_fill", s.score_fill);
  }
  std::fputs(fill_table.to_string().c_str(), stdout);

  // The kernel's acceptance gate: scoring windows in place must buy >= 2x
  // aggregate fps at 4 streams over the per-window reference it is pinned
  // to (DecisionBackend: accessor + LinearModel::decision). A single fps
  // sample on a busy host swings by 20%+, so the gate is the *median of
  // paired ratios*: each pair runs the reference then the kernel back to
  // back (sharing the same host noise epoch) and contributes one ratio. The
  // runtime server builds its own backend, so the pairs drive a bare engine
  // pool that shares one backend the same way instead.
  std::vector<double> ratios;
  obs::set_metrics_enabled(false);
  for (int pair = 0; pair < 5; ++pair) {
    DecisionBackend reference;
    const std::unique_ptr<score::ScoringBackend> kernel =
        score::make_backend(score::BackendKind::kBatch);
    const double ref_fps =
        engine_pool_fps(detector.model(), hog, fill_ms, feed, /*streams=*/4,
                        /*workers=*/2, 3 * frames, reference);
    const double kernel_fps =
        engine_pool_fps(detector.model(), hog, fill_ms, feed, /*streams=*/4,
                        /*workers=*/2, 3 * frames, *kernel);
    if (ref_fps > 0.0) ratios.push_back(kernel_fps / ref_fps);
  }
  obs::set_metrics_enabled(true);
  std::sort(ratios.begin(), ratios.end());
  const double batch_gain =
      ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  obs::gauge_set("runtime.bench.batch_gain_4", batch_gain);
  std::printf("\nwindow kernel gain over per-window decision at 4 streams: "
              "%.2fx median of %zu paired runs (gate >= 2x; exactly-once in "
              "all cells: %s)\n",
              batch_gain, ratios.size(), batch_exactly_once ? "yes" : "NO");

  // --- overload: offered load past capacity, shedding instead of backlog ---
  RunConfig over;
  over.streams = 4;
  over.workers = 1;
  over.frames_per_stream = frames;
  over.interval_ms = 0.25 * service_ms;  // ~16x one worker's capacity
  over.backend = backend;
  over.queue_capacity = 4;
  over.policy = runtime::BackpressurePolicy::kDropOldest;
  const runtime::RuntimeStats ov =
      run_server(detector.model(), hog, multiscale, feed, over);
  std::printf("\noverload (4 streams -> 1 worker, queue 4, drop-oldest):\n"
              "  submitted %lld  ok %lld  degraded %lld  dropped queue %lld"
              "  deadline %lld  (drop rate %.0f%%)\n",
              ov.submitted, ov.ok, ov.degraded, ov.dropped_queue,
              ov.dropped_deadline, 100.0 * drop_rate(ov));
  obs::gauge_set("runtime.bench.overload.drop_rate", drop_rate(ov));
  obs::gauge_set("runtime.bench.overload.degraded",
                 static_cast<double>(ov.degraded));
  const bool overload_shed = ov.dropped_queue + ov.degraded +
                                 ov.dropped_deadline > 0 &&
                             ov.completed + ov.dropped_queue +
                                     ov.dropped_deadline == ov.submitted;
  std::printf("  shedding engaged with exactly-once delivery: %s\n",
              overload_shed ? "yes" : "NO");

  // --- allocation steady state across the whole runtime path ---
  // Run two warmup passes (sizing every slot, workspace and reorder buffer),
  // then count operator-new calls over a third pass through the same
  // server. obs stays on: the server's own accounting must be
  // allocation-free too. The second configuration turns the input gate on,
  // which also feeds each stream's tracker at every in-order delivery.
  const int steady_frames = 2 * frames;
  long long steady_allocs = 0;
  for (const bool guard : {false, true}) {
    runtime::ServerOptions aopts;
    aopts.workers = 1;
    aopts.queue_capacity = 8;
    aopts.backpressure = runtime::BackpressurePolicy::kBlock;
    aopts.backend = backend;
    aopts.hog = hog;
    aopts.multiscale = multiscale;
    aopts.guard.enabled = guard;
    runtime::DetectionServer server(detector.model(), aopts);
    for (int s = 0; s < 2; ++s) {
      server.add_stream("cam" + std::to_string(s), nullptr);
    }
    server.start();
    const auto pass = [&] {
      for (int f = 0; f < frames; ++f) {
        for (int s = 0; s < 2; ++s) {
          (void)server.submit(
              s, feed[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(f) %
                      feed[static_cast<std::size_t>(s)].size()]);
        }
      }
      server.drain();
    };
    pass();  // warmup: every buffer reaches its high-water mark
    pass();
    const long long before = g_heap_allocs.load();
    pass();
    const long long allocs = g_heap_allocs.load() - before;
    server.stop();
    std::printf("\nallocation steady state, guard %s: %lld heap allocations "
                "across %d warm frames — expected 0\n",
                guard ? "on" : "off", allocs, steady_frames);
    steady_allocs += allocs;
  }
  obs::gauge_set("runtime.bench.steady_allocs_per_frame",
                 static_cast<double>(steady_allocs) /
                     static_cast<double>(2 * steady_frames));

  // --- fault accounting spot check ---
  // Dashboards scraping this bench's metrics JSON alert on the same four
  // fields the serving stack exports live (runtime.health, worker faults,
  // poison frames, time-to-healthy), so exercise them for real: a short
  // armed window of engine exceptions, then clean frames until the health
  // state machine reports kHealthy again.
  runtime::ServerOptions fopts;
  fopts.workers = 1;
  fopts.queue_capacity = 8;
  fopts.backpressure = runtime::BackpressurePolicy::kBlock;
  fopts.backend = backend;
  fopts.hog = hog;
  fopts.multiscale = multiscale;
  fopts.recovery_frames = 4;
  runtime::DetectionServer fserver(detector.model(), fopts);
  fserver.add_stream("cam-fault", nullptr);
  fserver.start();
  {
    fault::Plan plan;
    plan.seed = 404;
    plan.with("runtime.engine.fault", 0.5);
    fault::ScopedPlan armed(plan);
    for (int f = 0; f < 16; ++f) {
      (void)fserver.submit(0, feed[0][static_cast<std::size_t>(f) %
                                      feed[0].size()]);
    }
    fserver.drain();
  }
  util::Timer heal;
  double time_to_healthy_ms = -1.0;  // -1 = did not recover within budget
  for (int f = 0; f < 64; ++f) {
    if (fserver.health() == runtime::HealthState::kHealthy) {
      time_to_healthy_ms = heal.milliseconds();
      break;
    }
    (void)fserver.submit(0, feed[0][static_cast<std::size_t>(f) %
                                    feed[0].size()]);
    fserver.drain();
  }
  const runtime::HealthState final_health = fserver.health();
  fserver.stop();
  const runtime::RuntimeStats fstats = fserver.stats();
  std::printf("\nfault spot check: %lld worker faults, %lld poison frames, "
              "health %s, time to healthy %.1f ms\n",
              fstats.worker_faults, fstats.poison_frames,
              runtime::to_string(final_health), time_to_healthy_ms);
  obs::gauge_set("runtime.health", static_cast<double>(final_health));
  obs::gauge_set("runtime.bench.worker_faults",
                 static_cast<double>(fstats.worker_faults));
  obs::gauge_set("runtime.bench.poison_frames",
                 static_cast<double>(fstats.poison_frames));
  obs::gauge_set("runtime.bench.time_to_healthy_ms", time_to_healthy_ms);
  const bool fault_recovered =
      fstats.worker_faults > 0 && final_health == runtime::HealthState::kHealthy;

  std::printf("elapsed: %.1f s\n", timer.seconds());
  if (!obs::report_from_cli(cli)) return 1;
  if (cli.get_string("metrics-out").empty()) {
    const char* path = "bench_runtime_throughput_metrics.json";
    if (!obs::write_file(path, obs::Registry::instance().to_json())) return 1;
    std::printf("metrics JSON written to %s\n", path);
  }
  const bool pass_ok = scaling >= 1.5 && lossless_clean && overload_shed &&
                       steady_allocs == 0 && fault_recovered &&
                       batch_gain >= 2.0 && batch_exactly_once;
  return pass_ok ? 0 : 1;
}
