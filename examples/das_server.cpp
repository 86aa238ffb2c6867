// Multi-camera DAS serving demo: N synthetic streams through the runtime,
// or a remote TCP detection service over the same engine pool.
//
//   $ das_server [--streams 3] [--frames 8] [--workers 2] [--queue 8]
//                [--interval-ms 0] [--deadline-ms 0] [--policy drop-oldest]
//   $ das_server --listen 7788 [--max-clients 8] [--workers 2] ...
//   $ das_server --listen 7788 --telemetry --flight-dump /tmp/pdet-flight
//
// A driver-assistance platform rarely has one camera: front, corners and
// mirror-replacement feeds all want the same pedestrian detector. This demo
// stands up a pdet::runtime::DetectionServer over a pool of warm detection
// engines, feeds it N deterministic synthetic camera streams
// (dataset::MultiStreamSource), and prints every in-order delivery plus the
// server's aggregate accounting — throughput, latency percentiles, and how
// the backpressure/degradation machinery behaved. Run with a small --queue
// and --interval-ms 0 to watch load-shedding engage instead of the queue
// growing without bound.
//
// With --listen <port> the same engine pool is exposed over TCP instead
// (pdet::net::DetectionService, wire protocol in src/net/wire.hpp); point
// das_remote_client at it from another terminal or machine. Either mode
// shuts down gracefully on Ctrl-C / SIGTERM: queues drain, in-flight frames
// deliver, and the final stats report prints before exit.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/multistream.hpp"
#include "src/fault/injector.hpp"
#include "src/guard/sensor.hpp"
#include "src/net/service.hpp"
#include "src/obs/report.hpp"
#include "src/runtime/server.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"

namespace {

// Async-signal-safe stop flag: handlers may only set it; the main/producer
// loops poll it and run the normal drain/stop/report path.
volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdet;
  util::Cli cli("das_server", "serve N camera streams from one engine pool");
  cli.add_int("streams", 3, "camera streams");
  cli.add_int("frames", 8, "frames per stream");
  cli.add_int("workers", 2, "detection workers (one warm engine each)");
  cli.add_int("queue", 8, "frame queue capacity");
  cli.add_double("interval-ms", 0.0, "per-stream frame interval (0 = flat out)");
  cli.add_double("deadline-ms", 0.0, "per-frame latency deadline (0 = none)");
  cli.add_string("policy", "drop-oldest",
                 "full-queue policy: block | drop-oldest | drop-newest");
  cli.add_string("backend", "scalar",
                 "scoring backend: scalar | batch | hwsim (MACBAR offload "
                 "model, one shared simulated device)");
  cli.add_int("listen", -1,
              "serve remote clients on this TCP port (0 = ephemeral port, "
              "printed on stdout; omit for local demo mode)");
  cli.add_int("max-clients", 8, "remote mode: concurrent client connections");
  cli.add_int("chaos-seed", 0,
              "arm seeded fault injection across io/runtime (0 = off)");
  cli.add_flag("fault-list",
               "print every registered fault-injection site and exit");
  cli.add_flag("guard",
               "enable the input-integrity gate: per-frame quality verdicts, "
               "camera-health quarantine, tracker coasting on unusable input");
  cli.add_flag("telemetry",
               "enable the live telemetry plane: metrics registry on, "
               "TelemetryQuery answered with Prometheus text");
  cli.add_string("flight-dump", "",
                 "flight-recorder dump path prefix (written on poison frame, "
                 "worker quarantine, or health leaving healthy)");
  cli.add_int("timeline-depth", 64,
              "frame timelines retained per stream (0 disables)");
  obs::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);
  obs::configure_from_cli(cli);
  // --telemetry turns the metrics registry on even without --metrics: a
  // remote TelemetryQuery renders whatever the registry holds.
  if (cli.get_flag("telemetry")) obs::set_metrics_enabled(true);
  if (cli.get_flag("fault-list")) {
    // Introspection: the static site registry plus whatever the armed plan
    // has touched so far (nothing yet at startup — the table is the point).
    std::printf("%-24s %s\n", "site", "what it does when armed");
    for (const fault::SiteDoc& site : fault::registered_sites()) {
      std::printf("%-24s %s\n", site.name, site.what);
    }
    return 0;
  }
  install_signal_handlers();

  // Chaos mode: a deterministic fault schedule across every injection point
  // plus the runtime's watchdog/self-healing machinery. The same seed
  // reproduces the same fault sequence (per-point check counts permitting).
  const int chaos_seed = cli.get_int("chaos-seed");
  const bool guard_on = cli.get_flag("guard");
  if (chaos_seed != 0) {
    fault::Plan plan;
    plan.seed = static_cast<std::uint64_t>(chaos_seed);
    plan.with("net.send.short", 0.02)
        .with("net.send.eintr", 0.02)
        .with("net.recv.short", 0.02)
        .with("net.recv.eintr", 0.02)
        .with("runtime.engine.fault", 0.05)
        .with("runtime.worker.stall", 0.01, /*param=*/120);
    if (guard_on) {
      // With the gate on, also degrade the sensor itself (demo mode runs
      // submitted frames through guard::SensorSimulator below).
      plan.with("sensor.frame.freeze", 0.05)
          .with("sensor.frame.tear", 0.03)
          .with("sensor.rows.dead", 0.03)
          .with("sensor.frame.blackout", 0.02);
    }
    fault::Injector::instance().arm(plan);
    std::printf("chaos: armed fault plan, seed %d\n", chaos_seed);
  }

  runtime::BackpressurePolicy policy = runtime::BackpressurePolicy::kDropOldest;
  const std::string policy_name = cli.get_string("policy");
  if (policy_name == "block") {
    policy = runtime::BackpressurePolicy::kBlock;
  } else if (policy_name == "drop-newest") {
    policy = runtime::BackpressurePolicy::kDropNewest;
  } else if (policy_name != "drop-oldest") {
    std::fprintf(stderr, "unknown --policy %s\n", policy_name.c_str());
    return 1;
  }

  score::BackendKind backend_kind = score::BackendKind::kAuto;
  if (!score::parse_backend(cli.get_string("backend"), backend_kind)) {
    std::fprintf(stderr, "unknown --backend %s (want scalar|batch|hwsim)\n",
                 cli.get_string("backend").c_str());
    return 1;
  }

  // Train once; every worker engine serves the same model (the paper's
  // accelerator stores one parameter set shared by all windows).
  std::printf("training detector...\n");
  core::PedestrianDetector detector;
  detector.train(dataset::make_window_set(616, 250, 500));

  if (cli.get_int("listen") >= 0) {
    // Remote mode: expose the engine pool over TCP and serve until a stop
    // signal arrives; stop() drains in-flight frames and flushes results.
    // --listen 0 binds an ephemeral port (printed below), which is what
    // scripted harnesses and the fleet tooling use to avoid port races.
    net::ServiceOptions sopts;
    sopts.port = static_cast<std::uint16_t>(cli.get_int("listen"));
    sopts.host = "0.0.0.0";
    sopts.max_clients = cli.get_int("max-clients");
    sopts.runtime.workers = cli.get_int("workers");
    sopts.runtime.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue"));
    sopts.runtime.backpressure = policy;
    sopts.runtime.scheduler.deadline_ms = cli.get_double("deadline-ms");
    if (chaos_seed != 0) sopts.runtime.stall_timeout_ms = 60.0;
    sopts.runtime.timeline_depth =
        static_cast<std::size_t>(cli.get_int("timeline-depth"));
    sopts.runtime.flight_dump_path = cli.get_string("flight-dump");
    sopts.runtime.hog = detector.config().hog;
    sopts.runtime.multiscale = detector.config().multiscale;
    sopts.runtime.multiscale.scales = {1.0, 1.26, 1.59, 2.0};
    sopts.runtime.backend = backend_kind;
    sopts.runtime.guard.enabled = guard_on;
    net::DetectionService service(detector.model(), sopts);
    std::string error;
    if (!service.start(&error)) {
      std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
      return 1;
    }
    // The bound port (the ephemeral one when --listen 0) goes to stdout and
    // is flushed immediately so a parent process can scrape it.
    std::printf("serving on port %u (Ctrl-C to stop)...\n",
                static_cast<unsigned>(service.port()));
    std::fflush(stdout);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("\nstopping: draining in-flight frames...\n");
    service.stop();

    const net::ServiceStats stats = service.stats();
    util::Table table({"metric", "value"});
    runtime::add_stats_rows(table, stats);
    runtime::add_stats_rows(table, stats.runtime);
    table.add_row({"request ms p50/p99",
                   util::to_fixed(stats.request_ms.p50, 1) + " / " +
                       util::to_fixed(stats.request_ms.p99, 1)});
    std::fputs(table.to_string().c_str(), stdout);
    service.publish_metrics();
    return obs::report_from_cli(cli) ? 0 : 1;
  }

  const int streams = cli.get_int("streams");
  const int frames = cli.get_int("frames");

  // Deterministic multi-camera content: stream k's frame i is the same scene
  // regardless of how many streams run or which order frames are rendered.
  dataset::MultiStreamOptions mopts;
  mopts.scene.width = 256;
  mopts.scene.height = 192;
  mopts.scene.camera.focal_px = 520.0;
  mopts.min_pedestrians = 0;
  mopts.max_pedestrians = 2;
  const dataset::MultiStreamSource source(2026, mopts);
  std::printf("rendering %d streams x %d frames...\n", streams, frames);
  std::vector<std::vector<imgproc::ImageF>> feed(
      static_cast<std::size_t>(streams));
  for (int s = 0; s < streams; ++s) {
    for (int f = 0; f < frames; ++f) {
      feed[static_cast<std::size_t>(s)].push_back(source.frame(s, f).image);
    }
  }

  runtime::ServerOptions opts;
  opts.workers = cli.get_int("workers");
  opts.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  opts.backpressure = policy;
  opts.scheduler.deadline_ms = cli.get_double("deadline-ms");
  if (chaos_seed != 0) opts.stall_timeout_ms = 60.0;
  opts.timeline_depth = static_cast<std::size_t>(cli.get_int("timeline-depth"));
  opts.flight_dump_path = cli.get_string("flight-dump");
  opts.hog = detector.config().hog;
  opts.multiscale = detector.config().multiscale;
  opts.multiscale.scales = {1.0, 1.26, 1.59, 2.0};
  opts.backend = backend_kind;
  opts.guard.enabled = guard_on;

  runtime::DetectionServer server(detector.model(), opts);
  std::mutex print_mutex;
  for (int s = 0; s < streams; ++s) {
    server.add_stream("cam" + std::to_string(s),
                      [&print_mutex](const runtime::StreamResult& r) {
                        const char* status = "ok";
                        switch (r.status) {
                          case runtime::FrameStatus::kOk: break;
                          case runtime::FrameStatus::kDegraded:
                            status = "degraded"; break;
                          case runtime::FrameStatus::kDroppedQueue:
                            status = "drop:queue"; break;
                          case runtime::FrameStatus::kDroppedDeadline:
                            status = "drop:deadline"; break;
                          case runtime::FrameStatus::kError:
                            status = "error"; break;
                          case runtime::FrameStatus::kDegradedInput:
                            status = "degraded:input"; break;
                        }
                        std::lock_guard<std::mutex> lock(print_mutex);
                        std::printf(
                            "cam%-2d #%-3llu %-13s rung %d  %2zu det  "
                            "wait %6.1f ms  total %6.1f ms\n",
                            r.stream,
                            static_cast<unsigned long long>(r.sequence), status,
                            r.degrade_level, r.detections.size(),
                            r.queue_wait_ms, r.total_ms);
                      });
  }

  server.start();
  const auto interval = std::chrono::duration<double, std::milli>(
      cli.get_double("interval-ms"));
  // With --guard + --chaos-seed, frames pass through the deterministic
  // sensor-fault model on their way in, so the gate has something to catch.
  // Streams are disjoint SensorSimulator slots, so producers stay parallel.
  const bool sensor_chaos = guard_on && chaos_seed != 0;
  guard::SensorSimulator sensor(
      static_cast<std::uint64_t>(chaos_seed != 0 ? chaos_seed : 1), streams);
  std::vector<std::thread> producers;
  for (int s = 0; s < streams; ++s) {
    producers.emplace_back([&, s] {
      auto next = std::chrono::steady_clock::now();
      imgproc::ImageF scratch;
      for (int f = 0; f < frames && g_stop == 0; ++f) {
        const imgproc::ImageF& clean =
            feed[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)];
        const imgproc::ImageF* submit = &clean;
        if (sensor_chaos) {
          scratch = clean;
          sensor.apply(s, static_cast<std::uint64_t>(f), scratch);
          submit = &scratch;
        }
        (void)server.submit(s, *submit);
        if (interval.count() > 0.0) {
          next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              interval);
          std::this_thread::sleep_until(next);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  server.drain();
  server.stop();

  const runtime::RuntimeStats stats = server.stats();
  std::printf("\n");
  util::Table table({"metric", "value"});
  table.add_row({"streams x frames", std::to_string(streams) + " x " +
                                         std::to_string(frames)});
  table.add_row({"workers / queue / policy",
                 std::to_string(opts.workers) + " / " +
                     std::to_string(opts.queue_capacity) + " / " + policy_name});
  runtime::add_stats_rows(table, stats);
  table.add_row({"queue wait ms p50/p99",
                 util::to_fixed(stats.queue_wait_ms.p50, 1) + " / " +
                     util::to_fixed(stats.queue_wait_ms.p99, 1)});
  table.add_row({"service ms p50/p99",
                 util::to_fixed(stats.service_ms.p50, 1) + " / " +
                     util::to_fixed(stats.service_ms.p99, 1)});
  table.add_row({"total ms p50/p99",
                 util::to_fixed(stats.total_latency_ms.p50, 1) + " / " +
                     util::to_fixed(stats.total_latency_ms.p99, 1)});
  std::fputs(table.to_string().c_str(), stdout);

  server.publish_metrics();
  if (!obs::report_from_cli(cli)) return 1;
  // Every submitted frame must have been delivered exactly once — including
  // frames that faulted and were delivered as errors under chaos, and frames
  // the integrity gate short-circuited as unusable input.
  const long long delivered = stats.completed + stats.dropped_queue +
                              stats.dropped_deadline + stats.errors +
                              stats.guard_unusable;
  return delivered == stats.submitted ? 0 : 1;
}
