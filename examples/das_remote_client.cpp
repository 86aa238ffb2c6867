// Remote camera node: stream synthetic frames to a das_server --listen
// instance and print the in-order detections it returns.
//
//   terminal 1:  $ das_server --listen 7788 --workers 2
//   terminal 2:  $ das_remote_client --port 7788 [--frames 16]
//                                    [--interval-ms 0] [--stream 0]
//
// This is the other half of the deployment picture in PAPERS.md (a detector
// node serving camera feeds over a link): the client renders a
// deterministic synthetic camera feed (dataset::MultiStreamSource — the
// same scenes the in-process demos use), submits each luminance frame over
// the wire protocol, and reads back results, verifying the in-order
// delivery contract as it goes. If the server restarts mid-run, the client
// reconnects with bounded exponential backoff and keeps streaming — watch
// the "reconnects" line in the final summary.
//
// Telemetry (protocol v3): --timelines prints each frame's reconstructed
// client -> engine -> client journey (server hop offsets grafted onto the
// client clock); --prometheus dumps the server's metrics registry in
// Prometheus text exposition after the run; --watch N skips streaming and
// polls the telemetry plane every N seconds instead — a lightweight live
// dashboard for a serving node.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/dataset/multistream.hpp"
#include "src/net/client.hpp"
#include "src/obs/timeline.hpp"
#include "src/runtime/server.hpp"
#include "src/util/cli.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_stop_signal(int) { g_stop = 1; }

const char* status_name(pdet::runtime::FrameStatus status) {
  switch (status) {
    case pdet::runtime::FrameStatus::kOk: return "ok";
    case pdet::runtime::FrameStatus::kDegraded: return "degraded";
    case pdet::runtime::FrameStatus::kDroppedQueue: return "drop:queue";
    case pdet::runtime::FrameStatus::kDroppedDeadline: return "drop:deadline";
    case pdet::runtime::FrameStatus::kError: return "error";
    case pdet::runtime::FrameStatus::kDegradedInput: return "degraded:input";
  }
  return "?";
}

const char* camera_name(std::uint8_t state) {
  switch (state) {
    case 0: return "healthy";
    case 1: return "suspect";
    case 2: return "quarantined";
    default: return "?";
  }
}

/// The server's stats table rows: runtime and net frontend blocks (the
/// guard, tile and fault rows read zero when the server runs without them).
void print_server_stats(const pdet::net::wire::StatsReport& report) {
  pdet::util::Table rows({"server stat", "value"});
  pdet::runtime::add_stats_rows(rows, report.runtime);
  pdet::runtime::add_stats_rows(rows, report.net);
  std::fputs(rows.to_string().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdet;
  util::Cli cli("das_remote_client",
                "stream synthetic camera frames to a remote detector");
  cli.add_string("host", "127.0.0.1", "server address");
  cli.add_int("port", 7788, "server port");
  cli.add_int("frames", 16, "frames to stream");
  cli.add_int("stream", 0, "synthetic camera id (content seed)");
  cli.add_double("interval-ms", 0.0, "frame pacing (0 = flat out)");
  cli.add_int("width", 256, "frame width");
  cli.add_int("height", 192, "frame height");
  cli.add_flag("timelines",
               "print each frame's end-to-end timeline (wire trace grafted "
               "onto the client clock)");
  cli.add_flag("prometheus",
               "dump the server's Prometheus metrics text after the run");
  cli.add_int("watch", 0,
              "poll server telemetry every N seconds instead of streaming "
              "(0 = off)");
  if (!cli.parse(argc, argv)) return 1;
  util::set_default_log_level(util::LogLevel::kWarn);

  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  dataset::MultiStreamOptions mopts;
  mopts.scene.width = cli.get_int("width");
  mopts.scene.height = cli.get_int("height");
  mopts.scene.camera.focal_px = 520.0;
  mopts.min_pedestrians = 0;
  mopts.max_pedestrians = 2;
  const dataset::MultiStreamSource source(2026, mopts);

  net::ClientOptions copts;
  copts.host = cli.get_string("host");
  copts.port = static_cast<std::uint16_t>(cli.get_int("port"));
  copts.name = "das_remote_client";
  net::Client client(copts);
  if (!client.connect()) {
    std::fprintf(stderr, "connect failed: %s\n", client.last_error().c_str());
    return 1;
  }
  const net::wire::HelloAck& info = client.server_info();
  std::printf("connected to %s (model dim %u crc %08x, stream slot %u)\n",
              info.server_name.c_str(), info.model_dim, info.model_crc,
              info.stream_id);

  // Watch mode: no frames, just the telemetry plane on a poll interval.
  const int watch_s = cli.get_int("watch");
  if (watch_s > 0) {
    net::wire::TelemetryReport t;
    net::wire::StatsReport sr;
    while (g_stop == 0) {
      if (!client.query_telemetry(t, 2000.0)) {
        std::fprintf(stderr, "telemetry query failed: %s\n",
                     client.last_error().c_str());
        return 1;
      }
      std::printf("up %8.1fs  health %-8s  timelines %llu (window %u) ",
                  t.uptime_seconds,
                  runtime::to_string(
                      static_cast<runtime::HealthState>(t.health_state)),
                  static_cast<unsigned long long>(t.timeline_frames),
                  t.timeline_window);
      net::wire::TelemetryReport::visit(
          [](const obs::Segment& segment,
             const net::wire::TelemetryPercentiles& p) {
            std::printf(" %s %.2f/%.2f", segment.name,
                        static_cast<double>(p.p50_ms),
                        static_cast<double>(p.p99_ms));
          },
          t);
      std::printf(" ms p50/p99\n");
      if (client.query_stats(sr, 2000.0)) print_server_stats(sr);
      if (cli.get_flag("prometheus")) {
        std::fputs(t.prometheus.c_str(), stdout);
      }
      for (int tick = 0; tick < watch_s * 10 && g_stop == 0; ++tick) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    client.disconnect();
    return 0;
  }

  const bool show_timelines = cli.get_flag("timelines");
  const auto print_result = [&](const net::wire::Result& result) {
    std::printf("#%-3llu %-13s rung %d  %2zu det  total %6.1f ms",
                static_cast<unsigned long long>(result.tag),
                status_name(result.status), result.degrade_level,
                result.detections.size(),
                static_cast<double>(result.total_ms));
    if (result.input_quality != 0 || result.camera_state != 0) {
      std::printf("  [reasons %#x cam %s]",
                  static_cast<unsigned>(result.quality_reasons),
                  camera_name(result.camera_state));
    }
    std::printf("\n");
    obs::FrameTimeline t;
    if (show_timelines && client.last_timeline(t)) {
      std::printf("     %s\n", obs::to_line(t).c_str());
    }
  };

  const int frames = cli.get_int("frames");
  const int stream = cli.get_int("stream");
  const double interval_ms = cli.get_double("interval-ms");
  net::wire::Result result;
  long long shown = 0;
  for (int f = 0; f < frames && g_stop == 0; ++f) {
    const util::Timer pace;
    if (!client.submit(source.frame(stream, f).image)) {
      std::fprintf(stderr, "submit failed: %s\n", client.last_error().c_str());
      return 1;
    }
    // Read whatever has arrived; stay roughly one frame behind the feed.
    while (client.next_result(result, interval_ms > 0.0 ? 1.0 : 0.0)) {
      print_result(result);
      ++shown;
    }
    if (interval_ms > 0.0 && pace.milliseconds() < interval_ms) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          interval_ms - pace.milliseconds()));
    }
  }
  // Drain the tail: every submitted frame owes exactly one result.
  while (shown < client.submitted_on_connection() &&
         client.next_result(result, 5000.0)) {
    print_result(result);
    ++shown;
  }

  net::wire::StatsReport report;
  const bool have_stats = client.query_stats(report, 2000.0);
  std::printf("\n");
  util::Table table({"metric", "value"});
  table.add_row({"frames submitted",
                 std::to_string(client.submitted_on_connection())});
  table.add_row({"results received", std::to_string(client.results_received())});
  table.add_row({"in order", client.in_order() ? "yes" : "NO"});
  table.add_row({"results missed (shed)",
                 std::to_string(client.results_missed())});
  table.add_row({"reconnects", std::to_string(client.reconnects())});
  table.add_row({"protocol errors", std::to_string(client.protocol_errors())});
  net::wire::TelemetryReport telemetry;
  const bool have_telemetry = client.query_telemetry(telemetry, 2000.0);
  if (have_telemetry) {
    table.add_row({"server uptime s",
                   util::to_fixed(telemetry.uptime_seconds, 1)});
    table.add_row(
        {"server timelines (window)",
         std::to_string(telemetry.timeline_frames) + " (" +
             std::to_string(telemetry.timeline_window) + ")"});
    net::wire::TelemetryReport::visit(
        [&table](const obs::Segment& segment,
                 const net::wire::TelemetryPercentiles& p) {
          table.add_row(
              {util::format("server %s ms p50/p99", segment.name),
               util::to_fixed(static_cast<double>(p.p50_ms), 2) + " / " +
                   util::to_fixed(static_cast<double>(p.p99_ms), 2)});
        },
        telemetry);
  }
  std::fputs(table.to_string().c_str(), stdout);
  if (have_stats) {
    std::printf("\n");
    print_server_stats(report);
  }
  if (have_telemetry && cli.get_flag("prometheus")) {
    std::printf("\n");
    std::fputs(telemetry.prometheus.c_str(), stdout);
  }
  client.disconnect();
  return client.in_order() && client.protocol_errors() == 0 ? 0 : 1;
}
