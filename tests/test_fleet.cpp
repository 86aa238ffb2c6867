// Tests for pdet::fleet: hash-ring stability/balance, the traffic journal
// (round-trip, corruption, seed consistency), the shard router's
// exactly-once in-order delivery (steady state and across a seeded backend
// kill), fleet stats aggregation identities, deterministic journal replay,
// and the conformance table that holds the router and a single service to
// one answer for every misbehaving client.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/fault/injector.hpp"
#include "src/fleet/journal.hpp"
#include "src/fleet/replayer.hpp"
#include "src/fleet/ring.hpp"
#include "src/fleet/router.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"
#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/util/rng.hpp"

namespace pdet::fleet {
namespace {

// --- fixtures ---------------------------------------------------------------

imgproc::ImageF make_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      img.at(x, y) = static_cast<float>(rng.uniform());
    }
  }
  return img;
}

svm::LinearModel make_model(const hog::HogParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (float& w : model.weights) {
    w = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  model.bias = -0.25f;
  return model;
}

net::ServiceOptions shard_options() {
  net::ServiceOptions opts;
  opts.port = 0;  // ephemeral: tests never collide on a fixed port
  opts.runtime.workers = 1;
  opts.runtime.queue_capacity = 8;
  opts.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.runtime.scheduler.max_level = 0;  // assert counts, not shedding
  opts.runtime.multiscale.scales = {1.0, 1.5};
  return opts;
}

/// N identical shards (same model — a fleet serves one fingerprint) plus a
/// router in front of them, torn down in reverse order.
struct Fleet {
  std::vector<std::unique_ptr<net::DetectionService>> shards;
  std::unique_ptr<ShardRouter> router;

  ~Fleet() {
    if (router) router->stop();
    for (auto& s : shards) s->stop();
  }
};

void start_fleet(Fleet& fleet, int shards, RouterOptions ropts = {},
                 const net::ServiceOptions& sopts = shard_options()) {
  const svm::LinearModel model = make_model(sopts.runtime.hog, 77);
  for (int i = 0; i < shards; ++i) {
    fleet.shards.push_back(
        std::make_unique<net::DetectionService>(model, sopts));
    std::string error;
    ASSERT_TRUE(fleet.shards.back()->start(&error)) << error;
    ropts.backends.push_back(
        BackendEndpoint{"127.0.0.1", fleet.shards.back()->port()});
  }
  fleet.router = std::make_unique<ShardRouter>(ropts);
  std::string error;
  ASSERT_TRUE(fleet.router->start(&error)) << error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.router->backends_up() < shards &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fleet.router->backends_up(), shards);
}

bool wait_backends_up(const ShardRouter& router, int want, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (router.backends_up() < want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// --- hash ring --------------------------------------------------------------

TEST(HashRing, RemovalOnlyMovesKeysOfTheLostMember) {
  const int kBackends = 5;
  HashRing ring(kBackends, 64);
  std::vector<bool> all_up(kBackends, true);

  util::Rng rng(99);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back((static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))
                    << 32) ^
                   static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)));
  }

  for (int down = 0; down < kBackends; ++down) {
    std::vector<bool> up = all_up;
    up[static_cast<std::size_t>(down)] = false;
    for (const std::uint64_t key : keys) {
      const int home = ring.lookup_up(key, all_up);
      const int moved = ring.lookup_up(key, up);
      ASSERT_NE(moved, down);
      if (home != down) {
        // Stability: keys not on the lost member keep their shard.
        EXPECT_EQ(moved, home) << "key moved although its shard stayed up";
      }
    }
  }
  // Recovery restores the original placement exactly.
  for (const std::uint64_t key : keys) {
    EXPECT_EQ(ring.lookup_up(key, all_up), ring.lookup(key));
  }
}

TEST(HashRing, VnodesSpreadLoadAcrossBackends) {
  const int kBackends = 4;
  HashRing ring(kBackends, 64);
  std::vector<int> share(kBackends, 0);
  for (int i = 0; i < 8000; ++i) {
    const std::uint64_t key = HashRing::key_for("cam-" + std::to_string(i));
    ++share[static_cast<std::size_t>(ring.lookup(key))];
  }
  for (int b = 0; b < kBackends; ++b) {
    // Perfect balance would be 25%; vnodes keep every shard within a loose
    // band of it (no shard starves, no shard owns half the ring).
    EXPECT_GT(share[static_cast<std::size_t>(b)], 8000 / 10);
    EXPECT_LT(share[static_cast<std::size_t>(b)], 8000 / 2);
  }
}

TEST(HashRing, KeyForIsStableAndDiscriminates) {
  EXPECT_EQ(HashRing::key_for("cam-front"), HashRing::key_for("cam-front"));
  EXPECT_NE(HashRing::key_for("cam-front"), HashRing::key_for("cam-rear"));
  EXPECT_NE(HashRing::key_for("a"), HashRing::key_for("b"));
}

TEST(HashRing, AllDownYieldsNoPlacement) {
  HashRing ring(3, 16);
  const std::vector<bool> none(3, false);
  EXPECT_EQ(ring.lookup_up(42, none), -1);
}

// --- journal ----------------------------------------------------------------

dataset::MultiStreamOptions small_scene() {
  dataset::MultiStreamOptions mopts;
  mopts.scene.width = 96;
  mopts.scene.height = 128;  // scene renderer minimum is 64x128
  mopts.scene.camera.focal_px = 300.0;
  mopts.min_pedestrians = 0;
  mopts.max_pedestrians = 1;
  return mopts;
}

TEST(Journal, RoundTripIsByteIdentical) {
  const Journal journal = capture_journal(4242, small_scene(), 3, 5, 30.0);
  EXPECT_EQ(journal.records.size(), 15u);
  EXPECT_EQ(journal.stream_count(), 3);
  EXPECT_TRUE(journal_seeds_consistent(journal));
  // Interleaved in timestamp order, phases staggered within a period.
  for (std::size_t i = 1; i < journal.records.size(); ++i) {
    EXPECT_GE(journal.records[i].timestamp_us,
              journal.records[i - 1].timestamp_us);
  }

  std::vector<std::uint8_t> bytes;
  encode_journal(journal, bytes);
  Journal decoded;
  std::string error;
  ASSERT_TRUE(decode_journal(bytes, decoded, &error)) << error;
  EXPECT_EQ(decoded.seed, journal.seed);
  ASSERT_EQ(decoded.records.size(), journal.records.size());
  for (std::size_t i = 0; i < journal.records.size(); ++i) {
    EXPECT_EQ(decoded.records[i].stream, journal.records[i].stream);
    EXPECT_EQ(decoded.records[i].frame_index, journal.records[i].frame_index);
    EXPECT_EQ(decoded.records[i].frame_seed, journal.records[i].frame_seed);
    EXPECT_EQ(decoded.records[i].timestamp_us,
              journal.records[i].timestamp_us);
  }
  // Byte-for-byte: re-encoding the decode reproduces the original exactly.
  std::vector<std::uint8_t> bytes_again;
  encode_journal(decoded, bytes_again);
  EXPECT_EQ(bytes, bytes_again);
  EXPECT_TRUE(journal_seeds_consistent(decoded));
}

TEST(Journal, RejectsCorruptionAndTruncation) {
  const Journal journal = capture_journal(7, small_scene(), 2, 3, 25.0);
  std::vector<std::uint8_t> bytes;
  encode_journal(journal, bytes);

  Journal out;
  // Every single-byte flip breaks the CRC (or the magic before it).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x01;
    EXPECT_FALSE(decode_journal(bad, out)) << "byte " << i;
  }
  // Every proper prefix is rejected (CRC or framing).
  for (std::size_t len = 0; len < bytes.size(); len += 5) {
    EXPECT_FALSE(decode_journal(
        std::span<const std::uint8_t>(bytes.data(), len), out))
        << "prefix " << len;
  }
  // Trailing garbage is rejected too.
  std::vector<std::uint8_t> extra = bytes;
  extra.push_back(0);
  EXPECT_FALSE(decode_journal(extra, out));
}

TEST(Journal, SeedConsistencyCatchesTamperedRecords) {
  Journal journal = capture_journal(99, small_scene(), 2, 4, 30.0);
  ASSERT_TRUE(journal_seeds_consistent(journal));
  journal.records[3].frame_seed ^= 1;
  EXPECT_FALSE(journal_seeds_consistent(journal));
}

TEST(Journal, SaveLoadRoundTrip) {
  const Journal journal = capture_journal(11, small_scene(), 2, 3, 30.0);
  const std::string path = testing::TempDir() + "pdet_fleet_journal.bin";
  std::string error;
  ASSERT_TRUE(save_journal(journal, path, &error)) << error;
  Journal loaded;
  ASSERT_TRUE(load_journal(path, loaded, &error)) << error;
  EXPECT_EQ(loaded.seed, journal.seed);
  EXPECT_EQ(loaded.records.size(), journal.records.size());
  EXPECT_TRUE(journal_seeds_consistent(loaded));

  Journal missing;
  EXPECT_FALSE(load_journal(path + ".does-not-exist", missing, &error));
}

// --- router: steady-state delivery ------------------------------------------

TEST(ShardRouter, DeliversExactlyOnceInOrderAcrossShards) {
  Fleet fleet;
  start_fleet(fleet, 2);

  constexpr int kClients = 3;
  constexpr long long kFrames = 12;
  struct ClientOutcome {
    long long received = 0;
    long long missed = 0;
    long long protocol_errors = 0;
    bool in_order = false;
    bool tags_sequential = true;
  };
  std::vector<ClientOutcome> outcomes(kClients);

  std::vector<std::thread> cameras;
  for (int c = 0; c < kClients; ++c) {
    cameras.emplace_back([&, c] {
      net::ClientOptions copts;
      copts.port = fleet.router->port();
      copts.name = "cam-" + std::to_string(c);
      net::Client client(copts);
      ASSERT_TRUE(client.connect()) << client.last_error();
      const imgproc::ImageF frame =
          make_frame(24, 16, static_cast<std::uint64_t>(c) + 1);
      for (long long f = 0; f < kFrames; ++f) {
        ASSERT_TRUE(client.submit(frame)) << client.last_error();
      }
      wire::Result result;
      ClientOutcome& out = outcomes[static_cast<std::size_t>(c)];
      std::uint64_t expect_tag = 0;
      while (client.results_received() + client.results_missed() < kFrames) {
        if (!client.next_result(result, 15000.0)) break;
        // kBlock shards + idle fleet: nothing sheds, tags are gapless.
        if (result.tag != expect_tag++) out.tags_sequential = false;
      }
      out.received = client.results_received();
      out.missed = client.results_missed();
      out.protocol_errors = client.protocol_errors();
      out.in_order = client.in_order();
      client.disconnect();
    });
  }
  for (std::thread& t : cameras) t.join();

  long long total_received = 0;
  for (int c = 0; c < kClients; ++c) {
    const ClientOutcome& out = outcomes[static_cast<std::size_t>(c)];
    EXPECT_TRUE(out.in_order) << "client " << c;
    EXPECT_TRUE(out.tags_sequential) << "client " << c;
    EXPECT_EQ(out.protocol_errors, 0) << "client " << c;
    EXPECT_EQ(out.received, kFrames) << "client " << c;
    EXPECT_EQ(out.missed, 0) << "client " << c;
    total_received += out.received;
  }

  const RouterStats stats = fleet.router->stats();
  EXPECT_EQ(stats.frames_received, kClients * kFrames);
  EXPECT_EQ(stats.frames_forwarded, kClients * kFrames);
  EXPECT_EQ(stats.results_sent, total_received);
  EXPECT_EQ(stats.duplicates_suppressed, 0);
  EXPECT_EQ(stats.decode_errors, 0);
  EXPECT_EQ(stats.backend_sessions_lost, 0);
  long long per_shard_forwarded = 0;
  for (const ShardStats& shard : stats.shards) {
    EXPECT_TRUE(shard.up);
    per_shard_forwarded += shard.frames_forwarded;
  }
  EXPECT_EQ(per_shard_forwarded, stats.frames_forwarded);
}

// --- router: fleet stats aggregation ----------------------------------------

// The aggregation identity (satellite of the merge property test): on a
// quiesced fleet, the router's aggregated StatsReport equals the one merge
// (runtime::merge_runtime_stats) of the per-shard reports queried directly,
// on every row of the stats table.
TEST(ShardRouter, AggregatedStatsMatchPerShardSums) {
  // The shards gate their input, so the guard block has something to sum.
  net::ServiceOptions sopts = shard_options();
  sopts.runtime.guard.enabled = true;
  Fleet fleet;
  start_fleet(fleet, 2, {}, sopts);

  net::ClientOptions copts;
  copts.port = fleet.router->port();
  copts.name = "stats-cam";
  net::Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  // One frame with two dead rows (soft verdict); a frozen run that
  // quarantines the camera; eight live frames that recover it to suspect;
  // a second frozen run that quarantines it again. An exact repeat of the
  // previous frame is ruled unusable.
  imgproc::ImageF soft = make_frame(24, 16, 4);
  for (int x = 0; x < soft.width(); ++x) {
    soft.at(x, 3) = 0.0f;
    soft.at(x, 4) = 0.0f;
  }
  std::vector<imgproc::ImageF> frames{soft};
  frames.insert(frames.end(), 10, make_frame(24, 16, 5));
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    frames.push_back(make_frame(24, 16, seed));
  }
  frames.insert(frames.end(), 7, make_frame(24, 16, 6));
  const auto kFrames = static_cast<long long>(frames.size());
  for (const imgproc::ImageF& frame : frames) {
    ASSERT_TRUE(client.submit(frame));
  }
  wire::Result result;
  while (client.results_received() + client.results_missed() < kFrames) {
    ASSERT_TRUE(client.next_result(result, 15000.0)) << client.last_error();
  }

  // Quiesced: no frames in flight anywhere. Router-aggregated view first.
  wire::StatsReport fleet_report;
  ASSERT_TRUE(client.query_stats(fleet_report, 15000.0))
      << client.last_error();

  // Then each shard directly, folded through the same merge.
  runtime::RuntimeStats merged;
  for (const auto& shard : fleet.shards) {
    net::ClientOptions direct;
    direct.port = shard->port();
    direct.name = "auditor";
    net::Client probe(direct);
    ASSERT_TRUE(probe.connect()) << probe.last_error();
    wire::StatsReport r;
    ASSERT_TRUE(probe.query_stats(r, 15000.0)) << probe.last_error();
    probe.disconnect();
    runtime::merge_runtime_stats(merged, r.runtime);
  }

  // Every row matches, except that the fleet was asked first: its wall
  // clock (kMax) reads no later, and its fps (completions over a shorter
  // wall clock, kRate) no lower, than the direct reports.
  runtime::RuntimeStats::visit(
      [](const runtime::StatField& f, const auto& fleet_value,
         const auto& direct_value) {
        if constexpr (std::is_floating_point_v<
                          std::decay_t<decltype(fleet_value)>>) {
          if (f.kind == runtime::StatKind::kMax) {
            EXPECT_LE(fleet_value, direct_value) << f.name;
            return;
          }
          if (f.kind == runtime::StatKind::kRate) {
            EXPECT_GE(fleet_value, direct_value) << f.name;
            return;
          }
        }
        EXPECT_EQ(fleet_value, direct_value) << f.name;
      },
      fleet_report.runtime, merged);
  // The gate saw what the frames were built to show.
  EXPECT_EQ(merged.guard_soft, 1);
  EXPECT_EQ(merged.guard_unusable, 15);
  EXPECT_EQ(merged.camera_quarantines, 2);
  EXPECT_EQ(merged.camera_recoveries, 1);
  EXPECT_EQ(merged.cameras_suspect, 0);
  EXPECT_EQ(merged.cameras_quarantined, 1);
  // Every frame this test pushed went through the fleet runtime.
  EXPECT_EQ(fleet_report.runtime.submitted, kFrames);
  // The net block is the router's own frontend, not a shard sum.
  EXPECT_EQ(fleet_report.net.frames_received, kFrames);
  EXPECT_EQ(fleet_report.net.results_sent, client.results_received());
  EXPECT_EQ(fleet_report.net.active_connections, 1);

  // Telemetry aggregates too: worst-of health, per-shard labels in the text.
  wire::TelemetryReport telem;
  ASSERT_TRUE(client.query_telemetry(telem, 15000.0)) << client.last_error();
  EXPECT_EQ(telem.health_state, static_cast<std::uint32_t>(merged.health));
  EXPECT_NE(telem.prometheus.find("pdet_fleet_shard 0"), std::string::npos);
  EXPECT_NE(telem.prometheus.find("pdet_fleet_shard 1"), std::string::npos);

  // Its timeline rows against each shard's own report: every percentile is
  // the worst shard's, the timeline counts are the shards' sums.
  wire::TelemetryReport shards;
  for (const auto& shard : fleet.shards) {
    net::ClientOptions direct;
    direct.port = shard->port();
    direct.name = "auditor";
    net::Client probe(direct);
    ASSERT_TRUE(probe.connect()) << probe.last_error();
    wire::TelemetryReport r;
    ASSERT_TRUE(probe.query_telemetry(r, 15000.0)) << probe.last_error();
    probe.disconnect();
    shards.timeline_frames += r.timeline_frames;
    shards.timeline_window += r.timeline_window;
    wire::TelemetryReport::visit(
        [](const obs::Segment&, wire::TelemetryPercentiles& worst,
           const wire::TelemetryPercentiles& p) {
          worst.p50_ms = std::max(worst.p50_ms, p.p50_ms);
          worst.p99_ms = std::max(worst.p99_ms, p.p99_ms);
        },
        shards, r);
  }
  EXPECT_GT(shards.timeline_window, 0u);
  EXPECT_EQ(telem.timeline_frames, shards.timeline_frames);
  EXPECT_EQ(telem.timeline_window, shards.timeline_window);
  int rows = 0;
  wire::TelemetryReport::visit(
      [&rows](const obs::Segment& segment,
              const wire::TelemetryPercentiles& fleet_p,
              const wire::TelemetryPercentiles& worst) {
        ++rows;
        EXPECT_EQ(fleet_p.p50_ms, worst.p50_ms) << segment.name;
        EXPECT_EQ(fleet_p.p99_ms, worst.p99_ms) << segment.name;
      },
      telem, shards);
  EXPECT_EQ(rows, static_cast<int>(wire::kTelemetrySegments));

  client.disconnect();
}

// --- router: seeded backend kill --------------------------------------------

// The chaos path: a seeded fleet.backend.drop severs one shard session mid
// traffic. The router must shed that session's in-flight frames (forward tag
// gaps only), move its streams to ring successors, redial, and return to
// full strength — with every client still strictly in order, no duplicates.
TEST(ShardRouter, SurvivesSeededBackendKillExactlyOnce) {
  Fleet fleet;
  start_fleet(fleet, 2);

  fault::Plan plan;
  plan.seed = 31337;
  // Let the handshakes and the first few results through, then kill one
  // session, once.
  plan.with("fleet.backend.drop", 1.0, /*param=*/0, /*skip=*/8,
            /*max_fires=*/1);
  fault::ScopedPlan armed(plan);

  net::ClientOptions copts;
  copts.port = fleet.router->port();
  copts.name = "chaos-cam";
  net::Client client(copts);
  ASSERT_TRUE(client.connect()) << client.last_error();
  const imgproc::ImageF frame = make_frame(24, 16, 9);

  constexpr long long kFrames = 60;
  long long submitted = 0;
  wire::Result result;
  for (long long f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(client.submit(frame)) << client.last_error();
    ++submitted;
    // Interleave reads so the kill lands while results are flowing.
    while (client.next_result(result, 1.0)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Drain what is still in flight.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.results_received() + client.results_missed() < submitted &&
         std::chrono::steady_clock::now() < drain_deadline) {
    if (!client.next_result(result, 100.0) && !client.connected()) break;
  }

  EXPECT_EQ(fault::Injector::instance().fires("fleet.backend.drop"), 1);

  // Exactly-once, in order: duplicates or reorders would have tripped the
  // client's bookkeeping. Shed frames (the killed session's in-flight) are
  // tag gaps, already counted in results_missed().
  EXPECT_TRUE(client.in_order());
  EXPECT_EQ(client.protocol_errors(), 0);
  EXPECT_LE(client.results_received(), submitted);
  EXPECT_EQ(client.results_received() + client.results_missed(), submitted);

  // The fleet self-heals: the dropped session redials and comes back up.
  EXPECT_TRUE(wait_backends_up(*fleet.router, 2, 10.0));

  const RouterStats stats = fleet.router->stats();
  EXPECT_GE(stats.backend_sessions_lost, 1);
  EXPECT_EQ(stats.duplicates_suppressed, 0);
  EXPECT_EQ(stats.results_sent, client.results_received());
  long long reconnects = 0;
  for (const ShardStats& shard : stats.shards) {
    EXPECT_TRUE(shard.up);
    reconnects += shard.reconnects;
  }
  EXPECT_GE(reconnects, 1);

  client.disconnect();
}

// A router whose every backend is unreachable refuses camera handshakes
// (kBusy) instead of accepting frames it could never serve.
TEST(ShardRouter, RefusesClientsWhileNoBackendIsUp) {
  RouterOptions ropts;
  // A port from the ephemeral range with nothing listening: grab one, then
  // close it so the router dials a dead endpoint.
  std::uint16_t dead_port = 0;
  {
    net::Socket probe = net::Socket::listen_tcp("127.0.0.1", 0, 1);
    ASSERT_TRUE(probe.valid());
    dead_port = probe.local_port();
  }
  ropts.backends.push_back(BackendEndpoint{"127.0.0.1", dead_port});
  ShardRouter router(ropts);
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;
  EXPECT_EQ(router.backends_up(), 0);

  net::ClientOptions copts;
  copts.port = router.port();
  copts.name = "early-cam";
  copts.reconnect_attempts = 1;
  copts.reconnect_base_ms = 5.0;
  copts.reconnect_max_ms = 10.0;
  net::Client client(copts);
  EXPECT_FALSE(client.connect());
  router.stop();
}

// --- replayer ---------------------------------------------------------------

TEST(Replayer, ReplayIsExactlyOnceAndDeterministic) {
  Fleet fleet;
  start_fleet(fleet, 2);

  // 2 cameras x 6 frames at 25 fps, replayed at 4x: ~60 ms of traffic per
  // run, small frames, kBlock shards — nothing sheds, so two replays must
  // observe byte-identical per-stream result sequences.
  const Journal journal = capture_journal(2026, small_scene(), 2, 6, 25.0);

  ReplayOptions ropts;
  ropts.port = fleet.router->port();
  ropts.speed = 4.0;
  ropts.drain_ms = 15000.0;
  ropts.collect_results = true;

  const ReplayReport first = replay_journal(journal, ropts);
  ASSERT_EQ(first.streams.size(), 2u);
  EXPECT_TRUE(first.exactly_once);
  EXPECT_EQ(first.total_submitted, 12);
  EXPECT_EQ(first.total_received, 12);
  EXPECT_EQ(first.total_missed, 0);

  ropts.name_prefix = "replay";  // same names -> same ring placement
  const ReplayReport second = replay_journal(journal, ropts);
  ASSERT_EQ(second.streams.size(), 2u);
  EXPECT_TRUE(second.exactly_once);
  EXPECT_EQ(second.total_received, 12);

  for (std::size_t s = 0; s < first.streams.size(); ++s) {
    EXPECT_FALSE(first.streams[s].result_log.empty());
    EXPECT_EQ(first.streams[s].result_log, second.streams[s].result_log)
        << "stream " << s << " result log diverged between replays";
  }
}

TEST(Replayer, RefusesCorruptJournal) {
  Journal journal = capture_journal(5, small_scene(), 1, 2, 30.0);
  journal.records[0].frame_seed ^= 1;  // tampered
  ReplayOptions ropts;
  ropts.port = 1;  // never dialed
  const ReplayReport report = replay_journal(journal, ropts);
  EXPECT_TRUE(report.streams.empty());
  EXPECT_FALSE(report.exactly_once);
}


// --- one answer from both frontends -------------------------------------------

// A raw client link: frames in and out by hand, so a test can send what the
// net::Client never would.
class RawLink {
 public:
  bool connect(std::uint16_t port) {
    sock_ = net::Socket::connect_tcp("127.0.0.1", port, 2000.0);
    in_.clear();
    return sock_.valid();
  }
  bool send(std::span<const std::uint8_t> bytes, double timeout_ms = 10000.0) {
    std::size_t at = 0;
    while (at < bytes.size()) {
      std::size_t sent = 0;
      const net::IoStatus status =
          net::send_some(sock_.fd(), bytes.subspan(at), sent);
      if (status == net::IoStatus::kOk) {
        at += sent;
      } else if (status != net::IoStatus::kWouldBlock ||
                 !net::wait_writable(sock_.fd(), timeout_ms)) {
        return false;
      }
    }
    return true;
  }
  /// The next message, or false on close / timeout (closed() tells which).
  bool next(wire::Message& msg, double timeout_ms = 10000.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    for (;;) {
      std::size_t consumed = 0;
      const wire::DecodeStatus status = wire::decode_message(in_, msg, consumed);
      if (status == wire::DecodeStatus::kOk) {
        in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return true;
      }
      if (status != wire::DecodeStatus::kNeedMore || closed_ ||
          std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      if (!net::wait_readable(sock_.fd(), 50.0)) continue;
      std::uint8_t chunk[16384];
      std::size_t got = 0;
      const net::IoStatus io = net::recv_some(sock_.fd(), chunk, got);
      if (io == net::IoStatus::kOk) {
        in_.insert(in_.end(), chunk, chunk + got);
      } else if (io != net::IoStatus::kWouldBlock) {
        closed_ = true;  // EOF or reset: the server closed the link
      }
    }
  }
  bool closed() const { return closed_; }
  void close() { sock_.close(); }

 private:
  net::Socket sock_;
  std::vector<std::uint8_t> in_;
  bool closed_ = false;
};

std::vector<std::uint8_t> hello_frame(std::uint32_t version = wire::kProtocolVersion) {
  wire::Hello hello;
  hello.protocol_version = version;
  hello.client_name = "conformance-cam";
  std::vector<std::uint8_t> out;
  wire::encode_hello(hello, out);
  return out;
}

/// The NetStats rows that moved, bytes aside (the router's byte rows count
/// its shard links too), as "row +n" lines.
std::string net_deltas(const runtime::NetStats& before,
                       const runtime::NetStats& after) {
  std::string out;
  runtime::NetStats::visit(
      [&out](const runtime::StatField& f, const auto& a, const auto& b) {
        const std::string_view name(f.name);
        if (name == "bytes_in" || name == "bytes_out" || a == b) return;
        out += std::string(name) + " " +
               std::to_string(static_cast<long long>(b) -
                              static_cast<long long>(a)) +
               "\n";
      },
      before, after);
  return out;
}

/// One frontend under test: where it listens and its NetStats rows.
struct Frontend {
  std::string name;
  std::uint16_t port = 0;
  std::function<runtime::NetStats()> stats;
};

/// What one input got back.
struct Outcome {
  int code = 0;       ///< wire::ErrorCode of the reply, 0 = no Error
  bool open = false;  ///< the link still answered a StatsQuery afterwards
  std::string deltas;
};

enum class Setup { kNone, kHello, kOccupied, kPipelined };

struct Row {
  const char* name;
  Setup setup;
  std::vector<std::uint8_t> input;
  wire::ErrorCode code;  ///< expected reply; kInternal = none
  bool open;             ///< expected
};

constexpr int kPipelined = 2000;

/// Run one row against one frontend (max_clients == 1, idle). The NetStats
/// deltas span the row's whole connection lifecycle: from before its first
/// connect to after its last link is reaped.
Outcome run_row(const Frontend& frontend, const Row& row) {
  Outcome out;
  const runtime::NetStats base = frontend.stats();
  RawLink link;
  RawLink occupant;  // holds the one free link for Setup::kOccupied
  wire::Message msg;
  if (row.setup == Setup::kHello || row.setup == Setup::kOccupied) {
    RawLink& bound = row.setup == Setup::kHello ? link : occupant;
    EXPECT_TRUE(bound.connect(frontend.port)) << row.name;
    EXPECT_TRUE(bound.send(hello_frame()) && bound.next(msg) &&
                msg.type == wire::MsgType::kHelloAck)
        << row.name;
  }
  if (row.setup != Setup::kHello) {
    EXPECT_TRUE(link.connect(frontend.port)) << row.name;
  }
  if (row.setup == Setup::kPipelined) {
    // Queries, alternating stats and telemetry, sent while nothing reads
    // the replies: the backlog must push back, not pile up, and every
    // query must be answered, in order.
    std::vector<std::uint8_t> queries;
    for (int i = 0; i < kPipelined; ++i) {
      if (i % 2 == 0) {
        wire::encode_stats_query(queries);
      } else {
        wire::encode_telemetry_query(queries);
      }
    }
    // The sender may stall once the server stops taking queries; reading,
    // a moment later, frees it.
    std::thread sender(
        [&] { EXPECT_TRUE(link.send(queries, 60000.0)) << row.name; });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    int in_order = 0;
    for (int i = 0; i < kPipelined; ++i) {
      if (!link.next(msg, 30000.0)) break;
      const wire::MsgType want = i % 2 == 0 ? wire::MsgType::kStatsReport
                                            : wire::MsgType::kTelemetryReport;
      if (msg.type == want) ++in_order;
    }
    sender.join();
    EXPECT_EQ(in_order, kPipelined) << frontend.name;
  } else if (link.send(row.input) && link.next(msg) &&
             msg.type == wire::MsgType::kError) {
    out.code = static_cast<int>(msg.error.code);
  }

  // Open or closed: a live link answers a StatsQuery; a closed one ends.
  std::vector<std::uint8_t> probe;
  wire::encode_stats_query(probe);
  (void)link.send(probe);
  out.open = link.next(msg) && msg.type == wire::MsgType::kStatsReport;

  link.close();
  occupant.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (frontend.stats().active_connections != base.active_connections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.deltas = net_deltas(base, frontend.stats());
  return out;
}

// Every misbehaving input gets the same reply code, the same open/closed
// link and the same NetStats movement from a DetectionService as from a
// ShardRouter in front of one: both frontends are one FrameServer core.
TEST(FrontendConformance, MisbehavingClientsGetOneAnswerFromBothFrontends) {
  net::ServiceOptions sopts = shard_options();
  sopts.max_clients = 1;
  const svm::LinearModel model = make_model(sopts.runtime.hog, 78);
  net::DetectionService service(model, sopts);
  ASSERT_TRUE(service.start());

  Fleet fleet;
  RouterOptions ropts;
  ropts.max_clients = 1;
  ropts.buffer_bytes = 64u << 10;  // small: the reply backlog reaches it
  start_fleet(fleet, 1, ropts);

  const std::vector<Frontend> frontends{
      {"service", service.port(), [&] { return runtime::NetStats(service.stats()); }},
      {"router", fleet.router->port(),
       [&] { return runtime::NetStats(fleet.router->stats()); }}};

  std::vector<std::uint8_t> query;
  wire::encode_stats_query(query);
  std::vector<std::uint8_t> bad_magic = query;
  bad_magic[0] ^= 0xFF;
  std::vector<std::uint8_t> bad_crc = query;
  bad_crc[12] ^= 0x01;
  std::vector<std::uint8_t> unknown_type = query;
  unknown_type[5] = 99;
  wire::resign_frame(unknown_type);
  std::vector<std::uint8_t> over_bound = query;
  const std::uint32_t too_long = wire::kMaxPayloadBytes + 1;
  std::memcpy(over_bound.data() + 8, &too_long, 4);  // little-endian host
  wire::resign_frame(over_bound);
  std::vector<std::uint8_t> frame;
  wire::encode_submit_frame(wire::SubmitFrame{7, make_frame(24, 16, 3)}, frame);
  std::vector<std::uint8_t> result;
  wire::encode_result(wire::Result{}, result);
  std::vector<std::uint8_t> zero_dims;
  wire::encode_submit_frame(wire::SubmitFrame{}, zero_dims);
  std::vector<std::uint8_t> shutdown;
  wire::encode_shutdown(shutdown);

  constexpr wire::ErrorCode kNone = wire::ErrorCode::kInternal;
  using wire::ErrorCode;
  const std::vector<Row> rows{
      {"bad magic", Setup::kNone, bad_magic, ErrorCode::kProtocol, false},
      {"bad crc", Setup::kNone, bad_crc, ErrorCode::kProtocol, false},
      {"unknown type", Setup::kNone, unknown_type, ErrorCode::kProtocol, false},
      {"over-bound length", Setup::kNone, over_bound, ErrorCode::kProtocol,
       false},
      {"frame before hello", Setup::kNone, frame, ErrorCode::kProtocol, false},
      {"duplicate hello", Setup::kHello, hello_frame(), ErrorCode::kProtocol,
       false},
      {"wrong version", Setup::kNone, hello_frame(42),
       ErrorCode::kVersionMismatch, false},
      {"server-to-client type", Setup::kHello, result, ErrorCode::kProtocol,
       false},
      {"zero-dimension frame", Setup::kHello, zero_dims, ErrorCode::kBadFrame,
       true},
      {"shutdown before hello", Setup::kNone, shutdown, kNone, false},
      {"beyond the pool", Setup::kOccupied, {}, ErrorCode::kBusy, false},
      {"pipelined queries read late", Setup::kPipelined, {}, kNone, true},
  };
  for (const Row& row : rows) {
    const Outcome s = run_row(frontends[0], row);
    const Outcome r = run_row(frontends[1], row);
    const int want = row.code == kNone ? 0 : static_cast<int>(row.code);
    EXPECT_EQ(s.code, want) << row.name;
    EXPECT_EQ(s.open, row.open) << row.name;
    EXPECT_EQ(r.code, s.code) << row.name;
    EXPECT_EQ(r.open, s.open) << row.name;
    EXPECT_EQ(r.deltas, s.deltas) << row.name;
  }
  // The rows that count a decode error or a rejected frame did.
  EXPECT_EQ(service.stats().decode_errors, 5);
  EXPECT_EQ(service.stats().frames_rejected, 1);
  EXPECT_EQ(service.stats().connections_refused, 1);
  service.stop();
}

}  // namespace
}  // namespace pdet::fleet
