// Tests for pdet::fleet: hash-ring stability/balance, the block arena (pool
// lifecycle, lazily resident slab), the traffic journal (round-trip,
// corruption, seed consistency), the shard router's exactly-once in-order
// delivery (steady state and across a seeded backend kill), fleet stats
// aggregation identities, and deterministic journal replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "src/fault/injector.hpp"
#include "src/fleet/journal.hpp"
#include "src/fleet/replayer.hpp"
#include "src/fleet/ring.hpp"
#include "src/fleet/router.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"
#include "src/util/arena.hpp"
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

// --- block arena ------------------------------------------------------------

TEST(BlockArena, FixedPoolLifecycle) {
  util::BlockArena arena(1024, 4);
  EXPECT_EQ(arena.block_bytes(), 1024u);
  EXPECT_EQ(arena.capacity(), 4u);
  EXPECT_EQ(arena.in_use(), 0u);

  std::vector<std::span<std::uint8_t>> blocks;
  for (int i = 0; i < 4; ++i) {
    auto block = arena.acquire();
    ASSERT_EQ(block.size(), 1024u);
    // Distinct, writable storage.
    block[0] = static_cast<std::uint8_t>(i);
    blocks.push_back(block);
  }
  EXPECT_EQ(arena.in_use(), 4u);
  EXPECT_EQ(arena.high_water(), 4u);

  // Exhaustion is a visible condition, not a malloc.
  EXPECT_TRUE(arena.acquire().empty());

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(blocks[static_cast<std::size_t>(i)][0],
              static_cast<std::uint8_t>(i));
    arena.release(blocks[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 4u);  // high water survives release

  // Released blocks cycle back out.
  auto again = arena.acquire();
  EXPECT_EQ(again.size(), 1024u);
  arena.release(again);
}

TEST(BlockArena, UnwrittenBlockHasNoResidentPages) {
#if !defined(__linux__)
  GTEST_SKIP() << "needs mincore";
#elif defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the TSan allocator zero-fills calloc'd pages";
#else
  // 40 MiB: over glibc's 32 MiB mmap-threshold ceiling, so always mmap-backed.
  constexpr std::size_t kBlockBytes = std::size_t{20} << 20;
  util::BlockArena arena(kBlockBytes, 2);
  const std::span<std::uint8_t> block = arena.acquire();
  ASSERT_EQ(block.size(), kBlockBytes);

  // The whole pages inside the block.
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(block.data());
  const std::uintptr_t first = (begin + page - 1) / page * page;
  const std::uintptr_t last = (begin + block.size()) / page * page;
  std::vector<unsigned char> pages((last - first) / page);
  const auto resident_pages = [&] {
    if (mincore(reinterpret_cast<void*>(first), last - first, pages.data()) !=
        0) {
      return std::ptrdiff_t{-1};
    }
    return std::count_if(pages.begin(), pages.end(),
                         [](unsigned char v) { return (v & 1u) != 0; });
  };

  const std::ptrdiff_t untouched = resident_pages();
  if (untouched < 0) GTEST_SKIP() << "mincore failed";
  // Writing a byte must show as residency, or mincore tells us nothing.
  block[block.size() / 2] = 1;
  if (resident_pages() < 1) {
    GTEST_SKIP() << "mincore does not report residency";
  }
  EXPECT_EQ(untouched, 0);
  EXPECT_EQ(block[0], 0);  // the slab still reads as zeros
  arena.release(block);
#endif
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
  EXPECT_EQ(stats.results_delivered, total_received);
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
  EXPECT_EQ(stats.results_delivered, client.results_received());
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

}  // namespace
}  // namespace pdet::fleet
