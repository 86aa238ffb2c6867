#include "src/fleet/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/fault/injector.hpp"
#include "src/util/assert.hpp"
#include "src/util/fifo.hpp"

namespace pdet::fleet {
namespace {

using Clock = std::chrono::steady_clock;

/// Initial per-shard in-flight FIFO capacity: generous, so the steady state
/// stays allocation-free (the FIFO grows if it is ever exceeded).
constexpr std::size_t kInflightCapacity = 1024;

/// One frame in flight to a shard, in session-tag order.
struct InFlight {
  std::uint64_t tag = 0;         ///< router tag on the shard session
  std::uint64_t client_tag = 0;  ///< original tag, restored on the result
  int link = -1;                 ///< client link id
  std::uint32_t generation = 0;  ///< client link generation at submit
};

/// One fleet query awaiting a shard's report.
struct QueryRef {
  int link = -1;
  std::uint32_t generation = 0;
  bool telemetry = false;
};

}  // namespace

/// Per-camera state of one bound client link.
struct ShardRouter::Stream {
  std::uint64_t ring_key = 0;
  int backend = -1;      ///< current shard, -1 while none is up
  int move_target = -1;  ///< >= 0: draining toward this shard
  long long inflight = 0;
  std::uint64_t next_sequence = 1;  ///< strictly increasing per connection

  // The link's one fleet query in progress; its input is held meanwhile.
  bool querying = false;
  bool telemetry = false;
  int awaiting = 0;  ///< shard reports still outstanding
  wire::StatsReport stats;
  wire::TelemetryReport telem;
};

struct ShardRouter::Backend {
  enum class State { kDown, kHello, kUp };

  BackendEndpoint endpoint;
  net::Link* link = nullptr;  ///< the session link
  State state = State::kDown;
  bool ever_up = false;
  net::BackoffSchedule backoff;
  Clock::time_point retry_at{};

  std::uint64_t next_tag = 0;
  util::Fifo<InFlight> inflight;
  wire::HelloAck ack;
  /// Fleet queries sent on this session, in order (the session's wire
  /// ordering pairs each report with the oldest).
  util::Fifo<QueryRef> queries;
};

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)),
      ring_(static_cast<int>(std::max<std::size_t>(options_.backends.size(), 1)),
            options_.vnodes),
      server_({.host = options_.host,
               .port = options_.port,
               .max_clients = options_.max_clients,
               .rx_bytes = options_.buffer_bytes,
               .tx_bytes = options_.buffer_bytes,
               .flush_timeout_ms = options_.flush_timeout_ms},
              *this, stats_mutex_, counters_) {
  PDET_REQUIRE(!options_.backends.empty());
  PDET_REQUIRE(options_.buffer_bytes >= 4 * wire::kHeaderSize);

  streams_.resize(static_cast<std::size_t>(options_.max_clients));
  up_.assign(options_.backends.size(), false);

  const std::uint64_t base_seed = options_.reconnect.seed != 0
                                      ? options_.reconnect.seed
                                      : HashRing::key_for(options_.name);
  backends_.resize(options_.backends.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    Backend& be = backends_[b];
    be.endpoint = options_.backends[b];
    net::BackoffPolicy policy = options_.reconnect;
    // A router never abandons a shard; decorrelate the per-shard jitter
    // streams so a fleet-wide backend restart cannot redial in lockstep.
    policy.attempts = 1 << 30;
    policy.seed = base_seed + 0x9e3779b97f4a7c15ULL * (b + 1);
    be.backoff = net::BackoffSchedule(policy);
    be.inflight.reset(kInflightCapacity);
    be.queries.reset(static_cast<std::size_t>(options_.max_clients));
    be.link = &server_.add_session(options_.buffer_bytes, options_.buffer_bytes);
  }
  enc_.reserve(1 << 16);
  counters_.shards.resize(backends_.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    counters_.shards[b].endpoint = backends_[b].endpoint.host + ":" +
                                   std::to_string(backends_[b].endpoint.port);
  }
}

ShardRouter::~ShardRouter() { stop(); }

int ShardRouter::backends_up() const {
  return backends_up_.load(std::memory_order_acquire);
}

int ShardRouter::ring_backend_for(std::uint64_t key) const {
  return ring_.lookup_up(key, up_);
}

ShardRouter::Stream* ShardRouter::owner(int id, std::uint32_t generation) {
  return server_.client(id).generation() == generation
             ? &streams_[static_cast<std::size_t>(id)]
             : nullptr;  // the link was released since
}

// ----------------------------------------------------------------- clients

const char* ShardRouter::bind(net::Link& link, const wire::Hello& hello,
                              wire::HelloAck& ack) {
  // The fleet's model fingerprint comes from the shards; before any shard
  // handshake there is nothing truthful to advertise.
  if (!have_ack_) return "no backend available";
  Stream& stream = streams_[static_cast<std::size_t>(link.id())];
  stream.ring_key = HashRing::key_for(hello.client_name);
  stream.backend = ring_backend_for(stream.ring_key);
  ack = fleet_ack_;
  ack.stream_id = static_cast<std::uint32_t>(link.id());
  ack.server_name = options_.name;
  return nullptr;
}

void ShardRouter::closed(net::Link& link) {
  // Frames and queries still out on a shard belong to the old generation
  // and are dropped when they come back.
  Stream& stream = streams_[static_cast<std::size_t>(link.id())];
  stream.backend = stream.move_target = -1;
  stream.inflight = 0;
  stream.next_sequence = 1;
  stream.querying = false;
}

bool ShardRouter::owes(const net::Link& link) const {
  const Stream& stream = streams_[static_cast<std::size_t>(link.id())];
  return stream.inflight > 0 || stream.querying;
}

bool ShardRouter::submit(net::Link& link, std::span<std::uint8_t> frame) {
  Stream& stream = streams_[static_cast<std::size_t>(link.id())];
  if (stream.move_target >= 0) {
    // Mid-move drain: the old shard still owes results; submitting to either
    // side would reorder the stream. Shed — a camera values freshness.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.frames_shed_draining;
    return true;
  }
  int b = stream.backend;
  if (b < 0 ||
      backends_[static_cast<std::size_t>(b)].state != Backend::State::kUp) {
    b = stream.backend = ring_backend_for(stream.ring_key);
    if (b < 0) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.frames_shed_no_backend;
      return true;
    }
  }
  Backend& be = backends_[static_cast<std::size_t>(b)];
  // Raw forward: only the tag changes (router-owned session tag, so the
  // shard's result stream demultiplexes) and the frame is re-signed.
  // Pixels cross the router untouched.
  const std::uint64_t client_tag = wire::submit_tag(frame);
  wire::patch_submit_tag(frame, be.next_tag);
  if (!server_.send(*be.link, frame)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.frames_shed_backpressure;
    return true;
  }
  be.inflight.push(
      InFlight{be.next_tag++, client_tag, link.id(), link.generation()});
  ++stream.inflight;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++counters_.frames_forwarded;
  ++counters_.shards[static_cast<std::size_t>(b)].frames_forwarded;
  return true;
}

void ShardRouter::note_inflight_done(Stream& stream) {
  PDET_ASSERT(stream.inflight > 0);
  --stream.inflight;
  if (stream.move_target >= 0 && stream.inflight == 0) {
    // Drain complete: the stream switches shards with nothing in flight,
    // so its delivery order cannot interleave across backends.
    const int target = stream.move_target;
    stream.move_target = -1;
    if (backends_[static_cast<std::size_t>(target)].state ==
        Backend::State::kUp) {
      stream.backend = target;
    } else {
      stream.backend = ring_backend_for(stream.ring_key);
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.stream_moves;
  }
}

// ------------------------------------------------------------ fleet queries

void ShardRouter::query(net::Link& link, wire::MsgType type) {
  Stream& stream = streams_[static_cast<std::size_t>(link.id())];
  stream.querying = true;
  stream.telemetry = type == wire::MsgType::kTelemetryQuery;
  stream.awaiting = 0;
  stream.stats = wire::StatsReport{};
  // Reset every telemetry field; the text keeps its capacity.
  std::string text = std::move(stream.telem.prometheus);
  stream.telem = {};
  stream.telem.prometheus = std::move(text);
  stream.telem.prometheus.clear();

  enc_.clear();
  if (stream.telemetry) {
    wire::encode_telemetry_query(enc_);
  } else {
    wire::encode_stats_query(enc_);
  }
  for (Backend& be : backends_) {
    if (be.state != Backend::State::kUp) continue;
    if (!server_.send(*be.link, enc_)) continue;  // full shard tx: skip it
    be.queries.push(QueryRef{link.id(), link.generation(), stream.telemetry});
    ++stream.awaiting;
  }
  // One query at a time per link: its reply goes out (produce()) before the
  // link's next message is read, so replies keep the order of the queries.
  server_.hold(link, true);
}

void ShardRouter::merge_report(Backend& be, Stream& stream) {
  if (!stream.telemetry) {
    runtime::merge_runtime_stats(stream.stats.runtime, msg_.stats.runtime);
    return;
  }

  const wire::TelemetryReport& in = msg_.telemetry;
  wire::TelemetryReport& acc = stream.telem;
  acc.uptime_seconds = std::max(acc.uptime_seconds, in.uptime_seconds);
  // Worst-of: HealthState's order is severity (decode range-checked it).
  acc.health_state = std::max(acc.health_state, in.health_state);
  acc.timeline_frames += in.timeline_frames;
  acc.timeline_window += in.timeline_window;
  // Percentiles do not compose: each segment's fleet row is its worst shard.
  wire::TelemetryReport::visit(
      [](const obs::Segment&, wire::TelemetryPercentiles& a,
         const wire::TelemetryPercentiles& b) {
        a.p50_ms = std::max(a.p50_ms, b.p50_ms);
        a.p99_ms = std::max(a.p99_ms, b.p99_ms);
      },
      acc, in);
  // Per-shard label line, then the shard's registry text, under the wire cap.
  char label[128];
  std::snprintf(label, sizeof label, "# pdet_fleet_shard %d %s:%u\n",
                static_cast<int>(&be - backends_.data()),
                be.endpoint.host.c_str(),
                static_cast<unsigned>(be.endpoint.port));
  if (acc.prometheus.size() + std::strlen(label) + in.prometheus.size() <=
      wire::kMaxTelemetryTextLen) {
    acc.prometheus += label;
    acc.prometheus += in.prometheus;
  }
}

void ShardRouter::produce() {
  // Answer the queries every shard has reported on (or been lost for).
  for (std::size_t id = 0; id < streams_.size(); ++id) {
    Stream& stream = streams_[id];
    net::Link& link = server_.client(static_cast<int>(id));
    if (!stream.querying || stream.awaiting > 0 || !link.writable()) continue;
    enc_.clear();
    if (stream.telemetry) {
      wire::encode_telemetry_report(stream.telem, enc_);
    } else {
      // The runtime rows are the shards' merge; the net rows describe THIS
      // frontend — the router is the net layer a fleet client talks to.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stream.stats.net = counters_;
      }
      wire::encode_stats_report(stream.stats, enc_);
    }
    (void)server_.send(link, enc_);
    stream.querying = false;
    server_.hold(link, false);
  }
}

// ---------------------------------------------------------------- backends

void ShardRouter::retry_later(Backend& be) {
  be.retry_at = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        be.backoff.next_delay_ms()));
}

int ShardRouter::tick() {
  // Redial due shards (bounded blocking connect; local fleets dial in
  // microseconds, unreachable ones are capped by connect_timeout_ms), and
  // wake for the next one due.
  const Clock::time_point now = Clock::now();
  int timeout_ms = 100;
  for (Backend& be : backends_) {
    if (be.state != Backend::State::kDown) continue;
    if (now >= be.retry_at) dial_backend(be);
    if (be.state == Backend::State::kDown) {
      const double until =
          std::chrono::duration<double, std::milli>(be.retry_at - now).count();
      timeout_ms = std::clamp(static_cast<int>(until) + 1, 1, timeout_ms);
    }
  }
  return timeout_ms;
}

void ShardRouter::dial_backend(Backend& be) {
  net::Socket sock = net::Socket::connect_tcp(
      be.endpoint.host, be.endpoint.port, options_.connect_timeout_ms);
  if (!sock.valid()) {
    retry_later(be);
    return;
  }
  server_.attach(*be.link, std::move(sock));
  be.state = Backend::State::kHello;
  be.next_tag = 0;
  wire::Hello hello;
  hello.protocol_version = wire::kProtocolVersion;
  hello.client_name =
      options_.name + "-shard-" + std::to_string(&be - backends_.data());
  enc_.clear();
  wire::encode_hello(hello, enc_);
  (void)server_.send(*be.link, enc_);  // tx is empty; cannot fail
}

void ShardRouter::backend_recovered(Backend& be) {
  const std::size_t idx = static_cast<std::size_t>(&be - backends_.data());
  be.state = Backend::State::kUp;
  be.backoff.reset();
  up_[idx] = true;
  backends_up_.fetch_add(1, std::memory_order_acq_rel);
  if (!have_ack_) {
    fleet_ack_ = be.ack;
    have_ack_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.shards[idx].up = true;
    ++counters_.backends_up;
    if (be.ever_up) ++counters_.shards[idx].reconnects;
  }
  be.ever_up = true;

  // Streams whose ring home this shard is move back — through a drain when
  // they have frames in flight elsewhere, instantly when they are idle.
  for (std::size_t id = 0; id < streams_.size(); ++id) {
    if (!server_.client(static_cast<int>(id)).bound()) continue;
    Stream& stream = streams_[id];
    const int home = ring_backend_for(stream.ring_key);
    if (home == stream.backend) {
      stream.move_target = -1;  // cancel any stale move
      continue;
    }
    if (stream.backend < 0 || stream.inflight == 0) {
      stream.backend = home;
      stream.move_target = -1;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.stream_moves;
    } else {
      stream.move_target = home;
    }
  }
}

void ShardRouter::session_lost(net::Link& session) {
  lose_backend(backends_[static_cast<std::size_t>(session.id())]);
}

void ShardRouter::lose_backend(Backend& be) {
  const std::size_t idx = static_cast<std::size_t>(&be - backends_.data());
  const bool was_up = be.state == Backend::State::kUp;
  server_.close_session(*be.link);
  be.state = Backend::State::kDown;
  up_[idx] = false;
  if (was_up) backends_up_.fetch_sub(1, std::memory_order_acq_rel);

  // Frames in flight on the dead session are lost: shed them (their clients
  // see forward tag gaps — accounted, never reordered).
  long long shed = 0;
  while (!be.inflight.empty()) {
    const InFlight entry = be.inflight.pop();
    if (Stream* stream = owner(entry.link, entry.generation)) {
      note_inflight_done(*stream);
    }
    ++shed;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.shards[idx].up = false;
    if (was_up) --counters_.backends_up;
    ++counters_.backend_sessions_lost;
    if (was_up) ++counters_.reshards;
    counters_.results_shed_backend += shed;
    counters_.results_dropped += shed;
    counters_.shards[idx].shed_inflight += shed;
  }

  // Fleet queries waiting on this shard will never get its report.
  while (!be.queries.empty()) {
    const QueryRef ref = be.queries.pop();
    if (Stream* stream = owner(ref.link, ref.generation)) --stream->awaiting;
  }

  // Re-shard: this shard's streams slide to their ring successors now (the
  // dead session has nothing left in flight, so no drain is needed).
  for (std::size_t id = 0; id < streams_.size(); ++id) {
    if (!server_.client(static_cast<int>(id)).bound()) continue;
    Stream& stream = streams_[id];
    if (stream.move_target == static_cast<int>(idx)) {
      const int home = ring_backend_for(stream.ring_key);
      stream.move_target = (home == stream.backend || home < 0) ? -1 : home;
      if (stream.move_target >= 0 && stream.inflight == 0) {
        stream.backend = stream.move_target;
        stream.move_target = -1;
      }
    }
    if (stream.backend == static_cast<int>(idx)) {
      stream.backend = ring_backend_for(stream.ring_key);
      if (stream.backend >= 0) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.stream_moves;
      }
    }
  }

  retry_later(be);
}

void ShardRouter::session_frame(net::Link& session,
                                std::span<std::uint8_t> frame,
                                wire::MsgType type) {
  Backend& be = backends_[static_cast<std::size_t>(session.id())];
  // The chaos kill site: a seeded schedule drops the whole session as if
  // the shard's link died mid-stream, exercising shed + re-shard + redial.
  if (fault::check("fleet.backend.drop").fire) {
    lose_backend(be);
    return;
  }
  switch (type) {
    case wire::MsgType::kResult:
      route_result(be, frame);
      return;
    case wire::MsgType::kHelloAck:
      if (be.state != Backend::State::kHello ||
          wire::decode_frame(frame, type, msg_) != wire::DecodeStatus::kOk ||
          msg_.hello_ack.protocol_version != wire::kProtocolVersion) {
        lose_backend(be);
        return;
      }
      be.ack = msg_.hello_ack;
      backend_recovered(be);
      return;
    case wire::MsgType::kStatsReport:
    case wire::MsgType::kTelemetryReport: {
      const bool telemetry = type == wire::MsgType::kTelemetryReport;
      if (be.queries.empty() || be.queries.front().telemetry != telemetry ||
          wire::decode_frame(frame, type, msg_) != wire::DecodeStatus::kOk) {
        lose_backend(be);
        return;
      }
      const QueryRef ref = be.queries.pop();
      if (Stream* stream = owner(ref.link, ref.generation)) {
        merge_report(be, *stream);
        --stream->awaiting;
      }
      return;
    }
    default:
      // kError is a shard-side fatal (busy, shutting down): drop the
      // session and let the backoff schedule decide when to look again.
      lose_backend(be);
      return;
  }
}

void ShardRouter::route_result(Backend& be, std::span<std::uint8_t> frame) {
  const std::size_t idx = static_cast<std::size_t>(&be - backends_.data());
  const std::uint64_t result_tag = wire::result_tag(frame);

  // Session tags are FIFO: entries older than this result were shed by the
  // shard (drop-oldest under load) — account them to their streams.
  long long shed = 0;
  while (!be.inflight.empty() && be.inflight.front().tag < result_tag) {
    const InFlight entry = be.inflight.pop();
    if (Stream* stream = owner(entry.link, entry.generation)) {
      note_inflight_done(*stream);
    }
    ++shed;
  }
  if (shed > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.results_shed_backend += shed;
    counters_.results_dropped += shed;
  }

  if (be.inflight.empty() || be.inflight.front().tag != result_tag) {
    // Not the FIFO head: a duplicate or a replay of an already-routed tag.
    // Exactly-once means it must never reach a client.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.duplicates_suppressed;
    return;
  }
  const InFlight entry = be.inflight.pop();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.shards[idx].results_returned;
  }

  Stream* stream = owner(entry.link, entry.generation);
  if (stream == nullptr) return;  // client gone
  net::Link& link = server_.client(entry.link);
  if (link.usable()) {
    // Restore the client's tag, stamp a router-owned per-connection
    // sequence (strictly increasing in delivery order), re-sign, forward.
    wire::patch_result_ids(frame, stream->next_sequence, entry.client_tag);
    const bool sent = server_.send(link, frame);
    if (sent) ++stream->next_sequence;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (sent) {
      ++counters_.results_sent;
    } else {
      ++counters_.results_shed_client;
      ++counters_.results_dropped;
    }
  }
  note_inflight_done(*stream);
}

// ------------------------------------------------------------------- stats

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return counters_;
}

}  // namespace pdet::fleet
