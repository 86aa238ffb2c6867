#include "src/fleet/router.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/fault/injector.hpp"
#include "src/runtime/stats_table.hpp"
#include "src/util/assert.hpp"
#include "src/util/bytes.hpp"

namespace pdet::fleet {
namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
}

void store_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void store_u64le(std::uint8_t* p, std::uint64_t v) {
  store_u32le(p, static_cast<std::uint32_t>(v));
  store_u32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

constexpr std::size_t kLenOffset = 8;
constexpr std::size_t kCrcOffset = 12;

/// Recompute and store the frame CRC after an in-place patch. The digest
/// covers header[0,12) ++ payload, exactly as wire::end_frame signs it.
void resign_frame(std::span<std::uint8_t> frame) {
  const std::uint32_t head_crc =
      util::crc32(std::span<const std::uint8_t>(frame.data(), kCrcOffset));
  const std::uint32_t full_crc = util::crc32(
      std::span<const std::uint8_t>(frame.data() + wire::kHeaderSize,
                                    frame.size() - wire::kHeaderSize),
      head_crc);
  store_u32le(frame.data() + kCrcOffset, full_crc);
}

enum class Parse {
  kNeedMore,
  kOk,
  kBadMagic,
  kBadVersion,
  kBadLength,
  kBadCrc,
  kUnknownType,
};

/// Frame-level validation without payload decode: framing fields, bounds and
/// the CRC — everything needed before raw bytes may be patched and
/// re-signed (re-signing unverified bytes would bless corruption).
Parse parse_frame(std::span<const std::uint8_t> data, std::size_t& frame_size,
                  wire::MsgType& type) {
  if (data.size() < wire::kHeaderSize) return Parse::kNeedMore;
  if (load_u32le(data.data()) != wire::kMagic) return Parse::kBadMagic;
  if (data[4] != wire::kProtocolVersion) return Parse::kBadVersion;
  const std::uint8_t type_byte = data[5];
  if (type_byte < static_cast<std::uint8_t>(wire::MsgType::kHello) ||
      type_byte > static_cast<std::uint8_t>(wire::MsgType::kTelemetryReport)) {
    return Parse::kUnknownType;
  }
  const std::uint32_t payload_len = load_u32le(data.data() + kLenOffset);
  if (payload_len > wire::kMaxPayloadBytes) return Parse::kBadLength;
  frame_size = wire::kHeaderSize + payload_len;
  if (data.size() < frame_size) return Parse::kNeedMore;
  const std::uint32_t head_crc =
      util::crc32(data.subspan(0, kCrcOffset));
  const std::uint32_t full_crc = util::crc32(
      data.subspan(wire::kHeaderSize, payload_len), head_crc);
  if (full_crc != load_u32le(data.data() + kCrcOffset)) return Parse::kBadCrc;
  type = static_cast<wire::MsgType>(type_byte);
  return Parse::kOk;
}

/// A structurally valid SubmitFrame? (tag u64, width u32, height u32,
/// width*height f32 pixels — the wire v1 layout.)
bool valid_submit_payload(std::span<const std::uint8_t> frame) {
  const std::size_t payload = frame.size() - wire::kHeaderSize;
  if (payload < 16) return false;
  const std::uint64_t w = load_u32le(frame.data() + wire::kHeaderSize + 8);
  const std::uint64_t h = load_u32le(frame.data() + wire::kHeaderSize + 12);
  if (w == 0 || h == 0 || w > wire::kMaxFrameDim || h > wire::kMaxFrameDim) {
    return false;
  }
  return payload == 16 + w * h * 4;
}

}  // namespace

/// Fixed-block I/O buffer: `block` comes from the arena, `size` is the
/// valid prefix, `pos` the consumed/sent prefix.
struct ShardRouter::Buf {
  std::span<std::uint8_t> block;
  std::size_t size = 0;
  std::size_t pos = 0;

  std::size_t unread() const { return size - pos; }
  std::size_t free() const { return block.size() - size; }
  std::uint8_t* wr() { return block.data() + size; }
  const std::uint8_t* rd() const { return block.data() + pos; }
  void reset() { size = pos = 0; }
  void compact() {
    if (pos == 0) return;
    if (pos == size) {
      size = pos = 0;
      return;
    }
    std::memmove(block.data(), block.data() + pos, size - pos);
    size -= pos;
    pos = 0;
  }
};

/// FIFO of frames in flight to one shard, in session-tag order. Grows on
/// overflow like the service's TagRing — inflight_capacity sizes the common
/// case so steady state stays allocation-free.
struct ShardRouter::InflightRing {
  struct Entry {
    std::uint64_t tag = 0;         ///< router tag on the shard session
    std::uint64_t client_tag = 0;  ///< original tag, restored on the result
    int slot = -1;                 ///< client conn index
    std::uint32_t gen = 0;         ///< client conn generation at submit
  };

  void reset(std::size_t capacity) {
    ring_.assign(std::max<std::size_t>(capacity, 1), Entry{});
    head_ = count_ = 0;
  }
  void push(const Entry& e) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = e;
    ++count_;
  }
  const Entry& front() const {
    PDET_ASSERT(count_ > 0);
    return ring_[head_];
  }
  void pop() {
    PDET_ASSERT(count_ > 0);
    head_ = (head_ + 1) % ring_.size();
    --count_;
  }
  std::size_t size() const { return count_; }

 private:
  void grow() {
    std::vector<Entry> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

struct ShardRouter::ClientConn {
  net::Socket sock;
  bool in_use = false;
  bool hello_done = false;
  bool closing = false;   ///< fatal: flush tx, then close
  bool draining = false;  ///< kShutdown: close once inflight==0 and tx empty
  bool dead = false;
  std::uint32_t generation = 0;  ///< guards stale inflight entries

  std::uint64_t ring_key = 0;
  int backend = -1;      ///< current shard, -1 while none is up
  int move_target = -1;  ///< >= 0: draining toward this shard
  long long inflight = 0;
  std::uint64_t next_sequence = 1;  ///< strictly increasing per connection

  Buf rx;
  Buf tx;
};

struct ShardRouter::Backend {
  enum class State { kDown, kHello, kUp };

  BackendEndpoint endpoint;
  net::Socket sock;
  State state = State::kDown;
  bool ever_up = false;
  net::BackoffSchedule backoff;
  Clock::time_point retry_at{};

  std::uint64_t next_tag = 0;
  InflightRing inflight;
  wire::HelloAck ack;
  /// Pending fleet-query contexts, FIFO per report type (the session's wire
  /// ordering pairs each report with the oldest pending query).
  std::vector<int> pending_stats;
  std::vector<int> pending_telemetry;

  Buf rx;
  Buf tx;
};

struct ShardRouter::QueryCtx {
  bool in_use = false;
  bool telemetry = false;
  int client_slot = -1;
  std::uint32_t client_gen = 0;
  int awaiting = 0;   ///< shard reports still outstanding
  int responded = 0;  ///< shards merged so far
  wire::StatsReport stats;
  wire::TelemetryReport telem;
};

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)),
      ring_(static_cast<int>(std::max<std::size_t>(options_.backends.size(), 1)),
            options_.vnodes),
      arena_(options_.buffer_bytes,
             2 * (static_cast<std::size_t>(options_.max_clients) +
                  options_.backends.size())) {
  PDET_REQUIRE(!options_.backends.empty());
  PDET_REQUIRE(options_.max_clients >= 1);
  PDET_REQUIRE(options_.max_queries >= 1);
  PDET_REQUIRE(options_.buffer_bytes >= 4 * wire::kHeaderSize);

  conns_.resize(static_cast<std::size_t>(options_.max_clients));
  queries_.resize(static_cast<std::size_t>(options_.max_queries));
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
    be.inflight.reset(options_.inflight_capacity);
    be.pending_stats.reserve(static_cast<std::size_t>(options_.max_queries));
    be.pending_telemetry.reserve(
        static_cast<std::size_t>(options_.max_queries));
    be.rx.block = arena_.acquire();
    be.tx.block = arena_.acquire();
    PDET_REQUIRE(!be.rx.block.empty() && !be.tx.block.empty());
  }
  enc_.reserve(1 << 16);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.shards.resize(backends_.size());
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      counters_.shards[b].endpoint =
          backends_[b].endpoint.host + ":" +
          std::to_string(backends_[b].endpoint.port);
    }
  }
}

ShardRouter::~ShardRouter() {
  stop();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

bool ShardRouter::start(std::string* error) {
  PDET_REQUIRE(!started_);
  listener_ = net::Socket::listen_tcp(options_.host, options_.port, 64, error);
  if (!listener_.valid()) return false;
  port_ = listener_.local_port();
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "pipe failed";
    listener_.close();
    return false;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  (void)fcntl(wake_read_, F_SETFL, O_NONBLOCK);
  (void)fcntl(wake_write_, F_SETFL, O_NONBLOCK);
  started_ = true;
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_main(); });
  return true;
}

void ShardRouter::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  running_.store(false, std::memory_order_release);
}

void ShardRouter::wake() {
  if (wake_write_ < 0) return;
  const std::uint8_t b = 1;
  (void)!::write(wake_write_, &b, 1);
}

int ShardRouter::backends_up() const {
  return backends_up_.load(std::memory_order_acquire);
}

int ShardRouter::ring_backend_for(std::uint64_t key) const {
  return ring_.lookup_up(key, up_);
}

// ---------------------------------------------------------------- buffers

bool ShardRouter::append_out(Buf& tx, std::span<const std::uint8_t> bytes) {
  if (tx.free() < bytes.size()) {
    // One compaction attempt: sent prefix may be reclaimable.
    tx.compact();
    if (tx.free() < bytes.size()) return false;
  }
  std::memcpy(tx.wr(), bytes.data(), bytes.size());
  tx.size += bytes.size();
  return true;
}

void ShardRouter::try_send(net::Socket& sock, Buf& tx, bool& dead) {
  while (tx.unread() > 0) {
    std::size_t sent = 0;
    const net::IoStatus status = net::send_some(
        sock.fd(), std::span<const std::uint8_t>(tx.rd(), tx.unread()), sent);
    if (status == net::IoStatus::kOk) {
      tx.pos += sent;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      counters_.bytes_out += static_cast<long long>(sent);
      continue;
    }
    if (status == net::IoStatus::kWouldBlock) break;
    dead = true;
    return;
  }
  if (tx.unread() == 0) tx.reset();
}

bool ShardRouter::recv_into(net::Socket& sock, Buf& rx, bool& dead,
                            long long& bytes_in) {
  bool got_any = false;
  for (;;) {
    if (rx.free() == 0) rx.compact();
    if (rx.free() == 0) break;  // full buffer; parser decides what that means
    std::size_t got = 0;
    const net::IoStatus status = net::recv_some(
        sock.fd(), std::span<std::uint8_t>(rx.wr(), rx.free()), got);
    if (status == net::IoStatus::kOk) {
      rx.size += got;
      bytes_in += static_cast<long long>(got);
      got_any = true;
      continue;
    }
    if (status == net::IoStatus::kWouldBlock) break;
    dead = true;
    break;
  }
  return got_any;
}

// ----------------------------------------------------------------- clients

void ShardRouter::accept_clients() {
  for (;;) {
    net::Socket accepted = listener_.accept();
    if (!accepted.valid()) break;
    int slot = -1;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].in_use) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) {
      // No free slot: refuse by closing (the camera's client backs off and
      // redials). Counted so operators can size max_clients.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.connections_refused;
      continue;  // `accepted` closes on scope exit
    }
    ClientConn& conn = conns_[static_cast<std::size_t>(slot)];
    conn.sock = std::move(accepted);
    conn.sock.set_nodelay(true);
    conn.in_use = true;
    conn.hello_done = false;
    conn.closing = conn.draining = conn.dead = false;
    ++conn.generation;
    conn.ring_key = 0;
    conn.backend = -1;
    conn.move_target = -1;
    conn.inflight = 0;
    conn.next_sequence = 1;
    conn.rx.block = arena_.acquire();
    conn.tx.block = arena_.acquire();
    PDET_ASSERT(!conn.rx.block.empty() && !conn.tx.block.empty());
    conn.rx.reset();
    conn.tx.reset();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.connections_accepted;
    ++counters_.active_clients;
  }
}

void ShardRouter::close_client(ClientConn& conn) {
  if (!conn.in_use) return;
  conn.sock.close();
  if (!conn.rx.block.empty()) arena_.release(conn.rx.block);
  if (!conn.tx.block.empty()) arena_.release(conn.tx.block);
  conn.rx.block = {};
  conn.tx.block = {};
  conn.in_use = false;
  ++conn.generation;  // orphan any frames still in flight on a shard
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++counters_.connections_closed;
  --counters_.active_clients;
}

void ShardRouter::client_error(ClientConn& conn, wire::ErrorCode code,
                               const char* text) {
  err_.code = code;
  err_.message.assign(text);
  enc_.clear();
  wire::encode_error(err_, enc_);
  (void)append_out(conn.tx, enc_);  // best effort; conn is usually closing
}

void ShardRouter::handle_client_readable(ClientConn& conn) {
  long long bytes_in = 0;
  (void)recv_into(conn.sock, conn.rx, conn.dead, bytes_in);
  if (bytes_in > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.bytes_in += bytes_in;
  }

  while (!conn.closing && !conn.draining && !conn.dead) {
    const std::span<const std::uint8_t> pending(conn.rx.rd(),
                                                conn.rx.unread());
    std::size_t frame_size = 0;
    wire::MsgType type{};
    const Parse parse = parse_frame(pending, frame_size, type);
    if (parse == Parse::kNeedMore) {
      if (conn.rx.unread() == conn.rx.block.size()) {
        // A frame larger than the fixed buffer can never complete.
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.decode_errors;
        conn.closing = true;
        client_error(conn, wire::ErrorCode::kBadFrame,
                     "frame exceeds router buffer");
      }
      break;
    }
    if (parse != Parse::kOk) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.decode_errors;
      }
      client_error(conn, wire::ErrorCode::kProtocol, "malformed frame");
      conn.closing = true;
      break;
    }
    handle_client_message(conn, pending.subspan(0, frame_size), type);
    conn.rx.pos += frame_size;
  }
  conn.rx.compact();
}

void ShardRouter::handle_client_message(ClientConn& conn,
                                        std::span<const std::uint8_t> frame,
                                        wire::MsgType type) {
  switch (type) {
    case wire::MsgType::kHello: {
      std::size_t consumed = 0;
      if (wire::decode_message(frame, msg_, consumed) !=
          wire::DecodeStatus::kOk) {
        client_error(conn, wire::ErrorCode::kProtocol, "bad hello");
        conn.closing = true;
        return;
      }
      if (conn.hello_done) {
        client_error(conn, wire::ErrorCode::kProtocol, "duplicate hello");
        conn.closing = true;
        return;
      }
      if (msg_.hello.protocol_version != wire::kProtocolVersion) {
        client_error(conn, wire::ErrorCode::kVersionMismatch,
                     "unsupported protocol version");
        conn.closing = true;
        return;
      }
      if (!have_ack_) {
        // The fleet's model fingerprint comes from the shards; before any
        // shard handshake there is nothing truthful to advertise.
        client_error(conn, wire::ErrorCode::kBusy, "no backend available");
        conn.closing = true;
        return;
      }
      conn.hello_done = true;
      conn.ring_key = HashRing::key_for(msg_.hello.client_name);
      conn.backend = ring_backend_for(conn.ring_key);
      wire::HelloAck ack = fleet_ack_;
      ack.stream_id = static_cast<std::uint32_t>(&conn - conns_.data());
      ack.server_name = options_.name;
      enc_.clear();
      wire::encode_hello_ack(ack, enc_);
      if (!append_out(conn.tx, enc_)) conn.closing = true;
      return;
    }
    case wire::MsgType::kSubmitFrame: {
      if (!conn.hello_done) {
        client_error(conn, wire::ErrorCode::kProtocol, "frame before hello");
        conn.closing = true;
        return;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.frames_received;
      }
      if (!valid_submit_payload(frame)) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.frames_rejected;
        client_error(conn, wire::ErrorCode::kBadFrame,
                     "invalid frame dimensions/payload");
        return;
      }
      forward_frame(conn, frame);
      return;
    }
    case wire::MsgType::kStatsQuery: {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.stats_queries;
      }
      start_query(conn, /*telemetry=*/false);
      return;
    }
    case wire::MsgType::kTelemetryQuery: {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.telemetry_queries;
      }
      start_query(conn, /*telemetry=*/true);
      return;
    }
    case wire::MsgType::kShutdown:
      conn.draining = true;
      return;
    case wire::MsgType::kError:
      conn.closing = true;
      return;
    case wire::MsgType::kHelloAck:
    case wire::MsgType::kResult:
    case wire::MsgType::kStatsReport:
    case wire::MsgType::kTelemetryReport:
      client_error(conn, wire::ErrorCode::kProtocol,
                   "server-to-client message from client");
      conn.closing = true;
      return;
  }
}

void ShardRouter::forward_frame(ClientConn& conn,
                                std::span<const std::uint8_t> frame) {
  if (conn.move_target >= 0) {
    // Mid-move drain: the old shard still owes results; submitting to either
    // side would reorder the stream. Shed — a camera values freshness.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.frames_shed_draining;
    return;
  }
  int b = conn.backend;
  if (b < 0 || backends_[static_cast<std::size_t>(b)].state !=
                   Backend::State::kUp) {
    b = ring_backend_for(conn.ring_key);
    conn.backend = b;
    if (b < 0) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.frames_shed_no_backend;
      return;
    }
  }
  Backend& be = backends_[static_cast<std::size_t>(b)];
  if (be.tx.free() < frame.size()) be.tx.compact();
  if (be.tx.free() < frame.size()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.frames_shed_backpressure;
    return;
  }
  std::uint8_t* dst = be.tx.wr();
  std::memcpy(dst, frame.data(), frame.size());
  // Raw forward: only the tag changes (router-owned session tag), then the
  // frame is re-signed. Pixels cross the router untouched.
  const std::uint64_t client_tag = load_u64le(frame.data() + wire::kHeaderSize);
  store_u64le(dst + wire::kHeaderSize, be.next_tag);
  resign_frame(std::span<std::uint8_t>(dst, frame.size()));
  be.tx.size += frame.size();

  InflightRing::Entry entry;
  entry.tag = be.next_tag++;
  entry.client_tag = client_tag;
  entry.slot = static_cast<int>(&conn - conns_.data());
  entry.gen = conn.generation;
  be.inflight.push(entry);
  ++conn.inflight;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++counters_.frames_forwarded;
  ++counters_.shards[static_cast<std::size_t>(b)].frames_forwarded;
}

void ShardRouter::note_inflight_done(ClientConn& conn) {
  PDET_ASSERT(conn.inflight > 0);
  --conn.inflight;
  if (conn.move_target >= 0 && conn.inflight == 0) {
    // Drain complete: the stream switches shards with nothing in flight,
    // so its delivery order cannot interleave across backends.
    const int target = conn.move_target;
    conn.move_target = -1;
    if (backends_[static_cast<std::size_t>(target)].state ==
        Backend::State::kUp) {
      conn.backend = target;
    } else {
      conn.backend = ring_backend_for(conn.ring_key);
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.stream_moves;
  }
}

// ---------------------------------------------------------------- backends

void ShardRouter::dial_backend(Backend& be) {
  std::string error;
  be.sock = net::Socket::connect_tcp(be.endpoint.host, be.endpoint.port,
                                     options_.connect_timeout_ms, &error);
  if (!be.sock.valid()) {
    be.retry_at = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          be.backoff.next_delay_ms()));
    return;
  }
  be.sock.set_nodelay(true);
  be.state = Backend::State::kHello;
  be.rx.reset();
  be.tx.reset();
  be.next_tag = 0;
  wire::Hello hello;
  hello.protocol_version = wire::kProtocolVersion;
  hello.client_name =
      options_.name + "-shard-" +
      std::to_string(&be - backends_.data());
  enc_.clear();
  wire::encode_hello(hello, enc_);
  (void)append_out(be.tx, enc_);  // tx is empty; cannot fail
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
  for (ClientConn& conn : conns_) {
    if (!conn.in_use || !conn.hello_done) continue;
    const int home = ring_backend_for(conn.ring_key);
    if (home == conn.backend) {
      conn.move_target = -1;  // cancel any stale move
      continue;
    }
    if (conn.backend < 0 || conn.inflight == 0) {
      conn.backend = home;
      conn.move_target = -1;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.stream_moves;
    } else {
      conn.move_target = home;
    }
  }
}

void ShardRouter::lose_backend(Backend& be) {
  const std::size_t idx = static_cast<std::size_t>(&be - backends_.data());
  const bool was_up = be.state == Backend::State::kUp;
  be.sock.close();
  be.state = Backend::State::kDown;
  be.rx.reset();
  be.tx.reset();
  up_[idx] = false;
  if (was_up) backends_up_.fetch_sub(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.shards[idx].up = false;
    if (was_up) --counters_.backends_up;
    ++counters_.backend_sessions_lost;
    if (was_up) ++counters_.reshards;
  }

  // Frames in flight on the dead session are lost: shed them (their clients
  // see forward tag gaps — accounted, never reordered).
  long long shed = 0;
  while (be.inflight.size() > 0) {
    const InflightRing::Entry entry = be.inflight.front();
    be.inflight.pop();
    ClientConn& conn = conns_[static_cast<std::size_t>(entry.slot)];
    if (conn.in_use && conn.generation == entry.gen) {
      note_inflight_done(conn);
    }
    ++shed;
  }
  if (shed > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.results_shed_backend += shed;
    counters_.shards[idx].shed_inflight += shed;
  }

  // Fleet queries waiting on this shard will never get its report.
  for (const int ctx_id : be.pending_stats) {
    QueryCtx& ctx = queries_[static_cast<std::size_t>(ctx_id)];
    if (ctx.in_use && --ctx.awaiting == 0) finish_query(ctx);
  }
  be.pending_stats.clear();
  for (const int ctx_id : be.pending_telemetry) {
    QueryCtx& ctx = queries_[static_cast<std::size_t>(ctx_id)];
    if (ctx.in_use && --ctx.awaiting == 0) finish_query(ctx);
  }
  be.pending_telemetry.clear();

  // Re-shard: this shard's streams slide to their ring successors now (the
  // dead session has nothing left in flight, so no drain is needed).
  for (ClientConn& conn : conns_) {
    if (!conn.in_use || !conn.hello_done) continue;
    if (conn.move_target == static_cast<int>(idx)) {
      const int home = ring_backend_for(conn.ring_key);
      conn.move_target = (home == conn.backend || home < 0) ? -1 : home;
      if (conn.move_target >= 0 && conn.inflight == 0) {
        conn.backend = conn.move_target;
        conn.move_target = -1;
      }
    }
    if (conn.backend == static_cast<int>(idx)) {
      conn.backend = ring_backend_for(conn.ring_key);
      if (conn.backend >= 0) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++counters_.stream_moves;
      }
    }
  }

  be.retry_at = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        be.backoff.next_delay_ms()));
}

void ShardRouter::handle_backend_readable(Backend& be) {
  long long bytes_in = 0;
  bool dead = false;
  (void)recv_into(be.sock, be.rx, dead, bytes_in);
  if (bytes_in > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.bytes_in += bytes_in;
  }
  if (dead) {
    lose_backend(be);
    return;
  }

  while (be.state != Backend::State::kDown) {
    const std::span<const std::uint8_t> pending(be.rx.rd(), be.rx.unread());
    std::size_t frame_size = 0;
    wire::MsgType type{};
    const Parse parse = parse_frame(pending, frame_size, type);
    if (parse == Parse::kNeedMore) {
      if (be.rx.unread() == be.rx.block.size()) {
        // Shard sent a frame bigger than our buffer — unrecoverable here.
        lose_backend(be);
      }
      break;
    }
    if (parse != Parse::kOk) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.decode_errors;
      lose_backend(be);
      break;
    }
    // The chaos kill site: a seeded schedule drops the whole session as if
    // the shard's link died mid-stream, exercising shed + re-shard + redial.
    if (fault::check("fleet.backend.drop").fire) {
      lose_backend(be);
      break;
    }
    // Mutable view for the in-place result patch; the bytes live in rx and
    // are consumed right after.
    std::span<std::uint8_t> frame(
        be.rx.block.data() + be.rx.pos, frame_size);
    be.rx.pos += frame_size;
    handle_backend_message(be, frame, type);
  }
  if (be.state != Backend::State::kDown) be.rx.compact();
}

void ShardRouter::handle_backend_message(Backend& be,
                                         std::span<std::uint8_t> frame,
                                         wire::MsgType type) {
  switch (type) {
    case wire::MsgType::kResult:
      route_result(be, frame);
      return;
    case wire::MsgType::kHelloAck: {
      std::size_t consumed = 0;
      if (be.state != Backend::State::kHello ||
          wire::decode_message(frame, msg_, consumed) !=
              wire::DecodeStatus::kOk ||
          msg_.hello_ack.protocol_version != wire::kProtocolVersion) {
        lose_backend(be);
        return;
      }
      be.ack = msg_.hello_ack;
      backend_recovered(be);
      return;
    }
    case wire::MsgType::kStatsReport: {
      std::size_t consumed = 0;
      if (wire::decode_message(frame, msg_, consumed) !=
              wire::DecodeStatus::kOk ||
          be.pending_stats.empty()) {
        lose_backend(be);
        return;
      }
      const int ctx_id = be.pending_stats.front();
      be.pending_stats.erase(be.pending_stats.begin());
      QueryCtx& ctx = queries_[static_cast<std::size_t>(ctx_id)];
      if (ctx.in_use) {
        merge_report(be, ctx);
        if (--ctx.awaiting == 0) finish_query(ctx);
      }
      return;
    }
    case wire::MsgType::kTelemetryReport: {
      std::size_t consumed = 0;
      if (wire::decode_message(frame, msg_, consumed) !=
              wire::DecodeStatus::kOk ||
          be.pending_telemetry.empty()) {
        lose_backend(be);
        return;
      }
      const int ctx_id = be.pending_telemetry.front();
      be.pending_telemetry.erase(be.pending_telemetry.begin());
      QueryCtx& ctx = queries_[static_cast<std::size_t>(ctx_id)];
      if (ctx.in_use) {
        merge_report(be, ctx);
        if (--ctx.awaiting == 0) finish_query(ctx);
      }
      return;
    }
    case wire::MsgType::kError:
      // A shard-side fatal (busy, shutting down): drop the session and let
      // the backoff schedule decide when to look again.
      lose_backend(be);
      return;
    default:
      lose_backend(be);
      return;
  }
}

void ShardRouter::route_result(Backend& be, std::span<std::uint8_t> frame) {
  const std::size_t idx = static_cast<std::size_t>(&be - backends_.data());
  if (frame.size() < wire::kHeaderSize + 16) {
    lose_backend(be);
    return;
  }
  const std::uint64_t result_tag =
      load_u64le(frame.data() + wire::kHeaderSize + 8);

  // Session tags are FIFO: entries older than this result were shed by the
  // shard (drop-oldest under load) — account them to their streams.
  long long shed = 0;
  while (be.inflight.size() > 0 && be.inflight.front().tag < result_tag) {
    const InflightRing::Entry entry = be.inflight.front();
    be.inflight.pop();
    ClientConn& conn = conns_[static_cast<std::size_t>(entry.slot)];
    if (conn.in_use && conn.generation == entry.gen) note_inflight_done(conn);
    ++shed;
  }
  if (shed > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.results_shed_backend += shed;
  }

  if (be.inflight.size() == 0 || be.inflight.front().tag != result_tag) {
    // Not the FIFO head: a duplicate or a replay of an already-routed tag.
    // Exactly-once means it must never reach a client.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.duplicates_suppressed;
    return;
  }
  const InflightRing::Entry entry = be.inflight.front();
  be.inflight.pop();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.shards[idx].results_returned;
  }

  ClientConn& conn = conns_[static_cast<std::size_t>(entry.slot)];
  if (!conn.in_use || conn.generation != entry.gen) return;  // client gone

  if (!conn.dead && !conn.closing) {
    // Restore the client's tag, stamp a router-owned per-connection
    // sequence (strictly increasing in delivery order), re-sign, forward.
    store_u64le(frame.data() + wire::kHeaderSize, conn.next_sequence);
    store_u64le(frame.data() + wire::kHeaderSize + 8, entry.client_tag);
    resign_frame(frame);
    if (append_out(conn.tx, frame)) {
      ++conn.next_sequence;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.results_delivered;
    } else {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.results_shed_client;
    }
  }
  note_inflight_done(conn);
}

// ------------------------------------------------------------ fleet queries

void ShardRouter::start_query(ClientConn& conn, bool telemetry) {
  int free_ctx = -1;
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    if (!queries_[i].in_use) {
      free_ctx = static_cast<int>(i);
      break;
    }
  }
  QueryCtx local;
  QueryCtx& ctx = free_ctx >= 0
                      ? queries_[static_cast<std::size_t>(free_ctx)]
                      : local;  // pool exhausted: answer router-only, now
  ctx.in_use = true;
  ctx.telemetry = telemetry;
  ctx.client_slot = static_cast<int>(&conn - conns_.data());
  ctx.client_gen = conn.generation;
  ctx.awaiting = 0;
  ctx.responded = 0;
  ctx.stats = wire::StatsReport{};
  ctx.telem.uptime_seconds = 0.0;
  ctx.telem.health_state = 0;
  ctx.telem.timeline_frames = 0;
  ctx.telem.timeline_window = 0;
  ctx.telem.admit = ctx.telem.queue = ctx.telem.engine = ctx.telem.total =
      wire::TelemetryPercentiles{};
  ctx.telem.prometheus.clear();

  if (free_ctx >= 0) {
    enc_.clear();
    if (telemetry) {
      wire::encode_telemetry_query(enc_);
    } else {
      wire::encode_stats_query(enc_);
    }
    for (Backend& be : backends_) {
      if (be.state != Backend::State::kUp) continue;
      if (!append_out(be.tx, enc_)) continue;  // full shard tx: skip it
      auto& fifo = telemetry ? be.pending_telemetry : be.pending_stats;
      fifo.push_back(free_ctx);
      ++ctx.awaiting;
    }
  }
  if (ctx.awaiting == 0) finish_query(ctx);
}

void ShardRouter::merge_report(Backend& be, QueryCtx& ctx) {
  ++ctx.responded;
  if (!ctx.telemetry) {
    runtime::merge_runtime_stats(ctx.stats.runtime, msg_.stats.runtime);
    return;
  }

  const wire::TelemetryReport& in = msg_.telemetry;
  wire::TelemetryReport& acc = ctx.telem;
  acc.uptime_seconds = std::max(acc.uptime_seconds, in.uptime_seconds);
  // Worst-of: HealthState's order is severity (decode range-checked it).
  acc.health_state = std::max(acc.health_state, in.health_state);
  acc.timeline_frames += in.timeline_frames;
  acc.timeline_window += in.timeline_window;
  const auto worst = [](wire::TelemetryPercentiles& a,
                        const wire::TelemetryPercentiles& b) {
    a.p50_ms = std::max(a.p50_ms, b.p50_ms);
    a.p99_ms = std::max(a.p99_ms, b.p99_ms);
  };
  worst(acc.admit, in.admit);
  worst(acc.queue, in.queue);
  worst(acc.engine, in.engine);
  worst(acc.total, in.total);
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

void ShardRouter::finish_query(QueryCtx& ctx) {
  ctx.in_use = false;
  ClientConn& conn = conns_[static_cast<std::size_t>(ctx.client_slot)];
  if (!conn.in_use || conn.generation != ctx.client_gen || conn.dead ||
      conn.closing) {
    return;  // the asker hung up; nothing to deliver
  }
  enc_.clear();
  if (ctx.telemetry) {
    wire::encode_telemetry_report(ctx.telem, enc_);
  } else {
    // The runtime rows are the shards' merge; the net block describes THIS
    // frontend — the router is the net layer a fleet client talks to.
    runtime::NetStats& net = ctx.stats.net;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    net.frames_received = counters_.frames_received;
    net.frames_rejected = counters_.frames_rejected;
    net.results_sent = counters_.results_delivered;
    net.results_dropped =
        counters_.results_shed_backend + counters_.results_shed_client;
    net.decode_errors = counters_.decode_errors;
    net.active_connections = counters_.active_clients;
    wire::encode_stats_report(ctx.stats, enc_);
  }
  (void)append_out(conn.tx, enc_);
}

// ---------------------------------------------------------------- io loop

void ShardRouter::io_main() {
  std::vector<pollfd> fds;
  std::vector<int> conn_at(conns_.size(), -1);
  std::vector<int> backend_at(backends_.size(), -1);
  fds.reserve(2 + conns_.size() + backends_.size());

  while (!stop_requested_.load(std::memory_order_acquire)) {
    const Clock::time_point now = Clock::now();

    // Redial due shards (bounded blocking connect; local fleets dial in
    // microseconds, unreachable ones are capped by connect_timeout_ms).
    for (Backend& be : backends_) {
      if (be.state == Backend::State::kDown && now >= be.retry_at) {
        dial_backend(be);
      }
    }

    fds.clear();
    fds.push_back(pollfd{wake_read_, POLLIN, 0});
    int listener_at = -1;
    if (listener_.valid()) {
      listener_at = static_cast<int>(fds.size());
      fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      ClientConn& conn = conns_[i];
      conn_at[i] = -1;
      if (!conn.in_use) continue;
      short events = 0;
      if (!conn.closing && !conn.draining) events |= POLLIN;
      if (conn.tx.unread() > 0) events |= POLLOUT;
      conn_at[i] = static_cast<int>(fds.size());
      fds.push_back(pollfd{conn.sock.fd(), events, 0});
    }
    int timeout_ms = 100;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Backend& be = backends_[i];
      backend_at[i] = -1;
      if (be.state == Backend::State::kDown) {
        const double until =
            std::chrono::duration<double, std::milli>(be.retry_at - now)
                .count();
        timeout_ms = std::clamp(static_cast<int>(until) + 1, 1, timeout_ms);
        continue;
      }
      short events = POLLIN;
      if (be.tx.unread() > 0) events |= POLLOUT;
      backend_at[i] = static_cast<int>(fds.size());
      fds.push_back(pollfd{be.sock.fd(), events, 0});
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint8_t drain_buf[256];
      while (::read(wake_read_, drain_buf, sizeof drain_buf) > 0) {
      }
    }
    if (listener_at >= 0 &&
        (fds[static_cast<std::size_t>(listener_at)].revents & POLLIN) != 0) {
      accept_clients();
    }

    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (backend_at[i] < 0) continue;
      const short revents =
          fds[static_cast<std::size_t>(backend_at[i])].revents;
      Backend& be = backends_[i];
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        lose_backend(be);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) != 0) handle_backend_readable(be);
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conn_at[i] < 0) continue;
      const short revents = fds[static_cast<std::size_t>(conn_at[i])].revents;
      ClientConn& conn = conns_[i];
      if (!conn.in_use) continue;  // closed by an earlier handler this cycle
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn.dead = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) != 0 && !conn.closing &&
          !conn.draining) {
        handle_client_readable(conn);
      }
    }

    for (Backend& be : backends_) {
      if (be.state == Backend::State::kDown) continue;
      bool dead = false;
      try_send(be.sock, be.tx, dead);
      if (dead) lose_backend(be);
    }
    for (ClientConn& conn : conns_) {
      if (!conn.in_use || conn.dead) continue;
      try_send(conn.sock, conn.tx, conn.dead);
    }

    for (ClientConn& conn : conns_) {
      if (!conn.in_use) continue;
      bool finished = conn.dead;
      if (!finished && conn.closing && conn.tx.unread() == 0) finished = true;
      if (!finished && conn.draining && conn.tx.unread() == 0 &&
          conn.inflight == 0) {
        finished = true;
      }
      if (finished) close_client(conn);
    }
  }

  // Graceful drain: stop reading cameras, give in-flight results a bounded
  // window to come home and flush, then tear everything down.
  listener_.close();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.flush_timeout_ms));
  while (Clock::now() < deadline) {
    bool pending = false;
    for (const ClientConn& conn : conns_) {
      if (conn.in_use && !conn.dead &&
          (conn.inflight > 0 || conn.tx.unread() > 0)) {
        pending = true;
      }
    }
    if (!pending) break;

    fds.clear();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Backend& be = backends_[i];
      backend_at[i] = -1;
      if (be.state == Backend::State::kDown) continue;
      short events = POLLIN;
      if (be.tx.unread() > 0) events |= POLLOUT;
      backend_at[i] = static_cast<int>(fds.size());
      fds.push_back(pollfd{be.sock.fd(), events, 0});
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 10);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (backend_at[i] < 0) continue;
      const short revents =
          fds[static_cast<std::size_t>(backend_at[i])].revents;
      Backend& be = backends_[i];
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        lose_backend(be);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) != 0) handle_backend_readable(be);
    }
    for (Backend& be : backends_) {
      if (be.state == Backend::State::kDown) continue;
      bool dead = false;
      try_send(be.sock, be.tx, dead);
      if (dead) lose_backend(be);
    }
    for (ClientConn& conn : conns_) {
      if (!conn.in_use || conn.dead) continue;
      try_send(conn.sock, conn.tx, conn.dead);
    }
    for (ClientConn& conn : conns_) {
      if (conn.in_use && conn.dead) close_client(conn);
    }
  }
  for (ClientConn& conn : conns_) {
    if (conn.in_use) close_client(conn);
  }
  for (Backend& be : backends_) be.sock.close();
}

// ------------------------------------------------------------------- stats

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return counters_;
}

}  // namespace pdet::fleet
