// The framed-connection server core (pdet::net).
//
// Both TCP frontends — net::DetectionService (one runtime behind a socket)
// and fleet::ShardRouter (N services behind one socket) — are this core plus
// what differs between them. The core owns:
//
//   * the listener, the wake pipe and the io thread (start / stop / wake);
//   * a fixed pool of max_clients client links, each a socket plus one rx
//     and one tx LinkBuffer, allocated at construction and never grown. A
//     connection beyond the pool is refused with a best-effort Error{kBusy};
//   * session links the handler dials itself (the router's shard sessions),
//     served by the same loop;
//   * one poll loop: accept, read, frame (wire::peek_frame), dispatch, send,
//     reap;
//   * the client-side protocol rules, the same for every frontend: Hello
//     first and only once, the version check, server-to-client types
//     refused, kError closes, kShutdown drains (the link closes once the
//     handler owes it nothing), a framing error is answered kProtocol and
//     closes, and a SubmitFrame with bad fields is answered kBadFrame on a
//     link that stays open;
//   * the bounded stop-flush and the stats table's NetStats rows.
//
// Bounded memory: a link holds its two buffers plus at most one pending
// frame — a frame its tx could not take. While a frame is pending, the
// link's input is not parsed and send() refuses further frames, so a client
// that queries without reading is pushed back by TCP instead of growing a
// buffer. The buffers are fresh anonymous mappings and their data is kept
// near the front, so only the pages a link has used become resident.
//
// The handler (the frontend) decides what a Hello binds to, what a
// SubmitFrame and a query do, when a draining link is done, and what a
// session frame means. Every handler call runs on the io thread, as do the
// FrameServer calls a handler makes (all but start / stop / wake).
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/net/socket.hpp"
#include "src/net/wire.hpp"
#include "src/runtime/stats_table.hpp"

namespace pdet::net {

/// Fixed byte storage for one direction of a link: the data lives in
/// [head, tail) and moves back to the front once the consumed prefix is at
/// least as long as the data (amortized O(1) per byte), or when the back is
/// full. The storage is an anonymous mapping of its own, so its pages are
/// resident only once written and go back to the system with the buffer,
/// whatever the allocator's thresholds.
class LinkBuffer {
 public:
  explicit LinkBuffer(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  std::span<std::uint8_t> data() { return {bytes_.get() + head_, size()}; }
  /// Free space behind the data (compacting first as described above).
  std::span<std::uint8_t> space();
  void commit(std::size_t n) { tail_ += n; }
  void consume(std::size_t n);
  /// Copy `bytes` in behind the data; false, copying nothing, when they do
  /// not fit.
  bool append(std::span<const std::uint8_t> bytes);
  void clear() { head_ = tail_ = 0; }
  /// The whole storage, for residency checks.
  std::span<const std::uint8_t> storage() const {
    return {bytes_.get(), capacity_};
  }

 private:
  void compact();

  struct Unmap {
    std::size_t bytes = 0;
    void operator()(std::uint8_t* p) const;
  };

  std::unique_ptr<std::uint8_t[], Unmap> bytes_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// One framed connection: a socket, its rx / tx buffers and one pending
/// frame. Client links are numbered 0..max_clients-1 and session links
/// 0..sessions-1 (id()); generation() changes each time a client link is
/// released, so (id, generation) names one connection.
class Link {
 public:
  Link(int id, std::size_t rx_bytes, std::size_t tx_bytes)
      : id_(id), rx_(rx_bytes), tx_(tx_bytes) {}

  int id() const { return id_; }
  std::uint32_t generation() const { return generation_; }
  /// Open, not failed and not closing: worth sending results to.
  bool usable() const { return open() && !dead_ && !closing_; }
  /// A client link whose Hello the handler accepted.
  bool bound() const { return bound_; }
  /// No frame is pending, so send() takes the next one.
  bool writable() const { return pending_.empty(); }

 private:
  friend class FrameServer;

  bool open() const { return sock_.valid(); }
  /// Bytes queued for the peer: tx plus what is left of the pending frame.
  std::size_t unsent() const {
    return tx_.size() + pending_.size() - pending_sent_;
  }
  void reset();

  int id_;
  std::uint32_t generation_ = 0;
  Socket sock_;
  LinkBuffer rx_;
  LinkBuffer tx_;
  std::vector<std::uint8_t> pending_;  ///< one frame tx could not take
  std::size_t pending_sent_ = 0;
  int poll_at_ = -1;  ///< index into the current poll set, -1 if absent
  bool bound_ = false;
  bool held_ = false;      ///< the handler paused this link's input
  bool stalled_ = false;   ///< input waits while held or pending
  bool closing_ = false;   ///< fatal: flush, then close
  bool draining_ = false;  ///< kShutdown: close once flushed and owed nothing
  bool dead_ = false;      ///< the peer is gone
};

class FrameServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
    int max_clients = 8;
    std::size_t rx_bytes = 0;  ///< per client link; must hold a whole frame
    std::size_t tx_bytes = 0;  ///< per client link
    double flush_timeout_ms = 2000.0;
  };

  /// What a frontend supplies. Every call runs on the io thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Bind a link whose Hello passed the core's checks: fill `ack` and
    /// return nullptr, or return why the link is refused (answered kBusy,
    /// counted as a refused connection).
    virtual const char* bind(Link& link, const wire::Hello& hello,
                             wire::HelloAck& ack) = 0;
    /// A SubmitFrame on a bound link, its fields checked by peek_frame. The
    /// bytes may be patched in place. False rejects it as kBadFrame.
    virtual bool submit(Link& link, std::span<std::uint8_t> frame) = 0;
    /// A StatsQuery or TelemetryQuery (bound or not).
    virtual void query(Link& link, wire::MsgType type) = 0;
    /// Whether the client is still owed output (a draining link closes, and
    /// the stop-flush ends, only once nothing is owed).
    virtual bool owes(const Link& link) const = 0;
    /// A client link is being released (bound or not).
    virtual void closed(Link& /*link*/) {}
    /// Once per loop turn, after input and before sending: move produced
    /// output into links.
    virtual void produce() {}
    /// Before each poll: periodic work; returns the poll timeout in ms.
    virtual int tick() { return 100; }
    /// One checked frame from a session link (the bytes are the session
    /// rx's, valid for the call and patchable in place).
    virtual void session_frame(Link& /*session*/,
                               std::span<std::uint8_t> /*frame*/,
                               wire::MsgType /*type*/) {}
    /// A session link failed and was closed by the core.
    virtual void session_lost(Link& /*session*/) {}
    /// The loop is leaving; the stop-flush follows.
    virtual void stopping() {}
  };

  /// `stats` is the frontend's NetStats block, written under `stats_mutex`.
  FrameServer(Options options, Handler& handler, std::mutex& stats_mutex,
              runtime::NetStats& stats);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind, listen, spawn the io thread. False (with a description in
  /// `*error`) when the address cannot be bound.
  bool start(std::string* error = nullptr);
  /// Leave the loop, run the stop-flush (bounded by flush_timeout_ms),
  /// close every link, join. Idempotent.
  void stop();
  /// Make the io thread run a loop turn now. Any thread.
  void wake();
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Add a session link (before start()).
  Link& add_session(std::size_t rx_bytes, std::size_t tx_bytes);
  /// Hand a connected socket to a session link, with empty buffers.
  void attach(Link& session, Socket sock);
  void close_session(Link& session);

  Link& client(int id) { return *clients_[static_cast<std::size_t>(id)]; }
  int max_clients() const { return options_.max_clients; }

  /// Queue one frame: into tx when it fits, else as the pending frame.
  /// False, queueing nothing, when a frame is already pending or the link
  /// is closed.
  bool send(Link& link, std::span<const std::uint8_t> frame);
  /// Pause (or resume) parsing a client link's input.
  void hold(Link& link, bool held);

 private:
  /// Best-effort Error frame.
  void send_error(Link& link, wire::ErrorCode code, const char* text);
  void io_main();
  /// One poll + service pass; `stopping` stops accepting and reading
  /// clients.
  void turn(int timeout_ms, bool stopping);
  void add_pollfd(Link& link, short events);
  bool receive(Link& link);
  bool flush(Link& link);
  void parse(Link& link);
  void dispatch(Link& link, std::span<std::uint8_t> frame,
                wire::MsgType type);
  void read_session(Link& session);
  void lose_session(Link& session);
  void fail(Link& link, wire::ErrorCode code, const char* text);
  void count_decode_error();
  /// Answer a SubmitFrame with bad fields: kBadFrame, the link stays open.
  void reject_frame(Link& link);
  void accept_all();
  void reap();
  void release(Link& link);

  const Options options_;
  Handler& handler_;
  std::mutex& stats_mutex_;
  runtime::NetStats& stats_;

  Socket listener_;
  std::uint16_t port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::vector<std::unique_ptr<Link>> clients_;
  std::vector<std::unique_ptr<Link>> sessions_;

  // Io-thread scratch, reused: the loop allocates nothing once warm.
  std::vector<pollfd> fds_;
  wire::Message msg_;
  wire::HelloAck ack_;
  wire::Error err_;
  std::vector<std::uint8_t> enc_;

  std::thread io_thread_;  ///< last: it uses everything above
};

}  // namespace pdet::net
