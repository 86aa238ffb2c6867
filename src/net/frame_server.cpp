#include "src/net/frame_server.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <utility>

#include "src/util/assert.hpp"

namespace pdet::net {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

// ---------------------------------------------------------------- buffers

namespace {

std::uint8_t* map_pages(std::size_t bytes) {
  PDET_REQUIRE(bytes >= 1);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

void LinkBuffer::Unmap::operator()(std::uint8_t* p) const {
  ::munmap(p, bytes);
}

LinkBuffer::LinkBuffer(std::size_t capacity)
    : bytes_(map_pages(capacity), Unmap{capacity}), capacity_(capacity) {}

std::span<std::uint8_t> LinkBuffer::space() {
  if (head_ > 0 && (head_ >= size() || tail_ == capacity_)) compact();
  return {bytes_.get() + tail_, capacity_ - tail_};
}

void LinkBuffer::consume(std::size_t n) {
  PDET_ASSERT(n <= size());
  head_ += n;
  if (head_ == tail_) head_ = tail_ = 0;
}

bool LinkBuffer::append(std::span<const std::uint8_t> bytes) {
  if (space().size() < bytes.size()) compact();
  if (capacity_ - tail_ < bytes.size()) return false;
  std::memcpy(bytes_.get() + tail_, bytes.data(), bytes.size());
  tail_ += bytes.size();
  return true;
}

void LinkBuffer::compact() {
  std::memmove(bytes_.get(), bytes_.get() + head_, size());
  tail_ -= head_;
  head_ = 0;
}

void Link::reset() {
  sock_.close();
  rx_.clear();
  tx_.clear();
  pending_.clear();
  pending_sent_ = 0;
  bound_ = held_ = stalled_ = closing_ = draining_ = dead_ = false;
}

// ---------------------------------------------------------------- lifecycle

FrameServer::FrameServer(Options options, Handler& handler,
                         std::mutex& stats_mutex, runtime::NetStats& stats)
    : options_(std::move(options)),
      handler_(handler),
      stats_mutex_(stats_mutex),
      stats_(stats) {
  PDET_REQUIRE(options_.max_clients >= 1);
  PDET_REQUIRE(options_.rx_bytes >= wire::kHeaderSize);
  PDET_REQUIRE(options_.tx_bytes >= wire::kHeaderSize);
  clients_.reserve(static_cast<std::size_t>(options_.max_clients));
  for (int i = 0; i < options_.max_clients; ++i) {
    clients_.push_back(
        std::make_unique<Link>(i, options_.rx_bytes, options_.tx_bytes));
  }
  enc_.reserve(1024);
}

FrameServer::~FrameServer() {
  stop();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

bool FrameServer::start(std::string* error) {
  PDET_REQUIRE(!started_);
  listener_ = Socket::listen_tcp(options_.host, options_.port, 64, error);
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
  fds_.reserve(2 + clients_.size() + sessions_.size());
  started_ = true;
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_main(); });
  return true;
}

void FrameServer::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  running_.store(false, std::memory_order_release);
}

void FrameServer::wake() {
  if (wake_write_ < 0) return;
  const std::uint8_t b = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(wake_write_, &b, 1);
}

Link& FrameServer::add_session(std::size_t rx_bytes, std::size_t tx_bytes) {
  PDET_REQUIRE(!started_);
  sessions_.push_back(std::make_unique<Link>(
      static_cast<int>(sessions_.size()), rx_bytes, tx_bytes));
  return *sessions_.back();
}

void FrameServer::attach(Link& session, Socket sock) {
  session.reset();
  session.sock_ = std::move(sock);
  session.sock_.set_nodelay(true);
}

void FrameServer::close_session(Link& session) { session.reset(); }

// ------------------------------------------------------------------ output

bool FrameServer::send(Link& link, std::span<const std::uint8_t> frame) {
  if (!link.open() || !link.pending_.empty()) return false;
  if (!link.tx_.append(frame)) link.pending_.assign(frame.begin(), frame.end());
  return true;
}

void FrameServer::send_error(Link& link, wire::ErrorCode code,
                             const char* text) {
  err_.code = code;
  err_.message.assign(text);
  enc_.clear();
  wire::encode_error(err_, enc_);
  (void)send(link, enc_);
}

void FrameServer::hold(Link& link, bool held) { link.held_ = held; }

void FrameServer::fail(Link& link, wire::ErrorCode code, const char* text) {
  send_error(link, code, text);
  link.closing_ = true;
}

void FrameServer::count_decode_error() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.decode_errors;
}

void FrameServer::reject_frame(Link& link) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.decode_errors;
    ++stats_.frames_rejected;
  }
  send_error(link, wire::ErrorCode::kBadFrame,
             "invalid frame dimensions/payload");
}

// -------------------------------------------------------------------- io

bool FrameServer::receive(Link& link) {
  long long got_total = 0;
  bool alive = true;
  for (;;) {
    const std::span<std::uint8_t> space = link.rx_.space();
    if (space.empty()) break;  // full: the parser decides what that means
    std::size_t got = 0;
    const IoStatus status = recv_some(link.sock_.fd(), space, got);
    if (status == IoStatus::kOk) {
      link.rx_.commit(got);
      got_total += static_cast<long long>(got);
      if (got < space.size()) break;  // the socket is most likely drained
      continue;
    }
    alive = status == IoStatus::kWouldBlock;
    break;
  }
  if (got_total > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.bytes_in += got_total;
  }
  return alive;
}

bool FrameServer::flush(Link& link) {
  long long sent_total = 0;
  bool alive = true;
  for (;;) {
    // tx holds only frames queued before the pending one: send it first,
    // and never interleave a partly sent pending frame with tx bytes.
    const bool from_tx = link.pending_sent_ == 0 && !link.tx_.empty();
    if (!from_tx && link.pending_.empty()) break;
    const std::span<const std::uint8_t> out =
        from_tx ? std::span<const std::uint8_t>(link.tx_.data())
                : std::span<const std::uint8_t>(link.pending_)
                      .subspan(link.pending_sent_);
    std::size_t sent = 0;
    const IoStatus status = send_some(link.sock_.fd(), out, sent);
    if (status != IoStatus::kOk) {
      alive = status == IoStatus::kWouldBlock;
      break;
    }
    sent_total += static_cast<long long>(sent);
    if (from_tx) {
      link.tx_.consume(sent);
    } else if ((link.pending_sent_ += sent) == link.pending_.size()) {
      link.pending_.clear();
      link.pending_sent_ = 0;
    }
  }
  if (sent_total > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.bytes_out += sent_total;
  }
  return alive;
}

void FrameServer::parse(Link& link) {
  link.stalled_ = false;
  while (link.open() && !link.dead_ && !link.closing_ && !link.draining_) {
    if (link.held_ || !link.pending_.empty()) {
      link.stalled_ = !link.rx_.empty();
      return;
    }
    const std::span<std::uint8_t> data = link.rx_.data();
    wire::MsgType type{};
    std::size_t frame_size = 0;
    const wire::DecodeStatus status = wire::peek_frame(data, type, frame_size);
    if (status == wire::DecodeStatus::kNeedMore) {
      if (frame_size > link.rx_.capacity()) {
        count_decode_error();
        fail(link, wire::ErrorCode::kBadFrame, "frame exceeds link buffer");
      }
      return;
    }
    if (status == wire::DecodeStatus::kBadPayload &&
        type == wire::MsgType::kSubmitFrame) {
      // The frame passed its CRC, so the framing is sound — only the
      // SubmitFrame fields are invalid. Skip this one message, answer with
      // a wire Error, keep the link: one malformed frame must not kill a
      // camera feed.
      reject_frame(link);
      link.rx_.consume(frame_size);
      continue;
    }
    if (status != wire::DecodeStatus::kOk) {
      count_decode_error();
      fail(link, wire::ErrorCode::kProtocol, wire::to_string(status));
      return;
    }
    dispatch(link, data.first(frame_size), type);
    link.rx_.consume(frame_size);
  }
}

void FrameServer::dispatch(Link& link, std::span<std::uint8_t> frame,
                           wire::MsgType type) {
  switch (type) {
    case wire::MsgType::kHello: {
      if (wire::decode_frame(frame, type, msg_) != wire::DecodeStatus::kOk) {
        count_decode_error();
        fail(link, wire::ErrorCode::kProtocol,
             wire::to_string(wire::DecodeStatus::kBadPayload));
        return;
      }
      if (link.bound_) {
        fail(link, wire::ErrorCode::kProtocol, "duplicate hello");
        return;
      }
      if (msg_.hello.protocol_version != wire::kProtocolVersion) {
        fail(link, wire::ErrorCode::kVersionMismatch,
             "unsupported protocol version");
        return;
      }
      ack_.protocol_version = wire::kProtocolVersion;
      if (const char* refusal = handler_.bind(link, msg_.hello, ack_)) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.connections_refused;
        }
        fail(link, wire::ErrorCode::kBusy, refusal);
        return;
      }
      link.bound_ = true;
      enc_.clear();
      wire::encode_hello_ack(ack_, enc_);
      (void)send(link, enc_);
      return;
    }
    case wire::MsgType::kSubmitFrame: {
      if (!link.bound_) {
        fail(link, wire::ErrorCode::kProtocol, "frame before hello");
        return;
      }
      if (!handler_.submit(link, frame)) {
        reject_frame(link);
        return;
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_received;
      return;
    }
    case wire::MsgType::kStatsQuery:
    case wire::MsgType::kTelemetryQuery:
      handler_.query(link, type);
      return;
    case wire::MsgType::kShutdown:
      link.draining_ = true;
      return;
    case wire::MsgType::kError:
      // A client-reported error: tear this link down.
      link.closing_ = true;
      return;
    case wire::MsgType::kHelloAck:
    case wire::MsgType::kResult:
    case wire::MsgType::kStatsReport:
    case wire::MsgType::kTelemetryReport:
      fail(link, wire::ErrorCode::kProtocol,
           "server-to-client message from client");
      return;
  }
}

void FrameServer::read_session(Link& session) {
  if (!receive(session)) {
    lose_session(session);
    return;
  }
  while (session.open()) {
    const std::span<std::uint8_t> data = session.rx_.data();
    wire::MsgType type{};
    std::size_t frame_size = 0;
    const wire::DecodeStatus status = wire::peek_frame(data, type, frame_size);
    if (status == wire::DecodeStatus::kNeedMore) {
      // A frame bigger than the buffer can never complete.
      if (frame_size > session.rx_.capacity()) lose_session(session);
      return;
    }
    if (status != wire::DecodeStatus::kOk) {
      count_decode_error();
      lose_session(session);
      return;
    }
    handler_.session_frame(session, data.first(frame_size), type);
    if (session.open()) session.rx_.consume(frame_size);
  }
}

void FrameServer::lose_session(Link& session) {
  close_session(session);
  handler_.session_lost(session);
}

// -------------------------------------------------------- connections

void FrameServer::accept_all() {
  for (;;) {
    Socket sock = listener_.accept();
    if (!sock.valid()) return;
    const auto free_link =
        std::find_if(clients_.begin(), clients_.end(),
                     [](const auto& link) { return !link->open(); });
    if (free_link == clients_.end()) {
      // Pool full: refuse with a best-effort Error (a fresh socket's send
      // buffer takes it whole), then close — the client backs off.
      err_.code = wire::ErrorCode::kBusy;
      err_.message.assign("no free link");
      enc_.clear();
      wire::encode_error(err_, enc_);
      std::size_t sent = 0;
      (void)send_some(sock.fd(), enc_, sent);
      ::shutdown(sock.fd(), SHUT_WR);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_refused;
      stats_.bytes_out += static_cast<long long>(sent);
      continue;  // `sock` closes on scope exit
    }
    Link& link = **free_link;
    link.sock_ = std::move(sock);
    link.sock_.set_nodelay(true);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_accepted;
    ++stats_.active_connections;
  }
}

void FrameServer::reap() {
  for (const auto& link_ptr : clients_) {
    Link& link = *link_ptr;
    if (!link.open()) continue;
    const bool flushed = link.unsent() == 0;
    if (link.dead_ || (link.closing_ && flushed) ||
        (link.draining_ && flushed && !handler_.owes(link))) {
      release(link);
    }
  }
}

void FrameServer::release(Link& link) {
  handler_.closed(link);
  link.reset();
  ++link.generation_;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.connections_closed;
  --stats_.active_connections;
}

// ------------------------------------------------------------------ loop

void FrameServer::add_pollfd(Link& link, short events) {
  link.poll_at_ = static_cast<int>(fds_.size());
  fds_.push_back(pollfd{link.sock_.fd(), events, 0});
}

void FrameServer::turn(int timeout_ms, bool stopping) {
  fds_.clear();
  fds_.push_back(pollfd{wake_read_, POLLIN, 0});
  const bool listening = !stopping && listener_.valid();
  if (listening) fds_.push_back(pollfd{listener_.fd(), POLLIN, 0});
  for (const auto& session : sessions_) {
    session->poll_at_ = -1;
    if (!session->open()) continue;
    add_pollfd(*session, static_cast<short>(
                             POLLIN | (session->unsent() > 0 ? POLLOUT : 0)));
  }
  for (const auto& link_ptr : clients_) {
    Link& link = *link_ptr;
    link.poll_at_ = -1;
    if (!link.open()) continue;
    short events = link.unsent() > 0 ? POLLOUT : 0;
    if (!stopping && !link.closing_ && !link.draining_ &&
        !link.rx_.space().empty()) {
      events |= POLLIN;
    }
    // Input that waited on a hold or a pending frame may go on now.
    if (!stopping && link.stalled_ && !link.held_ && link.pending_.empty()) {
      timeout_ms = 0;
    }
    add_pollfd(link, events);
  }
  (void)::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), timeout_ms);

  if ((fds_[0].revents & POLLIN) != 0) {
    std::uint8_t drain[256];
    while (::read(wake_read_, drain, sizeof drain) > 0) {
    }
  }
  const bool acceptable = listening && (fds_[1].revents & POLLIN) != 0;

  for (const auto& session : sessions_) {
    if (session->poll_at_ < 0) continue;
    const short revents =
        fds_[static_cast<std::size_t>(session->poll_at_)].revents;
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      lose_session(*session);
    } else if ((revents & (POLLIN | POLLHUP)) != 0) {
      read_session(*session);
    }
  }
  for (const auto& link_ptr : clients_) {
    Link& link = *link_ptr;
    if (link.poll_at_ < 0) continue;
    const short revents = fds_[static_cast<std::size_t>(link.poll_at_)].revents;
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      link.dead_ = true;
    } else if ((revents & (POLLIN | POLLHUP)) != 0 && !stopping &&
               !link.closing_ && !link.draining_ && !receive(link)) {
      link.dead_ = true;
    }
  }
  if (!stopping) {
    for (const auto& link_ptr : clients_) parse(*link_ptr);
  }

  handler_.produce();
  for (const auto& session : sessions_) {
    if (session->open() && !flush(*session)) lose_session(*session);
  }
  for (const auto& link_ptr : clients_) {
    Link& link = *link_ptr;
    if (link.open() && !link.dead_ && !flush(link)) link.dead_ = true;
  }
  reap();
  if (acceptable) accept_all();
}

void FrameServer::io_main() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    turn(handler_.tick(), /*stopping=*/false);
  }

  // Stop-flush: no accepts and no client reads from here on; sessions keep
  // running so what the handler owes can still arrive. Bounded by
  // flush_timeout_ms, then everything closes.
  listener_.close();
  handler_.stopping();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.flush_timeout_ms));
  while (Clock::now() < deadline) {
    handler_.produce();
    const bool owed = std::any_of(
        clients_.begin(), clients_.end(), [this](const auto& link) {
          return link->open() && !link->dead_ &&
                 (link->unsent() > 0 || handler_.owes(*link));
        });
    if (!owed) break;
    turn(10, /*stopping=*/true);
  }
  for (const auto& link : clients_) {
    if (link->open()) release(*link);
  }
  for (const auto& session : sessions_) close_session(*session);
}

}  // namespace pdet::net
