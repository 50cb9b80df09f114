#include "shard/socket_transport.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace cdibot::shard {

namespace {

/// Bytes per read() into the frame assembler.
constexpr size_t kReadChunkBytes = 64 << 10;

struct TransportMetrics {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Counter* torn_frames;
  obs::Counter* crc_rejects;
  obs::Counter* oversize_rejects;
  obs::Counter* accepts;
  obs::Counter* connects;
};

const TransportMetrics& Metrics() {
  static const TransportMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return TransportMetrics{
        .frames_sent = reg.GetCounter("shard.transport.frames_sent"),
        .frames_received = reg.GetCounter("shard.transport.frames_received"),
        .bytes_sent = reg.GetCounter("shard.transport.bytes_sent"),
        .bytes_received = reg.GetCounter("shard.transport.bytes_received"),
        .torn_frames = reg.GetCounter("shard.transport.torn_frames"),
        .crc_rejects = reg.GetCounter("shard.transport.crc_rejects"),
        .oversize_rejects = reg.GetCounter("shard.transport.oversize_rejects"),
        .accepts = reg.GetCounter("shard.transport.accepts"),
        .connects = reg.GetCounter("shard.transport.connects"),
    };
  }();
  return m;
}

uint32_t GetU32Le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

/// Remaining budget as a poll() timeout: -1 for infinite, clamped to int
/// range (Deadline caps "infinite" Remaining() at a year, which overflows
/// int milliseconds).
int PollTimeoutMs(const Deadline& deadline) {
  if (deadline.IsInfinite()) return -1;
  const int64_t ms = deadline.Remaining().millis();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(ms, 1 << 30));
}

/// poll() one fd for `events`, honoring the deadline and EINTR. Returns
/// OK when an event is pending, Aborted on deadline expiry.
Status PollFd(int fd, short events, const Deadline& deadline) {
  while (true) {
    if (!deadline.IsInfinite() && deadline.Expired()) {
      return Status::Aborted("socket wait deadline expired");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::Aborted("socket wait deadline expired");
    if (errno == EINTR) continue;
    return Status::Internal(std::string("poll failed: ") + strerror(errno));
  }
}

void SetCloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

}  // namespace

void FrameAssembler::Feed(std::string_view bytes) {
  if (poisoned_) return;
  // Compact the consumed prefix before it grows unbounded.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64 << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

StatusOr<std::string> FrameAssembler::Next() {
  if (poisoned_) return Status::DataLoss(error_);
  const size_t avail = buf_.size() - pos_;
  if (avail < kWireHeaderBytes) {
    return Status::NotFound("incomplete frame");
  }
  const uint32_t len = GetU32Le(buf_.data() + pos_);
  if (len > max_frame_bytes_) {
    poisoned_ = true;
    error_ = "wire frame length " + std::to_string(len) +
             " exceeds limit (corrupt length prefix?)";
    Metrics().oversize_rejects->Increment();
    return Status::DataLoss(error_);
  }
  const size_t total = kWireHeaderBytes + static_cast<size_t>(len) +
                       kWireTrailerBytes;
  if (avail < total) return Status::NotFound("incomplete frame");
  auto payload = DecodeWireFrame(std::string_view(buf_).substr(pos_, total));
  if (!payload.ok()) {
    poisoned_ = true;
    error_ = payload.status().message();
    Metrics().crc_rejects->Increment();
    return payload.status();
  }
  std::string out(*payload);
  pos_ += total;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return out;
}

SocketTransport::SocketTransport(int fd, SocketTransportOptions options)
    : options_(options), fd_(fd), assembler_(options.max_frame_bytes) {}

SocketTransport::~SocketTransport() {
  Close();
  if (fd_ >= 0) ::close(fd_);
}

Status SocketTransport::WriteAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full: the peer is slow. Block until writable — this
      // is the transport's backpressure (the in-process channel returns
      // ResourceExhausted from a bounded queue; a socket's bound is its
      // kernel buffer).
      Status st = PollFd(fd_, POLLOUT, Deadline());
      if (!st.ok()) return st;
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      closed_.store(true, std::memory_order_release);
      return Status::Unavailable("transport closed (peer gone)");
    }
    return Status::Internal(std::string("socket send failed: ") +
                            strerror(errno));
  }
  return Status::OK();
}

Status SocketTransport::Send(std::string frame) {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("transport closed");
  }
  const std::string wire = EncodeWireFrame(frame);
  CDIBOT_RETURN_IF_ERROR(WriteAll(wire));
  Metrics().frames_sent->Increment();
  Metrics().bytes_sent->Add(wire.size());
  return Status::OK();
}

Status SocketTransport::SendRaw(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("transport closed");
  }
  CDIBOT_RETURN_IF_ERROR(WriteAll(bytes));
  Metrics().bytes_sent->Add(bytes.size());
  return Status::OK();
}

void SocketTransport::DrainAssemblerLocked() {
  while (true) {
    auto frame_or = assembler_.Next();
    if (frame_or.ok()) {
      ready_.push_back(std::move(frame_or).value());
      ready_count_.store(ready_.size(), std::memory_order_release);
      Metrics().frames_received->Increment();
      continue;
    }
    if (frame_or.status().code() == StatusCode::kDataLoss && latched_.ok()) {
      // CRC reject / oversize: the byte stream is unframeable from here on.
      latched_ = frame_or.status();
    }
    return;
  }
}

Status SocketTransport::FillLocked(const Deadline& deadline) {
  CDIBOT_RETURN_IF_ERROR(PollFd(fd_, POLLIN, deadline));
  std::string chunk(kReadChunkBytes, '\0');
  while (true) {
    const ssize_t n = ::recv(fd_, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      assembler_.Feed(std::string_view(chunk.data(), static_cast<size_t>(n)));
      Metrics().bytes_received->Add(static_cast<uint64_t>(n));
      DrainAssemblerLocked();
      return Status::OK();
    }
    if (n == 0) {
      eof_ = true;
      return Status::OK();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno == ECONNRESET) {
      // A reset tears whatever was in flight; mid-frame bytes are a torn
      // frame exactly like an EOF mid-frame.
      eof_ = true;
      return Status::OK();
    }
    return Status::Internal(std::string("socket recv failed: ") +
                            strerror(errno));
  }
}

StatusOr<std::string> SocketTransport::Recv(const Deadline& deadline) {
  std::unique_lock<std::mutex> lock(recv_mu_);
  while (true) {
    if (!ready_.empty()) {
      // Close() drains already-assembled frames first (the contract the
      // in-process channel pins): data that fully arrived is delivered.
      std::string frame = std::move(ready_.front());
      ready_.pop_front();
      ready_count_.store(ready_.size(), std::memory_order_release);
      return frame;
    }
    if (!latched_.ok()) {
      if (!latched_reported_) {
        latched_reported_ = true;
        return latched_;
      }
      return Status::Unavailable("transport closed (unrecoverable stream)");
    }
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("transport closed");
    }
    if (eof_) {
      if (assembler_.mid_frame()) {
        // The peer died mid-write: a torn frame. Latch DataLoss so the
        // caller can distinguish "peer went away between frames" (clean
        // Unavailable, outbox replay suffices) from "a frame tore" (the
        // reconnect path must treat the in-flight request as unresolved).
        Metrics().torn_frames->Increment();
        latched_ = Status::DataLoss(
            "torn frame: connection ended mid-frame (" +
            std::to_string(assembler_.buffered_bytes()) + " bytes buffered)");
        latched_reported_ = true;
        return latched_;
      }
      return Status::Unavailable("transport closed (peer gone)");
    }
    // Blocking in poll() with recv_mu_ held is safe: Close() never takes
    // recv_mu_ — it shuts the socket down, which wakes the poll.
    Status st = FillLocked(deadline);
    if (!st.ok()) return st;  // Aborted (deadline) or Internal
  }
}

void SocketTransport::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown(), not close(): wakes any thread blocked in poll() on this fd
  // without invalidating the descriptor under it. The fd is released in the
  // destructor, when no caller can still hold it.
  (void)::shutdown(fd_, SHUT_RDWR);
}

bool SocketTransport::closed() const {
  return closed_.load(std::memory_order_acquire);
}

size_t SocketTransport::inbound_depth() const {
  return ready_count_.load(std::memory_order_acquire);
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (!path_.empty()) ::unlink(path_.c_str());
  }
}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      closed_(other.closed_.load(std::memory_order_acquire)) {
  other.fd_ = -1;
  other.path_.clear();
}

SocketListener& SocketListener::operator=(SocketListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      if (!path_.empty()) ::unlink(path_.c_str());
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    closed_.store(other.closed_.load(std::memory_order_acquire),
                  std::memory_order_release);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

StatusOr<SocketListener> SocketListener::BindUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            strerror(errno));
  }
  SetCloexec(fd);
  ::unlink(path.c_str());
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::Internal("bind(" + path + ") failed: " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return Status::Internal("listen(" + path + ") failed: " + err);
  }
  SocketListener l;
  l.fd_ = fd;
  l.path_ = path;
  return l;
}

StatusOr<std::unique_ptr<SocketTransport>> SocketListener::Accept(
    const Deadline& deadline, SocketTransportOptions options) {
  if (fd_ < 0) return Status::FailedPrecondition("listener not bound");
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("listener closed");
    }
    CDIBOT_RETURN_IF_ERROR(PollFd(fd_, POLLIN, deadline));
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("listener closed");
    }
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      SetCloexec(conn);
      Metrics().accepts->Increment();
      return std::make_unique<SocketTransport>(conn, options);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EINVAL || errno == EBADF) {
      return Status::Unavailable("listener closed");
    }
    return Status::Internal(std::string("accept failed: ") + strerror(errno));
  }
}

void SocketListener::Close() {
  if (fd_ < 0) return;
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  (void)::shutdown(fd_, SHUT_RDWR);
}

StatusOr<std::unique_ptr<SocketTransport>> ConnectUnix(
    const std::string& path, const Deadline& deadline,
    SocketTransportOptions options) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            strerror(errno));
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  SetCloexec(fd);
  // Non-blocking connect so the deadline bounds the wait.
  const int flags = ::fcntl(fd, F_GETFL);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc < 0 && errno == EINTR) {
    // In-progress after EINTR; fall through to the poll below.
    rc = -1;
    errno = EINPROGRESS;
  }
  if (rc < 0 && errno == EINPROGRESS) {
    Status st = PollFd(fd, POLLOUT, deadline);
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    int err = 0;
    socklen_t errlen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen) < 0 ||
        err != 0) {
      ::close(fd);
      return Status::Unavailable("connect(" + path +
                                 ") failed: " + strerror(err ? err : errno));
    }
  } else if (rc < 0) {
    const int err = errno;
    ::close(fd);
    // ENOENT/ECONNREFUSED: the server has not bound yet (or died). Both are
    // Unavailable so RetryPolicy treats them as retryable.
    return Status::Unavailable("connect(" + path +
                               ") failed: " + strerror(err));
  }
  (void)::fcntl(fd, F_SETFL, flags);
  Metrics().connects->Increment();
  return std::make_unique<SocketTransport>(fd, options);
}

}  // namespace cdibot::shard
