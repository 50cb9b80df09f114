#ifndef CDIBOT_SHARD_SOCKET_TRANSPORT_H_
#define CDIBOT_SHARD_SOCKET_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "common/time.h"
#include "common/wire.h"
#include "shard/channel.h"

namespace cdibot::shard {

/// One frame over a stream socket is an ordinary message.h frame in the
/// length+CRC framing of common/wire.h (EncodeWireFrame). The CRC trailer
/// catches the bit-flips and splices the network chaos layer injects; the
/// socket layer is pure framing and never interprets the payload.

/// Tuning for a socket endpoint.
struct SocketTransportOptions {
  /// Frames whose length prefix exceeds this are rejected as DataLoss
  /// rather than trusted to allocate gigabytes: a corrupted length prefix
  /// is indistinguishable from a hostile one. Checkpoint frames for big
  /// shards are tens of MB at most.
  size_t max_frame_bytes = size_t{256} << 20;
};

/// Incremental frame reassembly over an arbitrary byte stream: Feed() the
/// bytes as they arrive (any split — the chaos suite feeds one byte at a
/// time), Next() pops completed payloads.
///
/// Next() returns:
///   OK        — one complete, CRC-verified payload
///   NotFound  — no complete frame buffered yet (feed more bytes)
///   DataLoss  — CRC mismatch or an oversize length prefix. Framing is lost
///               for good on a byte stream, so the error latches: every
///               later Next() repeats it and the connection must be torn
///               down.
class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_frame_bytes = size_t{256} << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(std::string_view bytes);
  StatusOr<std::string> Next();

  /// True when buffered bytes form an incomplete frame — EOF here means the
  /// peer died mid-write (a torn frame), not a clean shutdown.
  bool mid_frame() const { return poisoned_ ? false : pos_ < buf_.size(); }
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
  std::string error_;
};

/// Transport over a connected Unix-domain stream socket. Owns the
/// fd. Implements the Transport contract the in-process channel pins:
///
///   - Send appends one framed payload, handling short writes, EINTR and
///     poll()-based waits for socket-buffer space. A full send buffer blocks
///     (that is the socket's backpressure); a dead peer fails Unavailable.
///   - Recv reassembles frames from arbitrary read() splits. Deadline expiry
///     is Aborted; clean EOF after the last whole frame is Unavailable; EOF
///     mid-frame is a torn frame, surfaced as DataLoss (and counted in
///     shard.transport.torn_frames); a CRC-rejected frame is DataLoss and
///     latches — framing is unrecoverable on a byte stream.
///   - Close shuts the socket down in both directions (idempotent, safe from
///     any thread); blocked Recvs drain frames already assembled user-side,
///     then fail Unavailable. The fd itself is closed in the destructor.
///
/// Threading: one sender and one receiver may run concurrently with each
/// other and with Close()/closed()/inbound_depth(). Multiple concurrent
/// senders serialize on an internal mutex; the receive path assumes a
/// single consumer (the coordinator serializes per-shard calls, the worker
/// serves from one thread).
class SocketTransport final : public Transport {
 public:
  /// Takes ownership of a connected stream-socket fd.
  explicit SocketTransport(int fd, SocketTransportOptions options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  Status Send(std::string frame) override;
  StatusOr<std::string> Recv(const Deadline& deadline = Deadline()) override;
  void Close() override;
  bool closed() const override;
  size_t inbound_depth() const override;

  /// Writes raw bytes to the socket verbatim, bypassing the framing layer.
  /// This is the network-chaos hook: the fault injector builds a wire frame,
  /// mangles its bytes, and puts the damage on the real socket so the peer's
  /// assembler sees exactly what a hostile network would deliver.
  Status SendRaw(std::string_view bytes);

  int fd() const { return fd_; }

 private:
  /// poll()+write() loop: short writes resume where they left off, EINTR
  /// retries, a hung-up peer returns Unavailable.
  Status WriteAll(std::string_view bytes);
  /// One poll()+read() into the assembler. Requires recv_mu_ held.
  Status FillLocked(const Deadline& deadline);
  /// Moves completed frames out of the assembler into ready_. Requires
  /// recv_mu_ held.
  void DrainAssemblerLocked();

  const SocketTransportOptions options_;
  const int fd_;
  std::atomic<bool> closed_{false};

  std::mutex send_mu_;

  std::mutex recv_mu_;
  FrameAssembler assembler_;
  std::deque<std::string> ready_;
  std::atomic<size_t> ready_count_{0};
  bool eof_ = false;
  /// First unrecoverable receive error (CRC reject, torn frame, reset);
  /// returned once, then Unavailable.
  Status latched_;
  bool latched_reported_ = false;
};

/// A bound, listening Unix-domain socket producing SocketTransports.
/// Move-only; unlinks its path on destruction.
class SocketListener {
 public:
  SocketListener() = default;
  ~SocketListener();
  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&& other) noexcept;
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens on a Unix-domain socket at `path` (unlinking any
  /// stale file first). Fails InvalidArgument if the path exceeds
  /// sockaddr_un capacity.
  static StatusOr<SocketListener> BindUnix(const std::string& path);

  /// Waits up to `deadline` for one inbound connection. Aborted on deadline
  /// expiry, Unavailable once Close()d.
  StatusOr<std::unique_ptr<SocketTransport>> Accept(
      const Deadline& deadline = Deadline(),
      SocketTransportOptions options = {});

  /// Stops accepting: wakes a blocked Accept with Unavailable. Idempotent,
  /// safe from any thread. The fd closes in the destructor.
  void Close();

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;  // unlinked on destruction
  std::atomic<bool> closed_{false};
};

/// Connects to a Unix-domain socket, waiting up to `deadline` for the
/// connect to complete. A missing or refusing socket is Unavailable (the
/// server may not have bound yet — callers wrap this in RetryPolicy).
StatusOr<std::unique_ptr<SocketTransport>> ConnectUnix(
    const std::string& path, const Deadline& deadline = Deadline(),
    SocketTransportOptions options = {});

}  // namespace cdibot::shard

#endif  // CDIBOT_SHARD_SOCKET_TRANSPORT_H_
