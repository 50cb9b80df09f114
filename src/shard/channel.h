#ifndef CDIBOT_SHARD_CHANNEL_H_
#define CDIBOT_SHARD_CHANNEL_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/statusor.h"
#include "common/time.h"

namespace cdibot::shard {

/// An IPC-shaped duplex endpoint carrying opaque frames. The coordinator
/// and workers speak exclusively through this interface — request/response
/// structs are fully serialized into frames (see message.h/wire.h) even
/// for the in-process transport below, so a socket transport can slot in
/// without touching either side's logic.
///
/// Error vocabulary (callers key failure semantics off the code):
///   Unavailable       — the peer is gone (channel closed). The coordinator
///                       treats this as a dead shard: degraded DataQuality
///                       now, outbox replay on recovery.
///   Aborted           — Recv deadline expired with the peer still alive (a
///                       straggler). The response may arrive later; the
///                       request-id protocol discards it as stale.
///   ResourceExhausted — Send found the peer's inbound queue full
///                       (backpressure; the call protocol keeps depth
///                       bounded, so this signals a stuck peer).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues one frame to the peer. Non-blocking.
  virtual Status Send(std::string frame) = 0;

  /// Dequeues the next inbound frame, waiting up to `deadline` (infinite
  /// by default).
  virtual StatusOr<std::string> Recv(const Deadline& deadline = Deadline()) = 0;

  /// Closes both directions: pending Recvs wake with Unavailable once
  /// drained, future Sends fail. Idempotent; either side may close.
  virtual void Close() = 0;

  virtual bool closed() const = 0;

  /// Frames currently queued toward this endpoint (its inbound depth).
  virtual size_t inbound_depth() const = 0;
};

/// A connected pair of in-process endpoints backed by two bounded frame
/// queues (one per direction) — the local stand-in for a socket pair.
struct TransportPair {
  std::unique_ptr<Transport> coordinator_end;
  std::unique_ptr<Transport> worker_end;
};

/// Creates a connected in-process pair; each direction holds at most
/// `capacity` frames.
TransportPair MakeInProcessPair(size_t capacity = 4096);

}  // namespace cdibot::shard

#endif  // CDIBOT_SHARD_CHANNEL_H_
