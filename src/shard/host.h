#ifndef CDIBOT_SHARD_HOST_H_
#define CDIBOT_SHARD_HOST_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/statusor.h"
#include "common/time.h"
#include "shard/channel.h"
#include "shard/service.h"
#include "shard/socket_transport.h"
#include "shard/worker.h"
#include "stream/streaming_engine.h"

namespace cdibot::shard {

/// Wraps a freshly connected socket transport; the network chaos layer
/// uses this hook to interpose its fault-injecting decorator between the
/// coordinator and the wire. `shard` identifies the peer so per-shard
/// fault schedules stay deterministic across reconnects.
using SocketDecorator = std::function<std::unique_ptr<Transport>(
    std::unique_ptr<SocketTransport> transport, size_t shard)>;

/// Where one shard's worker lives and how to reach it. The coordinator
/// supervises workers exclusively through this interface, so the session
/// layer (connect, handshake, replay) is identical whether the worker is a
/// thread sharing the address space, a thread behind a Unix socket, or a
/// separate process the kernel can kill -9.
///
/// Lifecycle: hosts start dead; Respawn() launches (or relaunches) the
/// worker; Connect() dials a fresh transport to it; Kill() crashes it
/// (losing all in-memory engine state). Respawn after Kill models the
/// supervisor restarting a failed process.
///
/// Threading: calls on one host are serialized by the coordinator's
/// per-shard handle mutex; Alive() may be called concurrently.
class ShardHost {
 public:
  virtual ~ShardHost() = default;

  /// Launches or relaunches the worker. The worker starts with no engine
  /// (kInit creates it), so a respawned worker is indistinguishable from a
  /// brand-new one — which is the point.
  virtual Status Respawn() = 0;

  /// Dials a new transport to the worker, waiting up to `deadline`. A
  /// worker that has not finished binding yet returns Unavailable
  /// (retryable); callers wrap Connect in the reconnect backoff policy.
  virtual StatusOr<std::unique_ptr<Transport>> Connect(
      const Deadline& deadline) = 0;

  /// Hard-kills the worker, destroying its engine. Idempotent.
  virtual void Kill() = 0;

  virtual bool Alive() = 0;
};

/// The original PR-6 topology: worker thread + in-process channel pair.
/// The pair is created by Respawn() and handed out by the next Connect();
/// a second Connect() without a Respawn() fails FailedPrecondition (an
/// in-process channel cannot be re-dialed — there is no wire to redial).
class InProcessHost final : public ShardHost {
 public:
  InProcessHost(size_t index, const EventCatalog* catalog,
                const EventWeightModel* weights, StreamingCdiOptions options);
  ~InProcessHost() override;

  Status Respawn() override;
  StatusOr<std::unique_ptr<Transport>> Connect(
      const Deadline& deadline) override;
  void Kill() override;
  bool Alive() override;

 private:
  const size_t index_;
  const EventCatalog* catalog_;
  const EventWeightModel* weights_;
  StreamingCdiOptions options_;
  std::unique_ptr<ShardWorker> worker_;
  std::unique_ptr<Transport> coordinator_end_;
};

/// A worker thread serving a ShardService over a Unix-domain socket: real
/// wire framing, torn frames, reconnects — without process-spawn cost.
/// Connections can drop and redial while the engine lives on, which is
/// what exercises session *resumption* (vs restore).
class SocketThreadHost final : public ShardHost {
 public:
  SocketThreadHost(size_t index, const EventCatalog* catalog,
                   const EventWeightModel* weights,
                   StreamingCdiOptions options, std::string socket_path,
                   SocketTransportOptions transport_options,
                   SocketDecorator decorator);
  ~SocketThreadHost() override;

  Status Respawn() override;
  StatusOr<std::unique_ptr<Transport>> Connect(
      const Deadline& deadline) override;
  void Kill() override;
  bool Alive() override;

 private:
  const size_t index_;
  const std::string socket_path_;
  const SocketTransportOptions transport_options_;
  const SocketDecorator decorator_;
  std::unique_ptr<ShardService> service_;
  std::unique_ptr<ShardServer> server_;
};

/// A real child process running the shard_worker binary, reachable only
/// through its Unix socket and killable with SIGKILL — the honest failure
/// boundary. Alive() reaps zombies (waitpid WNOHANG) so an externally
/// killed worker reads as dead, not undead.
class ProcessHost final : public ShardHost {
 public:
  ProcessHost(size_t index, std::string binary, std::string socket_path,
              SocketTransportOptions transport_options,
              SocketDecorator decorator);
  ~ProcessHost() override;

  Status Respawn() override;
  StatusOr<std::unique_ptr<Transport>> Connect(
      const Deadline& deadline) override;
  void Kill() override;
  bool Alive() override;

  int pid() const { return pid_; }

 private:
  const size_t index_;
  const std::string binary_;
  const std::string socket_path_;
  const SocketTransportOptions transport_options_;
  const SocketDecorator decorator_;
  int pid_ = -1;
};

}  // namespace cdibot::shard

#endif  // CDIBOT_SHARD_HOST_H_
