#include "shard/host.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

extern char** environ;

namespace cdibot::shard {

namespace {

/// Applies the chaos decorator (when present) to a freshly dialed socket.
StatusOr<std::unique_ptr<Transport>> Decorate(
    StatusOr<std::unique_ptr<SocketTransport>> conn_or,
    const SocketDecorator& decorator, size_t shard) {
  CDIBOT_RETURN_IF_ERROR(conn_or.status());
  std::unique_ptr<SocketTransport> conn = std::move(conn_or).value();
  if (decorator != nullptr) return decorator(std::move(conn), shard);
  return std::unique_ptr<Transport>(std::move(conn));
}

}  // namespace

// --- InProcessHost ---------------------------------------------------------

InProcessHost::InProcessHost(size_t index, const EventCatalog* catalog,
                             const EventWeightModel* weights,
                             StreamingCdiOptions options)
    : index_(index),
      catalog_(catalog),
      weights_(weights),
      options_(std::move(options)) {}

InProcessHost::~InProcessHost() { Kill(); }

Status InProcessHost::Respawn() {
  Kill();
  TransportPair pair = MakeInProcessPair();
  worker_ = std::make_unique<ShardWorker>(index_, catalog_, weights_,
                                          options_, std::move(pair.worker_end));
  worker_->Start();
  coordinator_end_ = std::move(pair.coordinator_end);
  return Status::OK();
}

StatusOr<std::unique_ptr<Transport>> InProcessHost::Connect(
    const Deadline& /*deadline*/) {
  if (coordinator_end_ == nullptr) {
    return Status::FailedPrecondition(
        "in-process channel already taken; respawn the worker to reconnect");
  }
  return std::move(coordinator_end_);
}

void InProcessHost::Kill() {
  if (worker_ != nullptr) worker_->Kill();
  worker_.reset();
  coordinator_end_.reset();
}

bool InProcessHost::Alive() { return worker_ != nullptr && worker_->alive(); }

// --- SocketThreadHost ------------------------------------------------------

SocketThreadHost::SocketThreadHost(size_t index, const EventCatalog* catalog,
                                   const EventWeightModel* weights,
                                   StreamingCdiOptions options,
                                   std::string socket_path,
                                   SocketTransportOptions transport_options,
                                   SocketDecorator decorator)
    : index_(index),
      socket_path_(std::move(socket_path)),
      transport_options_(transport_options),
      decorator_(std::move(decorator)),
      service_(std::make_unique<ShardService>(index, catalog, weights,
                                              std::move(options))) {}

SocketThreadHost::~SocketThreadHost() { Kill(); }

Status SocketThreadHost::Respawn() {
  Kill();
  CDIBOT_ASSIGN_OR_RETURN(SocketListener listener,
                          SocketListener::BindUnix(socket_path_));
  server_ = std::make_unique<ShardServer>(service_.get(), std::move(listener),
                                          transport_options_);
  server_->Start();
  return Status::OK();
}

StatusOr<std::unique_ptr<Transport>> SocketThreadHost::Connect(
    const Deadline& deadline) {
  return Decorate(ConnectUnix(socket_path_, deadline, transport_options_),
                  decorator_, index_);
}

void SocketThreadHost::Kill() {
  if (server_ == nullptr) return;
  server_->Kill();  // stop + engine reset: the "process" died
  server_.reset();
}

bool SocketThreadHost::Alive() {
  return server_ != nullptr && server_->running();
}

// --- ProcessHost -----------------------------------------------------------

ProcessHost::ProcessHost(size_t index, std::string binary,
                         std::string socket_path,
                         SocketTransportOptions transport_options,
                         SocketDecorator decorator)
    : index_(index),
      binary_(std::move(binary)),
      socket_path_(std::move(socket_path)),
      transport_options_(transport_options),
      decorator_(std::move(decorator)) {}

ProcessHost::~ProcessHost() { Kill(); }

Status ProcessHost::Respawn() {
  Kill();
  // The child binds the listener itself; clear any stale socket file so a
  // respawn at the same address cannot dial the previous incarnation.
  ::unlink(socket_path_.c_str());

  const std::string index_arg = std::to_string(index_);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary_.c_str()));
  argv.push_back(const_cast<char*>("--listen"));
  argv.push_back(const_cast<char*>(socket_path_.c_str()));
  argv.push_back(const_cast<char*>("--index"));
  argv.push_back(const_cast<char*>(index_arg.c_str()));
  argv.push_back(nullptr);

  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, binary_.c_str(), nullptr, nullptr, argv.data(),
                    environ);
  if (rc != 0) {
    return Status::Internal("posix_spawn " + binary_ + ": " +
                            std::strerror(rc));
  }
  pid_ = static_cast<int>(pid);
  return Status::OK();
}

StatusOr<std::unique_ptr<Transport>> ProcessHost::Connect(
    const Deadline& deadline) {
  if (!Alive()) return Status::Unavailable("shard worker process not running");
  return Decorate(ConnectUnix(socket_path_, deadline, transport_options_),
                  decorator_, index_);
}

void ProcessHost::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  ::unlink(socket_path_.c_str());
}

bool ProcessHost::Alive() {
  if (pid_ <= 0) return false;
  int wstatus = 0;
  const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
  if (r == 0) return true;  // still running
  // Exited (reaped now) or unreachable: either way, dead.
  pid_ = -1;
  return false;
}

}  // namespace cdibot::shard
