#include "shard/coordinator.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "obs/trace.h"

namespace cdibot::shard {

namespace {

/// Extra wait beyond the worker's compute budget before a gather response
/// is declared a straggler: covers queueing and serialization, not compute.
constexpr int64_t kGatherGraceMs = 250;

struct CoordMetrics {
  obs::Histogram* gather_ns;
  obs::Histogram* gather_shard_ns;
  obs::Counter* gathers;
  obs::Counter* degraded_gathers;
  obs::Counter* rebalances;
  obs::Counter* vms_moved;
  obs::Counter* failures;
  obs::Counter* recoveries;
  obs::Counter* events_routed;
  obs::Counter* batches_flushed;
  obs::Counter* reconnects;
  obs::Counter* sessions_resumed;
  obs::Counter* sessions_restored;
  obs::Counter* call_retries;
  obs::Counter* heartbeats;
  obs::Counter* heartbeat_failures;
  obs::Histogram* heartbeat_rtt_ns;
  obs::Gauge* shards_alive;
  obs::Gauge* min_watermark_ms;
};

const CoordMetrics& Metrics() {
  static const CoordMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return CoordMetrics{
        .gather_ns = reg.GetHistogram("shard.gather_ns"),
        .gather_shard_ns = reg.GetHistogram("shard.gather_shard_ns"),
        .gathers = reg.GetCounter("shard.gathers"),
        .degraded_gathers = reg.GetCounter("shard.degraded_gathers"),
        .rebalances = reg.GetCounter("shard.rebalances"),
        .vms_moved = reg.GetCounter("shard.vms_moved"),
        .failures = reg.GetCounter("shard.failures"),
        .recoveries = reg.GetCounter("shard.recoveries"),
        .events_routed = reg.GetCounter("shard.events_routed"),
        .batches_flushed = reg.GetCounter("shard.batches_flushed"),
        .reconnects = reg.GetCounter("shard.transport.reconnects"),
        .sessions_resumed = reg.GetCounter("shard.transport.sessions_resumed"),
        .sessions_restored =
            reg.GetCounter("shard.transport.sessions_restored"),
        .call_retries = reg.GetCounter("shard.transport.call_retries"),
        .heartbeats = reg.GetCounter("shard.transport.heartbeats"),
        .heartbeat_failures =
            reg.GetCounter("shard.transport.heartbeat_failures"),
        .heartbeat_rtt_ns =
            reg.GetHistogram("shard.transport.heartbeat_rtt_ns"),
        .shards_alive = reg.GetGauge("shard.shards_alive"),
        .min_watermark_ms = reg.GetGauge("shard.min_watermark_ms"),
    };
  }();
  return m;
}

/// Coordinator-side per-kind RPC instrumentation: round-trip latency and
/// frame sizes for completed exchanges, keyed by the request kind.
struct RpcCallMetrics {
  obs::Histogram* call_ns;
  obs::Histogram* send_bytes;
  obs::Histogram* recv_bytes;
};

constexpr uint32_t kNumKinds =
    static_cast<uint32_t>(MessageKind::kObsSnapshot) + 1;

/// Reads the kind tag straight out of an encoded request frame (the u32
/// after the u64 request id, little-endian on the wire) and returns that
/// kind's metrics row; null for frames too short or unknown kinds.
const RpcCallMetrics* CallMetricsForFrame(const std::string& frame) {
  if (frame.size() < 12) return nullptr;
  const auto* b = reinterpret_cast<const unsigned char*>(frame.data() + 8);
  const uint32_t kind = static_cast<uint32_t>(b[0]) |
                        static_cast<uint32_t>(b[1]) << 8 |
                        static_cast<uint32_t>(b[2]) << 16 |
                        static_cast<uint32_t>(b[3]) << 24;
  if (!IsMessageKind(kind)) return nullptr;
  static const std::array<RpcCallMetrics, kNumKinds>& table = *[] {
    auto* t = new std::array<RpcCallMetrics, kNumKinds>{};
    auto& reg = obs::MetricsRegistry::Global();
    for (uint32_t k = 1; k < kNumKinds; ++k) {
      if (!IsMessageKind(k)) continue;
      const std::string base =
          std::string("shard.rpc.") +
          MessageKindName(static_cast<MessageKind>(k));
      (*t)[k] = RpcCallMetrics{
          .call_ns = reg.GetHistogram(base + ".call_ns"),
          .send_bytes = reg.GetHistogram(base + ".send_bytes"),
          .recv_bytes = reg.GetHistogram(base + ".recv_bytes"),
      };
    }
    return t;
  }();
  return &table[kind];
}

/// Decodes a response frame and surfaces transport-level garbage and
/// worker-side errors uniformly. The returned frame backs hdr.reader.
Status CheckResponse(const StatusOr<std::string>& frame_or,
                     ResponseFrame* hdr) {
  CDIBOT_RETURN_IF_ERROR(frame_or.status());
  CDIBOT_ASSIGN_OR_RETURN(*hdr, DecodeResponseHeader(frame_or.value()));
  return hdr->status;
}

/// One request/response exchange on a transport that is not yet installed
/// as a handle's channel (session handshake traffic). Discards frames that
/// do not decode or answer an abandoned id.
StatusOr<std::string> RoundTrip(Transport& t, uint64_t request_id,
                                const std::string& frame,
                                const Deadline& deadline) {
  CDIBOT_RETURN_IF_ERROR(t.Send(frame));
  while (true) {
    auto frame_or = t.Recv(deadline);
    if (!frame_or.ok()) return frame_or.status();
    auto hdr_or = DecodeResponseHeader(frame_or.value());
    if (!hdr_or.ok()) continue;
    if (hdr_or.value().request_id != request_id) continue;
    return std::move(frame_or).value();
  }
}

/// True for establish-time failures the worker decided (engine rejected
/// the options, unsupported config): retrying cannot change the answer.
bool EstablishPermanent(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
    case StatusCode::kUnimplemented:
    case StatusCode::kOutOfRange:
      return true;
    default:
      return false;
  }
}

}  // namespace

ShardCoordinator::ShardCoordinator(const EventCatalog* catalog,
                                   const EventWeightModel* weights,
                                   ShardTopologyOptions options)
    : catalog_(catalog),
      weights_(weights),
      options_(std::move(options)),
      map_(options_.num_shards) {}

ShardCoordinator::~ShardCoordinator() {
  {
    std::lock_guard<std::mutex> lock(heartbeat_mu_);
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  for (auto& h : handles_) {
    if (h->channel != nullptr) h->channel->Close();
    if (h->host != nullptr) h->host->Kill();
  }
  for (const std::string& path : socket_paths_) ::unlink(path.c_str());
  if (!owned_socket_dir_.empty()) ::rmdir(owned_socket_dir_.c_str());
}

StatusOr<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Create(
    const EventCatalog* catalog, const EventWeightModel* weights,
    ShardTopologyOptions options) {
  if (catalog == nullptr || weights == nullptr) {
    return Status::InvalidArgument(
        "ShardCoordinator requires a catalog and a weight model");
  }
  options.num_shards = std::max<size_t>(1, options.num_shards);
  std::unique_ptr<ShardCoordinator> coord(
      new ShardCoordinator(catalog, weights, std::move(options)));
  CDIBOT_RETURN_IF_ERROR(coord->StartWorkers());
  return coord;
}

std::unique_ptr<ShardHost> ShardCoordinator::MakeHost(size_t shard) {
  switch (options_.transport) {
    case ShardTransportMode::kInProcess:
      return std::make_unique<InProcessHost>(shard, catalog_, weights_,
                                             options_.engine);
    case ShardTransportMode::kSocketThread: {
      std::string path =
          options_.socket_dir + "/shard-" + std::to_string(shard) + ".sock";
      socket_paths_.push_back(path);
      return std::make_unique<SocketThreadHost>(
          shard, catalog_, weights_, options_.engine, std::move(path),
          options_.socket, options_.transport_decorator);
    }
    case ShardTransportMode::kSocketProcess: {
      std::string path =
          options_.socket_dir + "/shard-" + std::to_string(shard) + ".sock";
      socket_paths_.push_back(path);
      return std::make_unique<ProcessHost>(shard, options_.worker_binary,
                                           std::move(path), options_.socket,
                                           options_.transport_decorator);
    }
  }
  return nullptr;
}

Status ShardCoordinator::StartWorkers() {
  const size_t n = options_.num_shards;
  if (options_.transport != ShardTransportMode::kInProcess) {
    if (options_.transport == ShardTransportMode::kSocketProcess) {
      if (options_.worker_binary.empty()) {
        return Status::InvalidArgument(
            "kSocketProcess requires worker_binary");
      }
      if (!options_.weight_spec.has_value()) {
        return Status::InvalidArgument(
            "kSocketProcess requires weight_spec: a child process cannot "
            "borrow the coordinator's weight model");
      }
    }
    if (options_.socket_dir.empty()) {
      char tmpl[] = "/tmp/cdibot-shard-XXXXXX";
      if (::mkdtemp(tmpl) == nullptr) {
        return Status::Internal("mkdtemp failed for shard socket dir");
      }
      owned_socket_dir_ = tmpl;
      options_.socket_dir = owned_socket_dir_;
    }
  }

  auto& reg = obs::MetricsRegistry::Global();
  handles_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto h = std::make_unique<Handle>();
    h->index = i;
    h->host = MakeHost(i);
    CDIBOT_RETURN_IF_ERROR(h->host->Respawn());
    h->connected_gauge =
        reg.GetGauge("shard.session.connected." + std::to_string(i));
    h->outbox_gauge =
        reg.GetGauge("shard.session.outbox_depth." + std::to_string(i));
    handles_.push_back(std::move(h));
  }
  for (auto& hp : handles_) {
    std::lock_guard<std::mutex> lock(hp->mu);
    // The handshake runs kInit, so an engine that rejects the options
    // fails Create() here — same contract as the in-process-only fleet.
    CDIBOT_RETURN_IF_ERROR(EstablishWithRetryLocked(*hp));
  }
  pool_ = std::make_unique<ThreadPool>(n);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.num_shards = n;
  }
  Metrics().shards_alive->Set(static_cast<double>(n));
  if (options_.session.heartbeat_interval > Duration::Zero()) {
    heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  }
  return Status::OK();
}

void ShardCoordinator::MarkDead(Handle& h) {
  if (!h.alive.exchange(false, std::memory_order_acq_rel)) return;
  if (h.connected_gauge != nullptr) h.connected_gauge->Set(0.0);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shard_failures;
  }
  Metrics().failures->Increment();
  size_t alive = 0;
  for (const auto& other : handles_) {
    if (other->alive.load(std::memory_order_acquire)) ++alive;
  }
  Metrics().shards_alive->Set(static_cast<double>(alive));
}

StatusOr<std::string> ShardCoordinator::AttemptLocked(
    Handle& h, uint64_t request_id, const std::string& frame,
    const Deadline& deadline) {
  if (h.channel == nullptr) {
    return Status::Unavailable("no connection to shard");
  }
  const RpcCallMetrics* rpc = CallMetricsForFrame(frame);
  const uint64_t start_ns = obs::MonotonicNowNs();
  CDIBOT_RETURN_IF_ERROR(h.channel->Send(frame));
  while (true) {
    auto frame_or = h.channel->Recv(deadline);
    if (!frame_or.ok()) return frame_or.status();
    auto hdr_or = DecodeResponseHeader(frame_or.value());
    // Undecodable frames and responses to earlier abandoned (timed-out)
    // requests are drained and discarded; only the matching id returns.
    if (!hdr_or.ok()) continue;
    if (hdr_or.value().request_id != request_id) continue;
    if (rpc != nullptr) {
      rpc->call_ns->Record(obs::MonotonicNowNs() - start_ns);
      rpc->send_bytes->Record(frame.size());
      rpc->recv_bytes->Record(frame_or.value().size());
    }
    return std::move(frame_or).value();
  }
}

Status ShardCoordinator::EstablishSessionLocked(Handle& h) {
  if (h.host == nullptr) return Status::Internal("shard has no host");
  if (!h.host->Alive()) return Status::Unavailable("shard host dead");
  if (h.channel != nullptr) {
    h.channel->Close();
    h.channel.reset();
  }
  const ShardSessionOptions& s = options_.session;

  // Dial with full-jitter backoff: a freshly spawned worker may not have
  // bound its socket yet, and under chaos the first dial often dies.
  RetryPolicy policy(s.reconnect_backoff,
                     /*jitter_seed=*/static_cast<uint64_t>(h.index) + 1);
  std::unique_ptr<Transport> channel;
  Status dialed = policy.Run([&] {
    auto t_or = h.host->Connect(Deadline::After(s.connect_timeout));
    if (!t_or.ok()) return t_or.status();
    channel = std::move(t_or).value();
    return Status::OK();
  });
  if (!dialed.ok()) return dialed;

  // Handshake steps share a per-step budget: the connect timeout, tightened
  // by the per-attempt call timeout when one is configured (a swallowed
  // handshake response must turn into a quick redial, not a long stall).
  const Duration step_budget =
      (!s.call_timeout.IsZero() && s.call_timeout < s.connect_timeout)
          ? s.call_timeout
          : s.connect_timeout;

  // kHello: does the worker still hold an engine from a previous session?
  uint64_t id = h.next_request_id++;
  ResponseFrame hdr;
  // The frame must outlive hdr.reader, which points into it.
  StatusOr<std::string> hello_frame_or =
      RoundTrip(*channel, id, EncodeHello(id), Deadline::After(step_budget));
  CDIBOT_RETURN_IF_ERROR(CheckResponse(hello_frame_or, &hdr));
  const HelloInfo hello = DecodeHelloInfo(hdr.reader);
  CDIBOT_RETURN_IF_ERROR(hdr.reader.status());

  if (!hello.engine_ready) {
    // The engine itself is gone (fresh or respawned worker): any recorded
    // rebuild progress is void, start over.
    h.rebuild_stage = Handle::RebuildStage::kStart;
    h.replay_cursor = 0;
    h.session_complete = false;
  }
  const bool rebuilt = !h.session_complete;
  if (!h.session_complete) {
    // Rebuild: init, restore the checkpoint baseline, then replay every
    // acknowledged mutation since — verbatim, original ids, original order
    // — so the rebuilt engine is bit-identical to the dead one at its last
    // acknowledged request. Each step commits its progress only after the
    // worker confirmed it, so a connection lost mid-handshake resumes here
    // instead of restarting (kInit and kRestore re-execute harmlessly when
    // their confirmation was the lost frame; replayed ids the worker
    // already applied come back as dedup-acknowledged no-ops).
    if (h.rebuild_stage == Handle::RebuildStage::kStart) {
      id = h.next_request_id++;
      CDIBOT_RETURN_IF_ERROR(CheckResponse(
          RoundTrip(
              *channel, id,
              EncodeInit(id, options_.engine.window,
                         options_.engine.allowed_lateness,
                         static_cast<uint32_t>(options_.engine.num_shards),
                         options_.weight_spec, options_.worker_tracing),
              Deadline::After(step_budget)),
          &hdr));
      h.rebuild_stage = Handle::RebuildStage::kInitDone;
    }
    if (h.rebuild_stage == Handle::RebuildStage::kInitDone) {
      if (h.has_checkpoint) {
        id = h.next_request_id++;
        CDIBOT_RETURN_IF_ERROR(CheckResponse(
            RoundTrip(*channel, id, EncodeRestore(id, h.last_checkpoint),
                      Deadline::After(step_budget)),
            &hdr));
      }
      h.rebuild_stage = Handle::RebuildStage::kRestoreDone;
    }
    for (; h.replay_cursor < h.outbox.size(); ++h.replay_cursor) {
      const OutboxEntry& entry = h.outbox[h.replay_cursor];
      CDIBOT_RETURN_IF_ERROR(CheckResponse(
          RoundTrip(*channel, entry.request_id, entry.frame,
                    Deadline::After(step_budget)),
          &hdr));
    }
    h.session_complete = true;
  }

  h.channel = std::move(channel);
  h.alive.store(true, std::memory_order_release);
  if (h.connected_gauge != nullptr) h.connected_gauge->Set(1.0);
  if (h.ever_connected) {
    Metrics().reconnects->Increment();
    (rebuilt ? Metrics().sessions_restored : Metrics().sessions_resumed)
        ->Increment();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reconnects;
    if (rebuilt) {
      ++stats_.sessions_restored;
    } else {
      ++stats_.sessions_resumed;
    }
  }
  h.ever_connected = true;
  return Status::OK();
}

Status ShardCoordinator::EstablishWithRetryLocked(Handle& h) {
  const size_t max_attempts =
      std::max<size_t>(1, options_.session.max_call_attempts);
  Status est;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    est = EstablishSessionLocked(h);
    if (est.ok()) return est;
    if (EstablishPermanent(est)) break;
    if (h.host == nullptr || !h.host->Alive()) break;
  }
  return est;
}

Status ShardCoordinator::ResolveInFlightLocked(Handle& h) {
  if (!h.in_flight.has_value()) return Status::OK();
  const ShardSessionOptions& s = options_.session;
  const Deadline attempt_deadline = s.call_timeout.IsZero()
                                        ? Deadline()
                                        : Deadline::After(s.call_timeout);
  // Resend the parked frame with its ORIGINAL id: the worker either dedups
  // (it applied the original before the transport died) or applies it now.
  // Either way the outcome becomes known, exactly once.
  auto frame_or = AttemptLocked(h, h.in_flight->request_id,
                                h.in_flight->frame, attempt_deadline);
  CDIBOT_RETURN_IF_ERROR(frame_or.status());
  auto hdr_or = DecodeResponseHeader(frame_or.value());
  CDIBOT_RETURN_IF_ERROR(hdr_or.status());
  ResponseFrame hdr = std::move(hdr_or).value();

  OutboxEntry entry = std::move(*h.in_flight);
  h.in_flight.reset();

  auto req_or = DecodeRequestHeader(entry.frame);
  const MessageKind kind =
      req_or.ok() ? req_or.value().kind : MessageKind::kPing;
  if (kind == MessageKind::kExtractRange) {
    // The rebalance that issued this extract gave up on the move. The
    // extracted VMs exist only in the response fragment now — install
    // them straight back where they came from, as an ordinary (outboxed)
    // mutation, so they cannot evaporate.
    if (hdr.status.ok()) {
      StreamCheckpoint fragment = DecodeCheckpoint(hdr.reader);
      if (hdr.reader.ok() && !fragment.vms.empty()) {
        const uint64_t id = h.next_request_id++;
        return MutateLocked(h, id, EncodeInstallVms(id, fragment));
      }
    }
    return Status::OK();
  }
  // A worker-rejected mutation is a deterministic failure: it did not
  // apply, so it stays out of the replay log. The original caller already
  // saw a transport error for this request; the data-quality trail (deferred
  // accounting) is how its absence surfaces.
  if (hdr.status.ok()) h.outbox.push_back(std::move(entry));
  if (h.outbox_gauge != nullptr) {
    h.outbox_gauge->Set(static_cast<double>(h.outbox.size()));
  }
  return Status::OK();
}

StatusOr<std::string> ShardCoordinator::CallLocked(Handle& h,
                                                   uint64_t request_id,
                                                   const std::string& frame,
                                                   const Deadline& deadline) {
  const ShardSessionOptions& s = options_.session;
  const size_t max_attempts = std::max<size_t>(1, s.max_call_attempts);
  Status last = Status::Unavailable("shard call never attempted");
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      Metrics().call_retries->Increment();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.call_retries;
    }
    if (deadline.Expired()) {
      last = Status::Aborted("shard call deadline expired");
      break;
    }
    if (h.channel == nullptr || h.channel->closed()) {
      Status est = EstablishSessionLocked(h);
      if (!est.ok()) {
        last = est;
        // The worker rejecting the handshake (bad engine options) is
        // permanent; a dead host cannot come back without RecoverShard;
        // anything else (chaos eating the hello) is worth another dial.
        if (EstablishPermanent(est)) break;
        if (h.host == nullptr || !h.host->Alive()) break;
        continue;
      }
    }
    if (h.in_flight.has_value() && h.in_flight->request_id != request_id) {
      Status resolved = ResolveInFlightLocked(h);
      if (!resolved.ok()) {
        last = resolved;
        if (h.channel != nullptr) {
          h.channel->Close();
          h.channel.reset();
        }
        continue;
      }
    }
    Deadline attempt_deadline = deadline;
    if (!s.call_timeout.IsZero() &&
        (deadline.IsInfinite() || s.call_timeout < deadline.Remaining())) {
      attempt_deadline = Deadline::After(s.call_timeout);
    }
    auto frame_or = AttemptLocked(h, request_id, frame, attempt_deadline);
    if (frame_or.ok()) return frame_or;
    last = frame_or.status();
    // Backpressure is not a connection problem; surface it untouched.
    if (last.code() == StatusCode::kResourceExhausted) break;
    // With no per-attempt timeout configured, Aborted means the caller's
    // own deadline expired (a gather straggler): keep the channel — the
    // stale response drains on the next call.
    if (last.code() == StatusCode::kAborted &&
        (s.call_timeout.IsZero() || deadline.Expired())) {
      break;
    }
    // The connection is suspect (closed, torn frame, CRC poison, or a
    // swallowed response past its attempt budget): drop it. The next
    // attempt redials and resends the same id; the worker's session dedup
    // makes the resend exact.
    if (h.channel != nullptr) {
      h.channel->Close();
      h.channel.reset();
    }
  }
  if (last.code() == StatusCode::kUnavailable ||
      last.code() == StatusCode::kDataLoss) {
    MarkDead(h);
  }
  return last;
}

Status ShardCoordinator::MutateLocked(Handle& h, uint64_t request_id,
                                      std::string frame) {
  // Park the frame BEFORE the first send: from here until a response
  // decodes, the outcome is unknown and this slot is the one source of
  // truth for "must be resolved before any new traffic".
  h.in_flight = OutboxEntry{request_id, std::move(frame)};
  // Mutations wait out the worker (infinite overall deadline): an
  // abandoned mutation would be half-applied from the coordinator's point
  // of view, and the outbox must stay an exact replay log.
  auto frame_or = CallLocked(h, request_id, h.in_flight->frame, Deadline());
  if (!frame_or.ok()) return frame_or.status();  // outcome unknown: parked
  auto hdr_or = DecodeResponseHeader(frame_or.value());
  if (!hdr_or.ok()) return hdr_or.status();
  OutboxEntry entry = std::move(*h.in_flight);
  h.in_flight.reset();
  const Status st = hdr_or.value().status;
  // Worker-rejected mutations never applied; keep them out of the log.
  if (st.ok()) h.outbox.push_back(std::move(entry));
  if (h.outbox_gauge != nullptr) {
    h.outbox_gauge->Set(static_cast<double>(h.outbox.size()));
  }
  return st;
}

void ShardCoordinator::HeartbeatLoop() {
  const ShardSessionOptions& s = options_.session;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(heartbeat_mu_);
      heartbeat_cv_.wait_for(
          lock, std::chrono::milliseconds(s.heartbeat_interval.millis()),
          [this] { return heartbeat_stop_; });
      if (heartbeat_stop_) return;
    }
    for (auto& hp : handles_) {
      Handle& h = *hp;
      std::unique_lock<std::mutex> lock(h.mu, std::try_to_lock);
      // A shard busy with real traffic is provably alive; skip it rather
      // than queue a probe behind a long call.
      if (!lock.owns_lock()) continue;
      if (!h.alive.load(std::memory_order_acquire)) continue;
      if (h.channel == nullptr || h.channel->closed()) continue;
      const uint64_t id = h.next_request_id++;
      const auto t0 = std::chrono::steady_clock::now();
      auto frame_or = AttemptLocked(h, id, EncodePing(id),
                                    Deadline::After(s.heartbeat_timeout));
      ResponseFrame hdr;
      if (CheckResponse(frame_or, &hdr).ok()) {
        const auto rtt = std::chrono::steady_clock::now() - t0;
        Metrics().heartbeat_rtt_ns->Record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(rtt)
                .count()));
        Metrics().heartbeats->Increment();
        const TimePoint wm = hdr.reader.Time();
        if (hdr.reader.ok()) h.last_watermark = wm;
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.heartbeats;
      } else {
        // Probe failed: drop the connection so the next real call redials;
        // if the host itself is gone, the shard is dead, not slow.
        Metrics().heartbeat_failures->Increment();
        if (h.channel != nullptr) {
          h.channel->Close();
          h.channel.reset();
        }
        if (h.host == nullptr || !h.host->Alive()) MarkDead(h);
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.heartbeat_failures;
      }
    }
  }
}

std::shared_lock<std::shared_mutex> ShardCoordinator::ReadTopology() const {
  // Passing through the gate first makes writers starvation-free: a writer
  // waiting inside WriteTopology() holds the gate, which parks every new
  // reader here until the in-flight readers drain and the writer commits.
  std::lock_guard<std::mutex> gate(topo_gate_);
  return std::shared_lock<std::shared_mutex>(topo_mu_);
}

std::unique_lock<std::shared_mutex> ShardCoordinator::WriteTopology() const {
  std::lock_guard<std::mutex> gate(topo_gate_);
  return std::unique_lock<std::shared_mutex>(topo_mu_);
}

Status ShardCoordinator::RegisterVm(const VmServiceInfo& vm) {
  return RegisterVms({vm});
}

Status ShardCoordinator::RegisterVms(const std::vector<VmServiceInfo>& vms) {
  std::unique_lock<std::shared_mutex> topo = WriteTopology();
  // The first bulk registration defines the balanced cut; later arrivals
  // route by the existing map so no silent handoff happens outside
  // Rebalance().
  const bool recut = registry_.empty();
  for (const VmServiceInfo& vm : vms) {
    if (vm.vm_id.empty()) {
      return Status::InvalidArgument("VM registration without an id");
    }
    registry_[vm.vm_id] = vm;
  }
  if (recut && !registry_.empty()) {
    std::vector<std::string> ids;
    ids.reserve(registry_.size());
    for (const auto& [id, info] : registry_) ids.push_back(id);
    map_ = ShardMap::Balanced(ids, handles_.size());
  }
  Status first_err;
  for (const VmServiceInfo& vm : vms) {
    Handle& h = *handles_[map_.OwnerOf(vm.vm_id)];
    std::lock_guard<std::mutex> lock(h.mu);
    if (!h.alive.load(std::memory_order_acquire)) {
      if (first_err.ok()) {
        first_err = Status::Unavailable("owner shard down for " + vm.vm_id);
      }
      continue;
    }
    const uint64_t id = h.next_request_id++;
    Status st = MutateLocked(h, id, EncodeRegisterVm(id, vm));
    if (!st.ok() && first_err.ok()) first_err = st;
  }
  return first_err;
}

Status ShardCoordinator::Ingest(const RawEvent& event) {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  const size_t owner = map_.OwnerOf(event.target);
  Metrics().events_routed->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.events_routed;
  }

  Handle& h = *handles_[owner];
  std::lock_guard<std::mutex> lock(h.mu);
  h.pending.push_back(event);
  if (h.pending.size() >= kIngestBatchSize) {
    Status st = FlushPendingLocked(h);
    if (!st.ok() && st.code() != StatusCode::kUnavailable) return st;
  }
  return Status::OK();
}

Status ShardCoordinator::IngestBatch(const std::vector<RawEvent>& events) {
  for (const RawEvent& ev : events) {
    CDIBOT_RETURN_IF_ERROR(Ingest(ev));
  }
  return Status::OK();
}

Status ShardCoordinator::ExpectDelivery(const std::string& target,
                                        uint64_t count) {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  Handle& h = *handles_[map_.OwnerOf(target)];
  std::lock_guard<std::mutex> lock(h.mu);
  if (!h.alive.load(std::memory_order_acquire)) {
    return Status::Unavailable("owner shard down for " + target);
  }
  const uint64_t id = h.next_request_id++;
  return MutateLocked(h, id, EncodeExpectDelivery(id, target, count));
}

Status ShardCoordinator::AdvanceWatermarkTo(TimePoint t) {
  {
    std::lock_guard<std::mutex> lock(wm_mu_);
    if (!wm_target_.has_value() || t > *wm_target_) wm_target_ = t;
  }
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  Status first_err;
  for (auto& hp : handles_) {
    Handle& h = *hp;
    std::lock_guard<std::mutex> lock(h.mu);
    if (!h.alive.load(std::memory_order_acquire)) continue;  // re-applied
    const uint64_t id = h.next_request_id++;
    Status st = MutateLocked(h, id, EncodeAdvanceWatermark(id, t));
    if (!st.ok() && st.code() != StatusCode::kUnavailable &&
        first_err.ok()) {
      first_err = st;
    }
  }
  return first_err;
}

Status ShardCoordinator::FlushPendingLocked(Handle& h) {
  if (h.pending.empty()) return Status::OK();
  if (!h.alive.load(std::memory_order_acquire)) {
    return Status::Unavailable("shard down");
  }
  const uint64_t id = h.next_request_id++;
  std::string frame = EncodeIngestBatch(id, h.pending);
  // Ownership of the buffered events moves into the frame here: if the
  // call's outcome ends up unknown, the parked in-flight slot (not
  // `pending`) carries them to resolution, so recovery can never deliver
  // them twice.
  h.pending.clear();
  CDIBOT_RETURN_IF_ERROR(MutateLocked(h, id, std::move(frame)));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches_flushed;
  }
  Metrics().batches_flushed->Increment();
  return Status::OK();
}

Status ShardCoordinator::FlushAllLocked() {
  Status first_err;
  for (auto& hp : handles_) {
    Handle& h = *hp;
    std::lock_guard<std::mutex> lock(h.mu);
    Status st = FlushPendingLocked(h);
    if (!st.ok() && st.code() != StatusCode::kUnavailable && first_err.ok()) {
      first_err = st;
    }
  }
  return first_err;
}

Status ShardCoordinator::Flush() {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  return FlushAllLocked();
}

StatusOr<DailyCdiResult> ShardCoordinator::Snapshot() {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  return GatherLocked(Deadline());
}

StatusOr<DailyCdiResult> ShardCoordinator::Preview(const Deadline& deadline) {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  return GatherLocked(deadline);
}

StatusOr<VmCdi> ShardCoordinator::FleetCdi() {
  CDIBOT_ASSIGN_OR_RETURN(DailyCdiResult result, Snapshot());
  return result.fleet;
}

void ShardCoordinator::ScatterLocked(
    const Deadline& deadline,
    const std::function<void(size_t, Handle&, const Deadline&)>& fn) {
  // Pool threads carry no trace context of their own, so hand them the
  // caller's — the per-shard RPCs (and the worker spans they induce)
  // become children of the caller's span.
  const obs::TraceContext scatter_ctx = obs::CurrentTraceContext();
  pool_->ParallelFor(handles_.size(), [&](size_t i) {
    obs::ScopedTraceContext scoped_ctx(scatter_ctx);
    Handle& h = *handles_[i];
    std::lock_guard<std::mutex> lock(h.mu);
    if (!h.alive.load(std::memory_order_acquire)) return;
    // Per-shard receive budget: the caller's remaining time plus a grace
    // window, so a straggler is dropped coordinator-side just after the
    // worker itself would have given up.
    const Deadline recv_deadline =
        deadline.IsInfinite()
            ? Deadline()
            : Deadline::After(deadline.Remaining() +
                              Duration::Millis(kGatherGraceMs));
    fn(i, h, recv_deadline);
  });
}

StatusOr<DailyCdiResult> ShardCoordinator::GatherLocked(
    const Deadline& deadline) {
  CDIBOT_RETURN_IF_ERROR(FlushAllLocked());
  const CoordMetrics& m = Metrics();
  obs::ScopedTimer gather_timer(m.gather_ns);
  TRACE_SPAN("shard.gather");

  const size_t n = handles_.size();
  const int64_t budget_ms =
      deadline.IsInfinite() ? -1 : deadline.Remaining().millis();
  std::vector<std::optional<ShardSnapshot>> snaps(n);
  // Scatter: every shard computes its local snapshot concurrently; each
  // channel is serialized by its handle mutex, the slots are disjoint.
  ScatterLocked(deadline, [&](size_t i, Handle& h,
                              const Deadline& recv_deadline) {
    TRACE_SPAN("shard.gather.shard");
    obs::ScopedTimer shard_timer(m.gather_shard_ns);
    const uint64_t id = h.next_request_id++;
    auto frame_or =
        CallLocked(h, id, EncodeGather(id, budget_ms), recv_deadline);
    ResponseFrame hdr;
    if (!CheckResponse(frame_or, &hdr).ok()) return;  // straggler or dead
    ShardSnapshot snap = DecodeSnapshot(hdr.reader);
    if (!hdr.reader.ok()) return;
    h.last_watermark = snap.watermark;
    snaps[i] = std::move(snap);
  });

  // Gather: merge in shard-index order through the same builder a
  // single-node snapshot uses, so the result is bit-identical to it.
  DailyCdiResultBuilder builder;
  size_t responded = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!snaps[i].has_value()) {
      builder.AddDeferred(OwnedVmCountLocked(i));
      continue;
    }
    ++responded;
    builder.Merge(std::move(snaps[i]->result));
  }
  if (responded == 0) {
    return Status::Unavailable("no shard responded to the gather");
  }
  const bool shard_missing = responded < n;
  DailyCdiResult out = std::move(builder).Finish();
  out.SortRows();
  if (shard_missing) {
    // Missing shards degrade the result, they never silently shrink the
    // fleet: their VMs are counted deferred and the quality flag is set
    // AFTER the merges so no Refresh() can clear it.
    out.quality.degraded = true;
  }

  m.gathers->Increment();
  if (shard_missing) m.degraded_gathers->Increment();
  TimePoint min_wm;
  bool first = true;
  for (auto& hp : handles_) {
    std::lock_guard<std::mutex> lock(hp->mu);
    if (first || hp->last_watermark < min_wm) min_wm = hp->last_watermark;
    first = false;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.gathers;
    if (shard_missing) ++stats_.degraded_gathers;
    stats_.min_watermark = min_wm;
  }
  m.min_watermark_ms->Set(static_cast<double>(min_wm.millis()));
  return out;
}

TimePoint ShardCoordinator::Watermark() {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  TimePoint min_wm;
  bool first = true;
  for (auto& hp : handles_) {
    Handle& h = *hp;
    std::lock_guard<std::mutex> lock(h.mu);
    if (h.alive.load(std::memory_order_acquire)) {
      const uint64_t id = h.next_request_id++;
      auto frame_or = CallLocked(h, id, EncodePing(id), Deadline());
      ResponseFrame hdr;
      if (CheckResponse(frame_or, &hdr).ok()) {
        const TimePoint wm = hdr.reader.Time();
        if (hdr.reader.ok()) h.last_watermark = wm;
      }
    }
    // A dead shard contributes its last reported watermark: the global
    // value stalls (truthfully) until the shard recovers.
    if (first || h.last_watermark < min_wm) min_wm = h.last_watermark;
    first = false;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.min_watermark = min_wm;
  }
  Metrics().min_watermark_ms->Set(static_cast<double>(min_wm.millis()));
  return min_wm;
}

Status ShardCoordinator::CheckpointShardsLocked() {
  Status first_err;
  for (auto& hp : handles_) {
    Handle& h = *hp;
    std::lock_guard<std::mutex> lock(h.mu);
    if (!h.alive.load(std::memory_order_acquire)) continue;
    const uint64_t id = h.next_request_id++;
    auto frame_or = CallLocked(h, id, EncodeCheckpointRequest(id), Deadline());
    ResponseFrame hdr;
    Status st = CheckResponse(frame_or, &hdr);
    if (st.ok()) {
      StreamCheckpoint ckpt = DecodeCheckpoint(hdr.reader);
      st = hdr.reader.status();
      if (st.ok()) {
        h.last_checkpoint = std::move(ckpt);
        h.has_checkpoint = true;
        // Everything acknowledged so far is inside the checkpoint; the
        // outbox restarts as the post-checkpoint replay log.
        h.outbox.clear();
        h.replay_cursor = 0;
        if (h.outbox_gauge != nullptr) h.outbox_gauge->Set(0.0);
      }
    }
    if (!st.ok() && first_err.ok()) first_err = st;
  }
  return first_err;
}

Status ShardCoordinator::CheckpointShards() {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  return CheckpointShardsLocked();
}

StatusOr<std::vector<obs::ProcessObs>> ShardCoordinator::PullWorkerObs(
    bool include_spans, const Deadline& deadline) {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  TRACE_SPAN("shard.obs_pull");
  const size_t n = handles_.size();
  std::vector<std::optional<obs::ProcessObs>> partial(n);
  std::vector<Status> errs(n);
  ScatterLocked(deadline, [&](size_t i, Handle& h,
                              const Deadline& recv_deadline) {
    const uint64_t id = h.next_request_id++;
    // Bracket the call with our own clock: the worker stamps now_ns while
    // handling it, i.e. somewhere inside [t0, t1]. The midpoint estimates
    // that instant on our clock to within half the round trip — good
    // enough to land its spans on the right spot of a merged trace.
    const uint64_t t0 = obs::MonotonicNowNs();
    auto frame_or =
        CallLocked(h, id, EncodeObsPull(id, include_spans), recv_deadline);
    const uint64_t t1 = obs::MonotonicNowNs();
    ResponseFrame hdr;
    Status st = CheckResponse(frame_or, &hdr);
    if (st.ok()) {
      obs::WorkerObsSnapshot snap = DecodeWorkerObs(hdr.reader);
      st = hdr.reader.status();
      if (st.ok()) {
        obs::ProcessObs p;
        p.process = "shard-" + std::to_string(i);
        const uint64_t mid = t0 + (t1 - t0) / 2;
        p.clock_offset_ns = static_cast<int64_t>(mid - snap.now_ns);
        p.snap = std::move(snap);
        partial[i] = std::move(p);
        return;
      }
    }
    errs[i] = st;
  });
  std::vector<obs::ProcessObs> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (partial[i].has_value()) out.push_back(std::move(*partial[i]));
  }
  if (out.empty()) {
    // Dead shards merely degrade the fleet view; only a fleet with no
    // reachable worker at all is an error worth failing the pull for.
    for (const Status& st : errs) {
      if (!st.ok()) return st;
    }
    return Status::Unavailable("no shard answered the obs pull");
  }
  return out;
}

Status ShardCoordinator::Rebalance() {
  std::unique_lock<std::shared_mutex> topo = WriteTopology();
  TRACE_SPAN("shard.rebalance");
  Status first_err = FlushAllLocked();

  std::vector<std::string> ids;
  ids.reserve(registry_.size());
  for (const auto& [id, info] : registry_) ids.push_back(id);
  const ShardMap target = ShardMap::Balanced(ids, handles_.size());
  const std::vector<ShardMap::Move> moves = ShardMap::Diff(map_, target);

  for (const ShardMap::Move& move : moves) {
    Handle& src = *handles_[move.from];
    Handle& dst = *handles_[move.to];
    if (!src.alive.load(std::memory_order_acquire) ||
        !dst.alive.load(std::memory_order_acquire)) {
      if (first_err.ok()) {
        first_err = Status::Unavailable("rebalance move skipped: shard down");
      }
      continue;
    }
    StreamCheckpoint frag;
    {
      std::lock_guard<std::mutex> lock(src.mu);
      const uint64_t id = src.next_request_id++;
      // The extract is parked like a mutation: if the transport dies with
      // the outcome unknown, resolution reinstalls the extracted VMs on
      // the source so they cannot be lost with the move abandoned.
      src.in_flight =
          OutboxEntry{id, EncodeExtractRange(id, move.range.lo,
                                             move.range.hi)};
      auto frame_or = CallLocked(src, id, src.in_flight->frame, Deadline());
      ResponseFrame hdr;
      Status st = CheckResponse(frame_or, &hdr);
      if (frame_or.ok()) {
        // The outcome is known (even if the worker returned an error);
        // nothing is in flight anymore.
        src.in_flight.reset();
      }
      if (st.ok()) {
        frag = DecodeCheckpoint(hdr.reader);
        st = hdr.reader.status();
      }
      if (!st.ok()) {
        if (first_err.ok()) first_err = st;
        continue;
      }
    }
    const size_t moved_vms = frag.vms.size();
    Status install;
    {
      std::lock_guard<std::mutex> lock(dst.mu);
      const uint64_t id = dst.next_request_id++;
      install = MutateLocked(dst, id, EncodeInstallVms(id, frag));
    }
    if (!install.ok()) {
      // Put the extracted state back where it came from; if the source is
      // gone too, park the fragment for reinstall at recovery time.
      bool restored = false;
      {
        std::lock_guard<std::mutex> lock(src.mu);
        if (src.alive.load(std::memory_order_acquire)) {
          const uint64_t id = src.next_request_id++;
          restored =
              MutateLocked(src, id, EncodeInstallVms(id, frag)).ok();
        }
      }
      if (!restored) {
        parked_.push_back(ParkedFragment{move.range, std::move(frag)});
      }
      if (first_err.ok()) first_err = install;
      continue;
    }
    // Ownership flips only after the transfer succeeded, so an aborted
    // rebalance leaves every range with exactly one live owner.
    map_.Assign(move.range, move.to);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.vms_moved += moved_vms;
    }
    Metrics().vms_moved->Add(static_cast<double>(moved_vms));
  }

  // The extracts mutated source shards in ways outbox replay cannot redo
  // (an extract is not an acknowledged *inbound* mutation), so recovery
  // baselines must advance past them: checkpoint everything now.
  Status ckpt = CheckpointShardsLocked();
  if (first_err.ok()) first_err = ckpt;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rebalances;
  }
  Metrics().rebalances->Increment();
  return first_err;
}

Status ShardCoordinator::InjectShardFailure(size_t shard) {
  std::unique_lock<std::shared_mutex> topo = WriteTopology();
  if (shard >= handles_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  Handle& h = *handles_[shard];
  std::lock_guard<std::mutex> lock(h.mu);
  if (!h.alive.load(std::memory_order_acquire)) return Status::OK();
  // Kill the host (in-process: channel closes, engine destroyed; process
  // mode: SIGKILL — the honest crash) and drop our side of the connection.
  if (h.host != nullptr) h.host->Kill();
  if (h.channel != nullptr) {
    h.channel->Close();
    h.channel.reset();
  }
  MarkDead(h);
  return Status::OK();
}

Status ShardCoordinator::RecoverShard(size_t shard) {
  std::unique_lock<std::shared_mutex> topo = WriteTopology();
  if (shard >= handles_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  Handle& h = *handles_[shard];
  std::lock_guard<std::mutex> lock(h.mu);
  if (h.alive.load(std::memory_order_acquire)) return Status::OK();

  CDIBOT_RETURN_IF_ERROR(h.host->Respawn());

  const auto fail = [&](Status st) {
    if (h.channel != nullptr) {
      h.channel->Close();
      h.channel.reset();
    }
    if (h.host != nullptr) h.host->Kill();
    h.alive.store(false, std::memory_order_release);
    return st;
  };

  // Establish rebuilds the engine: restore the checkpoint baseline, then
  // replay every acknowledged mutation since, verbatim and in order — the
  // rebuilt engine is bit-identical to the dead one at its last
  // acknowledged request.
  Status est = EstablishWithRetryLocked(h);
  if (!est.ok()) return fail(est);

  // A call interrupted by the crash resolves before any new traffic; under
  // chaos the first resolution attempts may fail with the session intact,
  // so spend the call budget on it.
  Status resolved;
  for (size_t attempt = 0;
       attempt < std::max<size_t>(1, options_.session.max_call_attempts) &&
       h.in_flight.has_value();
       ++attempt) {
    if (h.channel == nullptr || h.channel->closed()) {
      est = EstablishWithRetryLocked(h);
      if (!est.ok()) return fail(est);
    }
    resolved = ResolveInFlightLocked(h);
    if (resolved.ok()) break;
    if (h.channel != nullptr) {
      h.channel->Close();
      h.channel.reset();
    }
  }
  if (h.in_flight.has_value()) return fail(resolved);

  // Watermark advances are monotonic; re-applying the high-water target is
  // idempotent and covers advances the shard missed while down.
  std::optional<TimePoint> wm_target;
  {
    std::lock_guard<std::mutex> wm_lock(wm_mu_);
    wm_target = wm_target_;
  }
  if (wm_target.has_value()) {
    const uint64_t id = h.next_request_id++;
    Status st = MutateLocked(h, id, EncodeAdvanceWatermark(id, *wm_target));
    if (!st.ok()) return fail(st);
  }
  // Fragments orphaned by a failed rebalance transfer go to their owner.
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (map_.OwnerOf(it->range.lo) != shard) {
      ++it;
      continue;
    }
    const uint64_t id = h.next_request_id++;
    Status st = MutateLocked(h, id, EncodeInstallVms(id, it->fragment));
    if (!st.ok()) return fail(st);
    it = parked_.erase(it);
  }

  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.shards_recovered;
  }
  Metrics().recoveries->Increment();
  size_t alive = 0;
  for (const auto& other : handles_) {
    if (other->alive.load(std::memory_order_acquire)) ++alive;
  }
  Metrics().shards_alive->Set(static_cast<double>(alive));
  return Status::OK();
}

bool ShardCoordinator::ShardAlive(size_t shard) const {
  if (shard >= handles_.size()) return false;
  return handles_[shard]->alive.load(std::memory_order_acquire);
}

ShardMap ShardCoordinator::Map() const {
  std::shared_lock<std::shared_mutex> topo = ReadTopology();
  return map_;
}

size_t ShardCoordinator::OwnedVmCountLocked(size_t shard) const {
  size_t count = 0;
  for (const auto& [id, info] : registry_) {
    if (map_.OwnerOf(id) == shard) ++count;
  }
  return count;
}

ShardFleetStats ShardCoordinator::stats() const {
  ShardFleetStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.num_shards = handles_.size();
  out.shards_alive = 0;
  for (const auto& h : handles_) {
    if (h->alive.load(std::memory_order_acquire)) ++out.shards_alive;
  }
  return out;
}

}  // namespace cdibot::shard
