#include "shard/service.h"

#include <array>
#include <utility>
#include <vector>

#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdibot::shard {

namespace {

struct ServiceMetrics {
  obs::Counter* requests;
  obs::Counter* malformed;
  obs::Counter* duplicates;
  obs::Histogram* handle_ns;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return ServiceMetrics{
        .requests = reg.GetCounter("shard.worker_requests"),
        .malformed = reg.GetCounter("shard.worker_malformed_frames"),
        .duplicates = reg.GetCounter("shard.worker_duplicate_requests"),
        .handle_ns = reg.GetHistogram("shard.worker_handle_ns"),
    };
  }();
  return m;
}

/// Worker-side per-kind RPC instrumentation (latency + frame sizes). The
/// table covers every kind once, so lookup on the hot path is an index.
struct RpcMetrics {
  obs::Histogram* handle_ns;
  obs::Histogram* req_bytes;
  obs::Histogram* resp_bytes;
};

constexpr uint32_t kNumKinds =
    static_cast<uint32_t>(MessageKind::kObsSnapshot) + 1;

const RpcMetrics& WorkerRpcMetrics(MessageKind kind) {
  static const std::array<RpcMetrics, kNumKinds>& table = *[] {
    auto* t = new std::array<RpcMetrics, kNumKinds>{};
    auto& reg = obs::MetricsRegistry::Global();
    for (uint32_t k = 1; k < kNumKinds; ++k) {
      if (!IsMessageKind(k)) continue;
      const std::string base =
          std::string("shard.rpc.") +
          MessageKindName(static_cast<MessageKind>(k));
      (*t)[k] = RpcMetrics{
          .handle_ns = reg.GetHistogram(base + ".handle_ns"),
          .req_bytes = reg.GetHistogram(base + ".req_bytes"),
          .resp_bytes = reg.GetHistogram(base + ".resp_bytes"),
      };
    }
    return t;
  }();
  return table[static_cast<uint32_t>(kind)];
}

/// Span names must be literals (SpanRecord stores the pointer).
const char* RpcSpanName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPing: return "shard.rpc.ping";
    case MessageKind::kRegisterVm: return "shard.rpc.register_vm";
    case MessageKind::kIngestBatch: return "shard.rpc.ingest_batch";
    case MessageKind::kGather: return "shard.rpc.gather";
    case MessageKind::kExtractRange: return "shard.rpc.extract_range";
    case MessageKind::kInstallVms: return "shard.rpc.install_vms";
    case MessageKind::kExpectDelivery: return "shard.rpc.expect_delivery";
    case MessageKind::kAdvanceWatermark:
      return "shard.rpc.advance_watermark";
    case MessageKind::kCheckpoint: return "shard.rpc.checkpoint";
    case MessageKind::kRestore: return "shard.rpc.restore";
    case MessageKind::kHello: return "shard.rpc.hello";
    case MessageKind::kInit: return "shard.rpc.init";
    case MessageKind::kObsSnapshot: return "shard.rpc.obs_snapshot";
  }
  return "shard.rpc.unknown";
}

/// Kinds that mutate engine state and therefore participate in the
/// exactly-once session protocol (dedup + response cache). Read-only
/// kinds (ping, gather, checkpoint, hello) are naturally idempotent.
/// kExtractRange mutates (it removes VMs) so a duplicated extract must
/// not run twice and hand out an empty fragment.
bool SessionTracked(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRegisterVm:
    case MessageKind::kIngestBatch:
    case MessageKind::kExtractRange:
    case MessageKind::kInstallVms:
    case MessageKind::kExpectDelivery:
    case MessageKind::kAdvanceWatermark:
    case MessageKind::kRestore:
    case MessageKind::kInit:
    // An obs pull drains the tracer (destructive), so a retry whose
    // response the network swallowed must get the cached bytes back, not a
    // second (now empty) capture.
    case MessageKind::kObsSnapshot:
      return true;
    case MessageKind::kPing:
    case MessageKind::kGather:
    case MessageKind::kCheckpoint:
    case MessageKind::kHello:
      return false;
  }
  return false;
}

}  // namespace

ShardService::ShardService(size_t index, const EventCatalog* catalog,
                           const EventWeightModel* weights,
                           StreamingCdiOptions base_options)
    : index_(index),
      catalog_(catalog),
      weights_(weights),
      base_options_(std::move(base_options)),
      options_(base_options_) {}

void ShardService::ResetEngine() {
  engine_.reset();
  owned_weights_.reset();
  last_applied_ = 0;
  cached_id_ = 0;
  cached_response_.clear();
}

std::string ShardService::Handle(const std::string& frame) {
  Metrics().requests->Increment();
  obs::ScopedTimer timer(Metrics().handle_ns);

  auto req_or = DecodeRequestHeader(frame);
  if (!req_or.ok()) {
    Metrics().malformed->Increment();
    // No parseable request id; echo id 0 so the coordinator's stale-frame
    // draining discards it rather than mistaking it for a live response.
    return EncodeStatusResponse(0, MessageKind::kPing, req_or.status());
  }
  RequestFrame req = std::move(req_or).value();

  // Adopt the coordinator's trace context for the duration of the request,
  // so worker spans (the RPC span here and anything the engine opens under
  // it) join the coordinator's trace in the merged fleet view.
  obs::ScopedTraceContext trace_ctx(
      obs::TraceContext{req.trace_id, req.parent_span_id});
  obs::ScopedSpan rpc_span(RpcSpanName(req.kind));
  const RpcMetrics& rpc = WorkerRpcMetrics(req.kind);
  const uint64_t rpc_start_ns = obs::MonotonicNowNs();

  std::string response = [&]() -> std::string {
    const bool tracked = SessionTracked(req.kind);
    if (tracked) {
      // Exact resend of the most recent tracked request: the network (or
      // the chaos layer) swallowed our response. Return the original bytes.
      if (req.request_id == cached_id_ && !cached_response_.empty()) {
        Metrics().duplicates->Increment();
        return cached_response_;
      }
      // Historical duplicate: already applied and acknowledged (a delayed
      // or duplicated frame, or an outbox replay after session resumption).
      // kInit/kRestore are exempt — they legitimately rewind the id space.
      if (req.kind != MessageKind::kInit &&
          req.kind != MessageKind::kRestore &&
          req.request_id <= last_applied_) {
        Metrics().duplicates->Increment();
        return EncodeStatusResponse(req.request_id, req.kind, Status::OK());
      }
    }

    // kObsSnapshot is exempt from the engine guard: the obs registry and
    // tracer exist from process start, and the coordinator pulls fleet obs
    // even from a worker it has not (re)initialized yet.
    if (!engine_.has_value() && req.kind != MessageKind::kHello &&
        req.kind != MessageKind::kInit &&
        req.kind != MessageKind::kObsSnapshot) {
      return EncodeStatusResponse(
          req.request_id, req.kind,
          Status::FailedPrecondition("shard engine not initialized"));
    }

    std::string resp = Dispatch(req, req.reader);

    if (tracked) {
      if (req.kind == MessageKind::kInit ||
          req.kind == MessageKind::kRestore) {
        last_applied_ = 0;
      } else if (req.request_id > last_applied_) {
        last_applied_ = req.request_id;
      }
      cached_id_ = req.request_id;
      cached_response_ = resp;
    }
    return resp;
  }();

  rpc.handle_ns->Record(obs::MonotonicNowNs() - rpc_start_ns);
  rpc.req_bytes->Record(frame.size());
  rpc.resp_bytes->Record(response.size());
  return response;
}

std::string ShardService::Dispatch(const RequestFrame& req, WireReader& r) {
  const auto status_response = [&](const Status& st) {
    return EncodeStatusResponse(req.request_id, req.kind, st);
  };

  switch (req.kind) {
    case MessageKind::kHello: {
      HelloInfo info;
      info.engine_ready = engine_.has_value();
      info.last_applied = last_applied_;
      if (engine_.has_value()) {
        info.watermark = engine_->watermark();
        info.num_vms = engine_->num_vms();
      }
      return EncodeHelloResponse(req.request_id, info);
    }
    case MessageKind::kInit: {
      InitConfig cfg = DecodeInitConfig(r);
      if (!r.ok()) break;
      StreamingCdiOptions opts = base_options_;
      opts.window = cfg.window;
      opts.allowed_lateness = cfg.allowed_lateness;
      opts.num_shards = cfg.engine_shards;
      const EventWeightModel* weights = weights_;
      std::unique_ptr<EventWeightModel> built;
      if (cfg.has_weights) {
        auto model_or = BuildWeightModel(cfg.weights);
        if (!model_or.ok()) return status_response(model_or.status());
        built = std::make_unique<EventWeightModel>(
            std::move(model_or).value());
        weights = built.get();
      }
      if (weights == nullptr) {
        return status_response(Status::InvalidArgument(
            "kInit carries no weight spec and the worker has no injected "
            "weight model"));
      }
      auto engine_or = StreamingCdiEngine::Create(catalog_, weights, opts);
      if (!engine_or.ok()) return status_response(engine_or.status());
      // Commit only after Create succeeded, so a rejected init leaves the
      // service exactly as it was.
      options_ = opts;
      if (built != nullptr) {
        owned_weights_ = std::move(built);
        weights_ = owned_weights_.get();
      }
      engine_.emplace(std::move(engine_or).value());
      // Tracing is turn-on-only from here: a later kInit without the flag
      // (e.g. a session rebuild) must not silently stop an ongoing trace.
      if (cfg.enable_tracing) obs::Tracer::Global().Enable();
      return status_response(Status::OK());
    }
    case MessageKind::kPing: {
      ShardPing ping;
      ping.watermark = engine_->watermark();
      ping.num_vms = engine_->num_vms();
      return EncodePingResponse(req.request_id, ping);
    }
    case MessageKind::kRegisterVm: {
      VmServiceInfo vm = DecodeVmServiceInfo(r);
      if (!r.ok()) break;
      return status_response(engine_->RegisterVm(vm));
    }
    case MessageKind::kIngestBatch: {
      const uint32_t n = r.Count();
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        const RawEvent ev = DecodeRawEvent(r);
        if (!r.ok()) break;
        const Status st = engine_->Ingest(ev);
        if (!st.ok()) return status_response(st);
      }
      if (!r.ok()) break;
      return status_response(Status::OK());
    }
    case MessageKind::kGather: {
      const int64_t budget_ms = r.I64();
      if (!r.ok()) break;
      const Deadline deadline = budget_ms < 0
                                    ? Deadline()
                                    : Deadline::After(
                                          Duration::Millis(budget_ms));
      auto result_or = engine_->Preview(deadline);
      if (!result_or.ok()) return status_response(result_or.status());
      const ShardSnapshot snap{.result = std::move(result_or).value(),
                               .watermark = engine_->watermark(),
                               .num_vms = engine_->num_vms()};
      return EncodeGatherResponse(req.request_id, snap);
    }
    case MessageKind::kExtractRange: {
      const std::string lo = r.Str();
      const bool has_hi = r.Bool();
      std::string hi = r.Str();
      if (!r.ok()) break;
      const StreamCheckpoint fragment = engine_->ExtractRange(
          lo, has_hi ? std::optional<std::string>(std::move(hi))
                     : std::nullopt);
      return EncodeCheckpointResponse(req.request_id, req.kind, fragment);
    }
    case MessageKind::kInstallVms: {
      const StreamCheckpoint fragment = DecodeCheckpoint(r);
      if (!r.ok()) break;
      return status_response(engine_->InstallVms(fragment));
    }
    case MessageKind::kExpectDelivery: {
      const std::string target = r.Str();
      const uint64_t count = r.U64();
      if (!r.ok()) break;
      engine_->ExpectDelivery(target, count);
      return status_response(Status::OK());
    }
    case MessageKind::kAdvanceWatermark: {
      const TimePoint to = r.Time();
      if (!r.ok()) break;
      engine_->AdvanceWatermarkTo(to);
      return status_response(Status::OK());
    }
    case MessageKind::kCheckpoint:
      return EncodeCheckpointResponse(req.request_id, req.kind,
                                      engine_->Checkpoint());
    case MessageKind::kRestore: {
      StreamCheckpoint ckpt = DecodeCheckpoint(r);
      if (!r.ok()) break;
      auto engine_or =
          StreamingCdiEngine::Restore(ckpt, catalog_, weights_, options_);
      if (!engine_or.ok()) return status_response(engine_or.status());
      engine_.emplace(std::move(engine_or).value());
      return status_response(Status::OK());
    }
    case MessageKind::kObsSnapshot: {
      const bool include_spans = r.Bool();
      if (!r.ok()) break;
      // Drain only when shipping spans; a metrics-only pull must not
      // discard spans a later merged-trace pull would want.
      obs::WorkerObsSnapshot snap =
          obs::CaptureWorkerObs(/*drain_spans=*/include_spans);
      if (!include_spans) snap.spans.clear();
      return EncodeObsSnapshotResponse(req.request_id, snap);
    }
  }
  Metrics().malformed->Increment();
  return status_response(r.status());
}

ShardServer::ShardServer(ShardService* service, SocketListener listener,
                         SocketTransportOptions transport_options)
    : service_(service),
      listener_(std::move(listener)),
      transport_options_(transport_options) {}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void ShardServer::Stop() {
  stop_.store(true, std::memory_order_release);
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (conn_ != nullptr) conn_->Close();
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void ShardServer::Kill() {
  Stop();
  service_->ResetEngine();
}

void ShardServer::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Short accept ticks so a Stop() between connections is noticed even
    // though Close() already wakes a blocked Accept.
    auto conn_or =
        listener_.Accept(Deadline::After(Duration::Millis(200)),
                         transport_options_);
    if (!conn_or.ok()) {
      if (conn_or.status().code() == StatusCode::kAborted) continue;
      break;  // listener closed
    }
    std::shared_ptr<SocketTransport> conn = std::move(conn_or).value();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_ = conn;
    }
    while (!stop_.load(std::memory_order_acquire)) {
      auto frame_or = conn->Recv();
      // Any receive error — clean close, reset mid-frame, CRC poison —
      // drops the connection but NOT the engine: the coordinator
      // reconnects and resumes the session.
      if (!frame_or.ok()) break;
      std::string response = service_->Handle(frame_or.value());
      if (!conn->Send(std::move(response)).ok()) break;
    }
    conn->Close();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_.reset();
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace cdibot::shard
