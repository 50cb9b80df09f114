#ifndef CDIBOT_SHARD_MESSAGE_H_
#define CDIBOT_SHARD_MESSAGE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdi/pipeline.h"
#include "common/statusor.h"
#include "common/wire.h"
#include "obs/fleet.h"
#include "storage/stream_checkpoint.h"
#include "weights/event_weights.h"

namespace cdibot::shard {

/// Request kinds of the coordinator->worker protocol. The numeric values
/// are the wire tags; append-only, and a retired tag is never reused.
enum class MessageKind : uint32_t {
  kPing = 1,              ///< liveness probe; response carries the watermark
  kRegisterVm = 2,        ///< declare/update one VM's service window
  kIngestBatch = 3,       ///< a batch of raw events routed to this shard
  kGather = 4,            ///< scatter/gather: compute + return ShardSnapshot
  kExtractRange = 5,      ///< rebalance: remove a VM range, return fragment
  kInstallVms = 6,        ///< rebalance: install a fragment from a peer
  kExpectDelivery = 7,    ///< delivery-manifest announcement for a target
  // 8 is reserved: the retired shed report of the coordinator's removed
  // admission queues. Decoders reject it like any unknown tag.
  kAdvanceWatermark = 9,  ///< explicit watermark advance (idle stream)
  kCheckpoint = 10,       ///< return the engine's durable state
  kRestore = 11,          ///< replace the engine with a checkpoint restore
  kHello = 12,            ///< session handshake: probe engine + dedup state
  kInit = 13,             ///< create the engine (options + weight spec)
  kObsSnapshot = 14,      ///< pull the worker's obs snapshot (fleet statusz)
};

/// Stable lowercase name of a kind ("ping", "gather", ...), for metric and
/// span naming. Returns "unknown" only for values outside the enum, which
/// the header decoders already reject.
const char* MessageKindName(MessageKind kind);

/// True when `tag` is the wire tag of a live MessageKind; false for zero,
/// retired and out-of-range tags.
bool IsMessageKind(uint32_t tag);

/// Everything one shard contributes to a fleet-level gather: the worker's
/// local result, which the coordinator folds in with
/// DailyCdiResultBuilder::Merge. Only the mergeable part of `result`
/// travels: the rows (CDI doubles bit-cast on the wire), the counters, and
/// the baseline as its raw integer sums (episode count, downtime, service
/// time). The derived fleet values are recomputed after the merge, so they
/// are not sent and decode as zero.
struct ShardSnapshot {
  DailyCdiResult result;
  /// This shard's event-time watermark; the coordinator reduces all
  /// shards' values to the global min-watermark.
  TimePoint watermark;
  uint64_t num_vms = 0;
};

/// Liveness/watermark probe response payload.
struct ShardPing {
  TimePoint watermark;
  uint64_t num_vms = 0;
};

/// kHello response payload: what the coordinator needs to decide between
/// resuming a session (worker survived, only the connection dropped) and
/// rebuilding one (fresh process: init + restore + outbox replay).
struct HelloInfo {
  /// True when the worker still holds a live engine from a previous
  /// session; false for a freshly spawned worker awaiting kInit.
  bool engine_ready = false;
  /// Highest session-tracked request id the worker has applied — resolves
  /// the "was my in-flight mutation applied before the connection died?"
  /// ambiguity exactly.
  uint64_t last_applied = 0;
  TimePoint watermark;
  uint64_t num_vms = 0;
};

/// A serializable recipe for the shard's EventWeightModel. The model itself
/// holds derived state behind private constructors, so what crosses the
/// wire (kInit to an out-of-process worker) is the recipe: ticket counts,
/// level/alpha options, and explicit overrides. BuildWeightModel() on both
/// sides runs the identical arithmetic, so weights — and therefore CDI
/// doubles — are bit-identical across the process boundary.
struct WeightSpec {
  std::map<std::string, int64_t> ticket_counts;
  int ticket_levels = 4;
  EventWeightOptions options;
  std::map<std::string, double> overrides;
};

StatusOr<EventWeightModel> BuildWeightModel(const WeightSpec& spec);

/// kInit request payload: everything a fresh worker needs to construct its
/// engine. `has_weights` is false for in-process/thread workers whose
/// service was constructed with injected catalog+weights pointers.
struct InitConfig {
  Interval window;
  Duration allowed_lateness;
  uint32_t engine_shards = 16;
  bool has_weights = false;
  WeightSpec weights;
  /// Turn the worker's tracer on at init, so its spans are there to pull
  /// when the coordinator gathers fleet obs for a merged trace.
  bool enable_tracing = false;
};

/// A decoded request header; `reader` is positioned at the payload and
/// views the frame backing it (keep the frame alive while decoding).
/// Every request carries the sender's trace context (zeros when the
/// coordinator traced nothing), so worker spans join coordinator traces.
struct RequestFrame {
  uint64_t request_id = 0;
  MessageKind kind = MessageKind::kPing;
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  WireReader reader{std::string_view()};
};

/// A decoded response header, ditto.
struct ResponseFrame {
  uint64_t request_id = 0;
  MessageKind kind = MessageKind::kPing;
  Status status;
  WireReader reader{std::string_view()};
};

/// Rebuilds a Status from its wire (code, message) pair; unknown codes
/// decode as Internal so a version-skewed peer degrades loudly, not
/// silently to OK.
Status StatusFromWire(uint32_t code, const std::string& message);

// --- Request encoders (coordinator side). Each produces one frame:
// {u64 request_id, u32 kind, u64 trace_id, u64 parent_span_id, payload...}.
// The trace ids are read from the calling thread's obs::CurrentTraceContext
// at encode time, so every RPC site propagates context with no per-site
// plumbing (zeros when tracing is off or the thread is outside any span).
std::string EncodePing(uint64_t request_id);
std::string EncodeRegisterVm(uint64_t request_id, const VmServiceInfo& vm);
std::string EncodeIngestBatch(uint64_t request_id,
                              const std::vector<RawEvent>& events);
/// budget_ms < 0 encodes an infinite deadline (settled snapshot); >= 0 is
/// the worker-side compute budget for a deadline-bounded preview.
std::string EncodeGather(uint64_t request_id, int64_t budget_ms);
std::string EncodeExtractRange(uint64_t request_id, const std::string& lo,
                               const std::optional<std::string>& hi);
std::string EncodeInstallVms(uint64_t request_id,
                             const StreamCheckpoint& fragment);
std::string EncodeExpectDelivery(uint64_t request_id,
                                 const std::string& target, uint64_t count);
std::string EncodeAdvanceWatermark(uint64_t request_id, TimePoint to);
std::string EncodeCheckpointRequest(uint64_t request_id);
std::string EncodeRestore(uint64_t request_id, const StreamCheckpoint& ckpt);
std::string EncodeHello(uint64_t request_id);
std::string EncodeInit(uint64_t request_id, const Interval& window,
                       Duration allowed_lateness, uint32_t engine_shards,
                       const std::optional<WeightSpec>& weights,
                       bool enable_tracing = false);
/// include_spans=false pulls metrics + span stats only (no raw spans).
std::string EncodeObsPull(uint64_t request_id, bool include_spans);

// --- Response encoders (worker side). Frame layout:
// {u64 request_id, u32 kind, u32 status_code, str status_msg, payload...};
// the payload is present only on OK.
std::string EncodeStatusResponse(uint64_t request_id, MessageKind kind,
                                 const Status& status);
std::string EncodePingResponse(uint64_t request_id, const ShardPing& ping);
std::string EncodeGatherResponse(uint64_t request_id,
                                 const ShardSnapshot& snapshot);
std::string EncodeCheckpointResponse(uint64_t request_id, MessageKind kind,
                                     const StreamCheckpoint& ckpt);
std::string EncodeHelloResponse(uint64_t request_id, const HelloInfo& info);
std::string EncodeObsSnapshotResponse(uint64_t request_id,
                                      const obs::WorkerObsSnapshot& snap);

// --- Decoders. Header decoders validate the frame prefix; payload
// decoders consume the positioned reader and surface malformed frames as
// DataLoss through reader.status().
StatusOr<RequestFrame> DecodeRequestHeader(const std::string& frame);
StatusOr<ResponseFrame> DecodeResponseHeader(const std::string& frame);

// --- Value codecs shared by requests and responses. Exposed for the
// round-trip property tests. Raw events and checkpoints travel in the
// storage-layer codecs of storage/stream_checkpoint.h.
void EncodeVmServiceInfo(WireWriter& w, const VmServiceInfo& vm);
VmServiceInfo DecodeVmServiceInfo(WireReader& r);
void EncodeSnapshot(WireWriter& w, const ShardSnapshot& snapshot);
ShardSnapshot DecodeSnapshot(WireReader& r);
void EncodeWeightSpec(WireWriter& w, const WeightSpec& spec);
WeightSpec DecodeWeightSpec(WireReader& r);
HelloInfo DecodeHelloInfo(WireReader& r);
InitConfig DecodeInitConfig(WireReader& r);
void EncodeWorkerObs(WireWriter& w, const obs::WorkerObsSnapshot& snap);
obs::WorkerObsSnapshot DecodeWorkerObs(WireReader& r);

}  // namespace cdibot::shard

#endif  // CDIBOT_SHARD_MESSAGE_H_
