#ifndef CDIBOT_STORAGE_STREAM_CHECKPOINT_H_
#define CDIBOT_STORAGE_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "common/wire.h"
#include "event/event.h"

namespace cdibot {

/// One registered VM inside a streaming checkpoint. Mirrors the pipeline's
/// VmServiceInfo field for field; duplicated here so the storage layer does
/// not depend on the cdi library (cdi depends on storage, not vice versa).
struct CheckpointVmEntry {
  std::string vm_id;
  std::map<std::string, std::string> dims;
  Interval service_period;

  bool operator==(const CheckpointVmEntry&) const = default;
};

/// Per-target data-quality counters carried inside a checkpoint, so that
/// degraded-mode accounting survives a restart: how many events a target's
/// collector announced (expected), how many actually arrived (received),
/// how many were quarantined as malformed, and how many were shed upstream.
struct CheckpointTargetQuality {
  std::string target;
  uint64_t received = 0;
  uint64_t expected = 0;
  uint64_t quarantined = 0;
  /// Events shed upstream for this target (StreamingCdiEngine::RecordShed).
  /// Carried by whole checkpoints and rebalance fragments alike: the engine
  /// fills and reads every row field on one collect/install path.
  uint64_t shed = 0;

  bool operator==(const CheckpointTargetQuality&) const = default;
};

/// The durable state of a StreamingCdiEngine: everything needed to resume
/// from the last watermark after a restart. Derived state (per-VM CDI,
/// partial aggregates) is intentionally absent — it is a pure function of
/// the buffered events and is lazily recomputed on the first snapshot
/// after a restore, which keeps the checkpoint small and the restore path
/// trivially consistent.
struct StreamCheckpoint {
  /// The engine's evaluation window.
  Interval window;
  /// Event-time watermark at checkpoint time.
  TimePoint watermark;
  /// Maximum event time observed (watermark = max - allowed_lateness).
  TimePoint max_event_time;
  /// Ingestion counters, carried across the restart for continuity of
  /// data-quality reporting.
  uint64_t events_ingested = 0;
  uint64_t events_late = 0;
  uint64_t events_out_of_window = 0;
  uint64_t events_orphaned = 0;
  uint64_t vms_recomputed = 0;
  /// Registered VMs with their service windows.
  std::vector<CheckpointVmEntry> vms;
  /// Buffered raw events of registered VMs (flat; the target field routes
  /// each event back to its VM on restore).
  std::vector<RawEvent> events;
  /// Events whose target had no registered VM yet.
  std::vector<RawEvent> orphan_events;
  /// Quarantine counters indexed by reason ordinal. The storage layer
  /// treats these as opaque counters (it does not depend on the chaos
  /// library's reason enum).
  std::vector<uint64_t> quarantined_by_reason;
  /// Per-target delivery/shed/quarantine accounting, one row per target.
  std::vector<CheckpointTargetQuality> target_quality;

  bool operator==(const StreamCheckpoint&) const = default;
};

/// Format version of the checkpoint file written by SaveStreamCheckpoint.
/// Versions 1 and 2 were CSV directories and are no longer read.
inline constexpr uint32_t kStreamCheckpointVersion = 3;

/// Persists `ckpt` as one file at `path`, written through WriteFileAtomic:
/// a length+CRC wire frame (common/wire.h) around a magic tag, the format
/// version and EncodeCheckpoint's payload. Every field round-trips exactly,
/// string values may hold any bytes.
Status SaveStreamCheckpoint(const StreamCheckpoint& ckpt,
                            const std::string& path);

/// Loads the checkpoint file saved at `path`. NotFound when there is no
/// file. DataLoss when the frame's length or CRC does not match, the magic
/// tag is wrong, or the payload is malformed or followed by trailing bytes.
/// InvalidArgument for another format version, and for states no engine
/// writes: a watermark beyond max_event_time, or an event whose severity
/// ordinal is outside the enum.
StatusOr<StreamCheckpoint> LoadStreamCheckpoint(const std::string& path);

// --- Wire codecs of the checkpoint and its raw events, shared by the file
// above and the shard protocol (kInstallVms, kRestore, kCheckpoint
// responses, kIngestBatch). Decoders latch malformed input into the
// reader's status. DecodeRawEvent lets an out-of-range severity ordinal
// through: a live engine quarantines it like any other malformed arrival.
void EncodeRawEvent(WireWriter& w, const RawEvent& ev);
RawEvent DecodeRawEvent(WireReader& r);
void EncodeCheckpoint(WireWriter& w, const StreamCheckpoint& ckpt);
StreamCheckpoint DecodeCheckpoint(WireReader& r);

}  // namespace cdibot

#endif  // CDIBOT_STORAGE_STREAM_CHECKPOINT_H_
