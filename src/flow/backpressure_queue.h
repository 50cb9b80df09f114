#ifndef CDIBOT_FLOW_BACKPRESSURE_QUEUE_H_
#define CDIBOT_FLOW_BACKPRESSURE_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>

#include "event/event.h"
#include "obs/metrics.h"

namespace cdibot::flow {

/// Flow-control class of a telemetry item, mirroring the paper's severity
/// ordering of the CDI sub-metrics: CDI-U (unavailability) outranks CDI-P
/// (performance) outranks CDI-C (control plane). Admission control sheds the
/// lowest class first and NEVER sheds unavailability-class events — losing a
/// downtime event would silently understate the one number the platform
/// exists to report, while a shed performance/control event merely degrades
/// (and is accounted as degrading) the affected VM's data quality.
enum class FlowClass : int {
  kUnavailability = 0,
  kPerformance = 1,
  kControlPlane = 2,
};

inline constexpr int kNumFlowClasses = 3;

std::string_view FlowClassToString(FlowClass c);

/// Maps an event's stability category onto its flow class (the identity
/// mapping today; the indirection keeps flow decoupled from how categories
/// evolve).
FlowClass FlowClassForCategory(StabilityCategory category);

/// Tuning for a BackpressureQueue.
struct FlowOptions {
  /// Hard bound on queued items — the queue's memory ceiling.
  size_t capacity = 4096;
  /// Depth at or above which admission control starts shedding sheddable
  /// classes (0 = 7/8 of capacity). Must be <= capacity.
  size_t high_watermark = 0;
  /// Depth at or below which shedding stops (0 = capacity / 2). The gap
  /// between the watermarks is the hysteresis band: once overloaded, the
  /// queue keeps shedding until the consumer has caught up well below the
  /// trip point, instead of oscillating around it.
  size_t low_watermark = 0;
};

/// Outcome of one admission attempt.
enum class AdmitResult : int {
  kAdmitted = 0,
  /// Shed by admission control (queue above the high watermark, or full and
  /// the arrival displaced by nothing). Never returned for unavailability.
  kShed = 1,
  /// Queue full of unavailability-class items; nothing was evictable. The
  /// producer must apply real backpressure (block, or drain the consumer).
  kQueueFull = 2,
};

/// Counters describing every admission decision the queue ever made.
/// QuarantineSink-style: cheap enough to keep always-on, rich enough that a
/// degraded run can say exactly what was lost and why.
struct ShedStats {
  uint64_t pushed = 0;    ///< admission attempts
  uint64_t admitted = 0;  ///< entered the queue (includes later-evicted)
  uint64_t popped = 0;    ///< delivered to the consumer
  uint64_t shed_total = 0;
  /// Shed counts indexed by FlowClass ordinal ([kUnavailability] is always
  /// zero — pinned by the shed-ordering tests).
  uint64_t shed_by_class[kNumFlowClasses] = {};
  /// Shed counts indexed by Severity ordinal - 1.
  uint64_t shed_by_level[kNumSeverityLevels] = {};
  /// Queued sheddable items displaced to make room for an unavailability
  /// arrival when the queue was full (counted in shed_total too).
  uint64_t evictions = 0;
  /// TryPush calls that found the queue full of unshedddable items.
  uint64_t full_rejections = 0;
  /// Transitions into shedding mode (high-watermark crossings).
  uint64_t shed_mode_entries = 0;
  size_t peak_depth = 0;
};

/// A bounded MPMC queue of RawEvents with watermark-hysteresis admission
/// control and severity-aware load shedding — the overload joint between
/// telemetry producers and the streaming CDI consumer. Each event's
/// `level` orders shedding within its flow class. The queue's obs metrics
/// live under "flow.queue.*" (depth, peak_depth, admitted, shed,
/// evictions); every queue in the process shares them.
///
/// Behavior by regime:
///  * Below the high watermark every arrival is admitted and delivered
///    strictly FIFO, so a shed-free run is indistinguishable (bit-identical
///    downstream, in both content and order) from a run without the queue.
///  * At or above the high watermark the queue enters shedding mode:
///    performance- and control-class arrivals are shed at admission
///    (control first — the lower-weight class — then performance; within a
///    class nothing is ordered, arrivals simply stop entering), while
///    unavailability items are always admitted. Shedding mode persists
///    until depth falls to the low watermark (hysteresis).
///  * At hard capacity an unavailability arrival evicts the newest
///    lowest-class queued item to make room; only when the whole queue is
///    unavailability-class does Push block (TryPush returns kQueueFull) —
///    bounded memory and no-U-loss, traded against producer backpressure.
///
/// Every shed/evicted item is counted in ShedStats and reported through
/// the shed callback so the consumer can account the loss in DataQuality:
/// output computed from a shed stream is *degraded*, never silently wrong.
///
/// Thread safety: all methods are safe from any number of producer and
/// consumer threads (single mutex; the shed callback runs outside it).
class BackpressureQueue {
 public:
  /// Called for every shed or evicted event, outside the queue lock.
  using ShedCallback = std::function<void(const RawEvent&, FlowClass)>;

  explicit BackpressureQueue(FlowOptions options = {});

  /// Non-blocking admission. kQueueFull only when the queue holds nothing
  /// but unavailability-class events.
  AdmitResult TryPush(RawEvent event, FlowClass klass) {
    return Admit(event, klass);
  }

  /// Blocking admission: sheddable classes never block (they are admitted
  /// or shed immediately); an unavailability event waits for space when the
  /// queue is full of its own class. Returns false if the queue closed
  /// while waiting (the event is dropped — only possible during teardown).
  bool Push(RawEvent event, FlowClass klass);

  /// Blocking pop; returns false once the queue is closed AND drained.
  bool Pop(RawEvent* out);

  /// Non-blocking pop; false when currently empty.
  bool TryPop(RawEvent* out);

  /// Closes the queue: producers are rejected, consumers drain the
  /// remainder and then see false from Pop.
  void Close();

  bool closed() const;
  size_t depth() const;
  bool shedding() const;
  ShedStats stats() const;

  const FlowOptions& options() const { return options_; }

  void set_shed_callback(ShedCallback cb);

 private:
  struct Item {
    RawEvent event;
    uint64_t seq = 0;
  };

  /// Bands order delivery-independent storage by shed priority. Band 0 is
  /// unavailability (never shed). Sheddable bands are ranked so that HIGHER
  /// indices are shed first: performance outranks control plane, and within
  /// a class higher severities outrank lower ones.
  static constexpr size_t kNumBands =
      1 + 2 * static_cast<size_t>(kNumSeverityLevels);

  /// One non-blocking admission attempt. `event` is consumed only on
  /// kAdmitted/kShed; on kQueueFull it is left intact so a blocking Push
  /// can retry with the same event.
  AdmitResult Admit(RawEvent& event, FlowClass klass);

  /// Removes the globally oldest event (smallest seq across bands) into
  /// `*out`. Requires depth_ > 0 and the lock held.
  void PopLocked(RawEvent* out);

  /// Records one shed event (lock held); the caller is responsible for the
  /// callback outside the lock.
  void CountShedLocked(FlowClass klass, Severity level);

  /// Updates shedding mode from the current depth (lock held).
  void UpdateWatermarksLocked();

  void SetDepthGaugeLocked();

  FlowOptions options_;
  ShedCallback shed_callback_;

  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* peak_depth_gauge_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* eviction_counter_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Item> bands_[kNumBands];
  size_t depth_ = 0;
  uint64_t next_seq_ = 0;
  bool shedding_ = false;
  bool closed_ = false;
  ShedStats stats_;
};

}  // namespace cdibot::flow

#endif  // CDIBOT_FLOW_BACKPRESSURE_QUEUE_H_
