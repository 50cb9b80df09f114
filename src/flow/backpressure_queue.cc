#include "flow/backpressure_queue.h"

#include <algorithm>
#include <utility>

namespace cdibot::flow {

std::string_view FlowClassToString(FlowClass c) {
  switch (c) {
    case FlowClass::kUnavailability:
      return "unavailability";
    case FlowClass::kPerformance:
      return "performance";
    case FlowClass::kControlPlane:
      return "control_plane";
  }
  return "unknown";
}

FlowClass FlowClassForCategory(StabilityCategory category) {
  switch (category) {
    case StabilityCategory::kUnavailability:
      return FlowClass::kUnavailability;
    case StabilityCategory::kPerformance:
      return FlowClass::kPerformance;
    case StabilityCategory::kControlPlane:
      return FlowClass::kControlPlane;
  }
  return FlowClass::kPerformance;
}

namespace {

/// The storage band of an arrival (see BackpressureQueue::kNumBands).
size_t BandFor(FlowClass klass, Severity level) {
  if (klass == FlowClass::kUnavailability) return 0;
  const size_t base = klass == FlowClass::kPerformance
                          ? 0
                          : static_cast<size_t>(kNumSeverityLevels);
  const int ordinal =
      std::clamp(static_cast<int>(level), 1, kNumSeverityLevels);
  // Within a class, lower severities land in higher bands (shed first).
  return 1 + base + static_cast<size_t>(kNumSeverityLevels - ordinal);
}

}  // namespace

BackpressureQueue::BackpressureQueue(FlowOptions options) : options_(options) {
  options_.capacity = std::max<size_t>(1, options_.capacity);
  if (options_.high_watermark == 0 ||
      options_.high_watermark > options_.capacity) {
    options_.high_watermark = std::max<size_t>(1, options_.capacity * 7 / 8);
  }
  if (options_.low_watermark == 0 ||
      options_.low_watermark >= options_.high_watermark) {
    options_.low_watermark =
        std::min(options_.high_watermark - 1, options_.capacity / 2);
  }
  auto& registry = obs::MetricsRegistry::Global();
  depth_gauge_ = registry.GetGauge("flow.queue.depth");
  peak_depth_gauge_ = registry.GetGauge("flow.queue.peak_depth");
  admitted_counter_ = registry.GetCounter("flow.queue.admitted");
  shed_counter_ = registry.GetCounter("flow.queue.shed");
  eviction_counter_ = registry.GetCounter("flow.queue.evictions");
}

bool BackpressureQueue::Push(RawEvent event, FlowClass klass) {
  while (true) {
    // Admit leaves `event` intact on kQueueFull, so the loop can retry
    // with the same event once the consumer makes room.
    if (Admit(event, klass) != AdmitResult::kQueueFull) return true;
    std::unique_lock<std::mutex> lock(mu_);
    // Sheddable classes never reach here (they are admitted or shed
    // above); an unavailability producer blocks until the consumer makes
    // room.
    not_full_.wait(lock,
                   [this] { return closed_ || depth_ < options_.capacity; });
    if (closed_) return false;
  }
}

bool BackpressureQueue::Pop(RawEvent* out) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || depth_ > 0; });
    if (depth_ == 0) return false;  // closed and drained
    PopLocked(out);
  }
  not_full_.notify_one();
  return true;
}

bool BackpressureQueue::TryPop(RawEvent* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (depth_ == 0) return false;
    PopLocked(out);
  }
  not_full_.notify_one();
  return true;
}

void BackpressureQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool BackpressureQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t BackpressureQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

bool BackpressureQueue::shedding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shedding_;
}

ShedStats BackpressureQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BackpressureQueue::set_shed_callback(ShedCallback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  shed_callback_ = std::move(cb);
}

AdmitResult BackpressureQueue::Admit(RawEvent& event, FlowClass klass) {
  // Shed/evicted events leave the lock before the callback sees them.
  RawEvent shed_event;
  FlowClass shed_class = klass;
  bool have_shed = false;
  AdmitResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return AdmitResult::kQueueFull;
    ++stats_.pushed;
    const size_t band = BandFor(klass, event.level);
    if (band != 0 && (shedding_ || depth_ >= options_.capacity)) {
      // Admission shed: the queue is over its high watermark (or at hard
      // capacity) and this class is expendable under the CDI-U > CDI-P >
      // CDI-C ordering.
      CountShedLocked(klass, event.level);
      shed_event = std::move(event);
      have_shed = true;
      result = AdmitResult::kShed;
    } else if (depth_ >= options_.capacity) {
      // Unavailability arrival into a full queue: displace the newest
      // event of the most expendable band so the U event still fits in
      // bounded memory.
      size_t victim_band = kNumBands;
      for (size_t b = kNumBands; b-- > 1;) {
        if (!bands_[b].empty()) {
          victim_band = b;
          break;
        }
      }
      if (victim_band == kNumBands) {
        // Queue entirely unavailability-class: nothing may be dropped,
        // so the producer must exert real backpressure.
        ++stats_.full_rejections;
        return AdmitResult::kQueueFull;
      }
      Item victim = std::move(bands_[victim_band].back());
      bands_[victim_band].pop_back();
      --depth_;
      ++stats_.evictions;
      eviction_counter_->Increment();
      shed_class = victim_band <= static_cast<size_t>(kNumSeverityLevels)
                       ? FlowClass::kPerformance
                       : FlowClass::kControlPlane;
      CountShedLocked(shed_class, victim.event.level);
      shed_event = std::move(victim.event);
      have_shed = true;
      bands_[0].push_back(Item{std::move(event), next_seq_++});
      ++depth_;
      ++stats_.admitted;
      admitted_counter_->Increment();
      result = AdmitResult::kAdmitted;
    } else {
      bands_[band].push_back(Item{std::move(event), next_seq_++});
      ++depth_;
      ++stats_.admitted;
      admitted_counter_->Increment();
      result = AdmitResult::kAdmitted;
    }
    UpdateWatermarksLocked();
    SetDepthGaugeLocked();
  }
  if (result == AdmitResult::kAdmitted) not_empty_.notify_one();
  if (have_shed && shed_callback_) shed_callback_(shed_event, shed_class);
  return result;
}

void BackpressureQueue::PopLocked(RawEvent* out) {
  // FIFO across bands: deliver the globally oldest event (smallest seq).
  size_t best_band = kNumBands;
  uint64_t best_seq = 0;
  for (size_t b = 0; b < kNumBands; ++b) {
    if (bands_[b].empty()) continue;
    const uint64_t seq = bands_[b].front().seq;
    if (best_band == kNumBands || seq < best_seq) {
      best_band = b;
      best_seq = seq;
    }
  }
  *out = std::move(bands_[best_band].front().event);
  bands_[best_band].pop_front();
  --depth_;
  ++stats_.popped;
  UpdateWatermarksLocked();
  SetDepthGaugeLocked();
}

void BackpressureQueue::CountShedLocked(FlowClass klass, Severity level) {
  ++stats_.shed_total;
  ++stats_.shed_by_class[static_cast<int>(klass)];
  const int ordinal =
      std::clamp(static_cast<int>(level), 1, kNumSeverityLevels);
  ++stats_.shed_by_level[ordinal - 1];
  shed_counter_->Increment();
}

void BackpressureQueue::UpdateWatermarksLocked() {
  if (!shedding_ && depth_ >= options_.high_watermark) {
    shedding_ = true;
    ++stats_.shed_mode_entries;
  } else if (shedding_ && depth_ <= options_.low_watermark) {
    shedding_ = false;
  }
}

void BackpressureQueue::SetDepthGaugeLocked() {
  depth_gauge_->Set(static_cast<double>(depth_));
  if (depth_ > stats_.peak_depth) {
    stats_.peak_depth = depth_;
    peak_depth_gauge_->Set(static_cast<double>(depth_));
  }
}

}  // namespace cdibot::flow
