#ifndef CDIBOT_CDI_BASELINES_H_
#define CDIBOT_CDI_BASELINES_H_

#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"
#include "event/event_view.h"

namespace cdibot {

/// The traditional unavailability-only metrics CDI is compared against in
/// Sec. III-A and Fig. 5. All of them look exclusively at unavailability
/// events, which is exactly why they miss performance and control-plane
/// damage.
struct UnavailabilityStats {
  /// Downtime Percentage: unavailable time / total service time.
  double downtime_percentage = 0.0;
  /// Interruption episodes per year of service time (Azure's Annual
  /// Interruption Rate, ref. [4]: frequency rather than duration).
  double annual_interruption_rate = 0.0;
  /// Mean time between failures (service time / episode count); zero
  /// episodes reports the whole service time.
  Duration mtbf;
  /// Mean time to repair (mean episode length); zero when no episodes.
  Duration mttr;
  /// Number of merged unavailability episodes.
  size_t interruption_count = 0;
  /// Total unavailable time after merging overlaps.
  Duration downtime;
};

/// Merges the unavailability events in `events` into disjoint episodes
/// (overlapping or touching intervals coalesce into one interruption) and
/// derives the classic metrics over `service_period`. Non-unavailability
/// events are ignored — by construction, mirroring industry practice.
StatusOr<UnavailabilityStats> ComputeUnavailabilityStats(
    const std::vector<ResolvedEventView>& events,
    const Interval& service_period);

/// Mergeable partial form of the classic-metrics fleet rollup: episode
/// counts, downtime, and service time are plain sums, so per-shard partials
/// merge associatively and the rates re-derive at finalize time.
/// DailyCdiResultBuilder keeps one per assembled result.
class UnavailabilityPartial {
 public:
  UnavailabilityPartial() = default;

  void AddVm(const UnavailabilityStats& vm, Duration service_time);
  void Merge(const UnavailabilityPartial& other);

  /// Fleet-level stats over everything folded so far.
  UnavailabilityStats Finalize() const;

  bool empty() const { return service_total_.IsZero(); }

  /// Reconstructs a partial from its raw sums. All three components are
  /// integers (episode count plus two millisecond durations), so a partial
  /// round-trips through FromRaw(raw fields) — and therefore across a wire
  /// encoding — exactly, and partials reconstructed on different shards
  /// merge bit-identically in any order. The shard coordinator relies on
  /// this to gather per-shard baselines without shipping per-VM stats.
  static UnavailabilityPartial FromRaw(size_t interruption_count,
                                       Duration downtime,
                                       Duration service_total);
  size_t raw_interruption_count() const { return interruption_count_; }
  Duration raw_downtime() const { return downtime_; }
  Duration raw_service_total() const { return service_total_; }

 private:
  size_t interruption_count_ = 0;
  Duration downtime_;
  Duration service_total_;
};

}  // namespace cdibot

#endif  // CDIBOT_CDI_BASELINES_H_
