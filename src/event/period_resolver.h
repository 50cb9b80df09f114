#ifndef CDIBOT_EVENT_PERIOD_RESOLVER_H_
#define CDIBOT_EVENT_PERIOD_RESOLVER_H_

#include <optional>
#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "event/catalog.h"
#include "event/event.h"
#include "event/event_view.h"

namespace cdibot {

/// Counters describing what a ResolveRefs() call did with its input; used by the
/// pipeline for data-quality monitoring (the paper's Case 7 motivates
/// watching for silently dropped or zeroed data).
struct ResolveStats {
  size_t resolved = 0;
  /// Raw events whose name is not in the catalog (dropped).
  size_t unknown_dropped = 0;
  /// Consecutive duplicate stateful detail events (Sec. IV-B2 keeps only the
  /// earliest of a run; Example 2 drops the add at t3 and the del at t5).
  size_t duplicate_details_dropped = 0;
  /// End details with no preceding start detail (dirty data, dropped).
  size_t dangling_end_dropped = 0;
  /// Start details with no subsequent end; closed at start + expire_interval
  /// (clamped to the analysis bounds when provided).
  size_t unpaired_start_closed = 0;

  /// Folds another counter set in (fleet rollup of per-VM resolutions).
  void Merge(const ResolveStats& o) {
    resolved += o.resolved;
    unknown_dropped += o.unknown_dropped;
    duplicate_details_dropped += o.duplicate_details_dropped;
    dangling_end_dropped += o.dangling_end_dropped;
    unpaired_start_closed += o.unpaired_start_closed;
  }
};

/// PeriodResolver implements Sec. IV-B: it converts raw extraction-timestamp
/// events into ResolvedEventViews with a [start, end) period.
///
///  * kLoggedDuration events end at their timestamp and start
///    `duration_ms` (or the spec's default) earlier.
///  * kWindowed events end at their timestamp and start one detection window
///    earlier; consecutive emissions naturally tile a persistent issue.
///  * kStateful events pair a start detail with the nearest subsequent end
///    detail per (event, target); within a run of identical consecutive
///    details only the earliest is kept (Example 2).
///
/// The resolver is stateless and safe for concurrent use.
class PeriodResolver {
 public:
  /// `catalog` must outlive the resolver.
  explicit PeriodResolver(const EventCatalog* catalog);

  /// Resolves a batch of events (any mix of targets and names; order
  /// does not matter — events are sorted internally) into interned-id
  /// views. When `bounds` is given, resolved periods are clamped into it
  /// and events that fall entirely outside are dropped; unpaired stateful
  /// starts are closed at min(start + expire, bounds.end). The refs must
  /// stay valid for the call.
  StatusOr<std::vector<ResolvedEventView>> ResolveRefs(
      const std::vector<EventRef>& events,
      std::optional<Interval> bounds = std::nullopt,
      ResolveStats* stats = nullptr) const;

 private:
  const EventCatalog* catalog_;
};

}  // namespace cdibot

#endif  // CDIBOT_EVENT_PERIOD_RESOLVER_H_
