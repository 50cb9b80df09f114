#ifndef CDIBOT_CDI_DRILLDOWN_H_
#define CDIBOT_CDI_DRILLDOWN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cdi/aggregate.h"
#include "cdi/vm_cdi.h"
#include "common/placement.h"
#include "common/statusor.h"

namespace cdibot {

/// Data-quality annotation attached to CDI output. A CDI computed from an
/// impaired telemetry stream is still emitted — the paper's position is
/// that a stability metric must keep working through instability — but it
/// carries this annotation so a consumer can tell a confident number from
/// a best-effort one. The counters cover the three ways input integrity
/// degrades: events that arrived broken (quarantined), events that a
/// collector announced but that never arrived (missing), and events that
/// admission control deliberately shed under overload.
struct DataQuality {
  /// Malformed events diverted to quarantine instead of entering the
  /// pipeline (empty name/target, impossible severity, ...).
  uint64_t events_quarantined = 0;
  /// Events announced by the collector's delivery manifest that were never
  /// received — the silent-gap signature of the paper's Case 7.
  uint64_t events_missing = 0;
  /// Events shed by overload admission control before reaching the engine
  /// (flow::BackpressureQueue). Never unavailability-class — the shed
  /// policy protects CDI-U inputs absolutely — so a degraded-by-shedding
  /// CDI can understate CDI-P/CDI-C damage but never downtime.
  uint64_t events_shed = 0;
  /// True when any counter is non-zero: this CDI was computed from
  /// impaired input and may deviate from ground truth.
  bool degraded = false;

  /// Recomputes `degraded` from the counters.
  void Refresh() {
    degraded =
        events_quarantined > 0 || events_missing > 0 || events_shed > 0;
  }

  void Merge(const DataQuality& o) {
    events_quarantined += o.events_quarantined;
    events_missing += o.events_missing;
    events_shed += o.events_shed;
    degraded = degraded || o.degraded;
  }
};

/// Per-VM output row of the daily CDI job (first MaxCompute table of
/// Sec. V): the three indicators, the service time, and the VM's placement
/// dimensions for BI drill-down (region, availability zone, cluster, NC,
/// deployment architecture, ...).
struct VmCdiRecord {
  std::string vm_id;
  Placement dims{};
  VmCdi cdi;
  /// Integrity of the input this row was computed from.
  DataQuality quality{};
};

/// Per-(VM, event-name) output row (second table of Sec. V): the damage an
/// event name contributed on one VM. Event-level CDI curves (Sec. VI-C)
/// re-aggregate these rows.
struct EventCdiRecord {
  std::string vm_id;
  std::string event_name;
  StabilityCategory category = StabilityCategory::kPerformance;
  /// Max-overlap weighted damage of this event name on this VM, in minutes.
  double damage_minutes = 0.0;
  /// The VM's service time (denominator for event-level CDI).
  Duration service_time;
  /// The VM's placement, shared with its per-VM row.
  Placement dims{};
};

/// A drill-down request. It follows the `DailyCdiJob::Options` + `StatusOr`
/// conventions (explicit request struct, validated up front, errors as
/// Status instead of silent empty output) and supports composite group-bys
/// — the paper's Sec. V "region, availability zone, or even the cluster
/// level" drill-down is a one-dimension query; region × az × arch is three.
struct DrilldownQuery {
  /// Group-by dimensions, most-significant first. Must be non-empty, with
  /// no duplicates and no empty names. Records missing a dimension group
  /// under "" for that slot.
  std::vector<std::string> dimensions;
  /// Exact-match pre-filter on record dims: a record participates only if
  /// every (dim, value) pair here matches. Empty = all records.
  std::map<std::string, std::string> filter{};
};

/// One group of a `RunDrilldown` answer.
struct DrilldownGroup {
  /// Dimension values, parallel to `DrilldownQuery::dimensions`.
  std::vector<std::string> values;
  /// Human-readable composite key: `values` joined with '/'.
  std::string key;
  /// Eq.-4 service-time-weighted aggregate over the group's member VMs.
  VmCdi cdi;
  size_t vm_count = 0;
  /// Merged input-integrity annotation of the member rows.
  DataQuality quality;
};

struct DrilldownResult {
  /// Groups sorted by `values` (lexicographic, slot by slot).
  std::vector<DrilldownGroup> groups;
  /// Records inspected / rejected by `DrilldownQuery::filter`.
  size_t records_scanned = 0;
  size_t records_filtered = 0;
  /// Merged quality over all participating records.
  DataQuality quality;
};

/// InvalidArgument when `dimensions` is empty, contains an empty name, or
/// contains a duplicate: the one dimension check of RunDrilldown, the
/// serving cube and the query service's group-by.
Status ValidateDrilldownDimensions(const std::vector<std::string>& dimensions);

/// One drill-down group being folded: the Eq.-4 partial, member count and
/// merged quality of its records. RunDrilldown and the serving cube both
/// fold through it, so their groups carry the same bits.
class DrilldownGroupFold {
 public:
  void Add(const VmCdiRecord& rec);
  DrilldownGroup Finish(std::vector<std::string> values) const;

 private:
  FleetCdiPartial cdi_;
  size_t count_ = 0;
  DataQuality quality_;
};

/// Aggregates per-VM records along one or more placement dimensions with
/// Eq. 4; groups come out key-sorted.
///
/// Errors: InvalidArgument when `query.dimensions` fails
/// ValidateDrilldownDimensions.
StatusOr<DrilldownResult> RunDrilldown(const std::vector<VmCdiRecord>& records,
                                       const DrilldownQuery& query);

/// Event-level CDI per event name (Sec. VI-C: Algorithm 1 with the input
/// narrowed to specific events, aggregated with Eq. 4 over the whole
/// fleet): total damage of the event divided by `fleet_service_time`, the
/// summed service time of ALL evaluated VMs — unaffected VMs contribute
/// zero damage but full service time, exactly as in the paper's drill-down
/// curves. Each name's damage is summed exactly and divided once, so the
/// answer is independent of row order and equals EventLevelCdiFor bit for
/// bit. Requires a positive fleet service time.
StatusOr<std::map<std::string, double>> EventLevelCdi(
    const std::vector<EventCdiRecord>& records, Duration fleet_service_time);

/// Event-level CDI restricted to one event name; 0 when absent.
StatusOr<double> EventLevelCdiFor(const std::vector<EventCdiRecord>& records,
                                  const std::string& event_name,
                                  Duration fleet_service_time);

}  // namespace cdibot

#endif  // CDIBOT_CDI_DRILLDOWN_H_
