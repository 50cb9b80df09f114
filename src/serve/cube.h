#ifndef CDIBOT_SERVE_CUBE_H_
#define CDIBOT_SERVE_CUBE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdi/drilldown.h"
#include "cdi/pipeline.h"
#include "common/statusor.h"
#include "common/time.h"
#include "obs/metrics.h"

namespace cdibot::serve {

/// Maintenance counters for one cube (also mirrored to <prefix>.cube.*).
struct CubeStats {
  uint64_t refreshes = 0;       ///< snapshots folded in
  uint64_t views = 0;           ///< materialized (group-by × filter) views
  uint64_t groups_recomputed = 0;
  uint64_t groups_reused = 0;   ///< groups whose members were bit-unchanged
  uint64_t answers = 0;
};

/// Incrementally maintained drill-down cube over one source's per-VM rows.
///
/// A "view" is one (group-by dimensions, filter) combination — region,
/// region × az, az filtered to one region, ... — materialized lazily on
/// first query. Each view keeps, per group, the member rows' bits and the
/// folded DrilldownGroup. On Refresh (a new engine snapshot, i.e. a watermark
/// advance) every view's membership is recomputed from the new rows, but a
/// group's Eq.-4 fold is re-run only when its member rows actually changed
/// — bitwise — so a quiet region costs a comparison, not a fold.
///
/// Bit-identity contract (pinned by the differential suite): Answer() is
/// bitwise equal to RunDrilldown(rows, query) over the current rows, for
/// every double. This holds because both fold each group through the same
/// exact, order-free DrilldownGroupFold, and an unchanged group's cached
/// fold is definitionally the fold of the same bits.
///
/// Thread safety: none; the owning CdiQueryService serializes access.
class DrilldownCube {
 public:
  explicit DrilldownCube(const std::string& metric_prefix = "serve");

  /// Replaces the cube's row set with a new snapshot's per_vm rows
  /// (assumed sorted by vm_id, as SnapshotImpl emits them) and
  /// re-validates every materialized view against it. The cube shares
  /// `detail` (non-null) with whoever else holds it — the query service
  /// hands the same result out as response detail — and keeps the
  /// previous one alive only while the revalidation compares the two.
  /// `watermark` is the snapshot's source watermark, recorded as the
  /// cube's as-of point.
  void Refresh(std::shared_ptr<const DailyCdiResult> detail,
               TimePoint watermark);

  /// Answers a drill-down query from the materialized view, creating the
  /// view on first use. Returns exactly what
  /// RunDrilldown(detail()->per_vm, query) would, bit for bit.
  StatusOr<DrilldownResult> Answer(const DrilldownQuery& query);

  /// The current snapshot (null before the first Refresh).
  const std::shared_ptr<const DailyCdiResult>& detail() const {
    return detail_;
  }
  TimePoint as_of() const { return as_of_; }
  bool loaded() const { return detail_ != nullptr; }
  CubeStats stats() const { return stats_; }

 private:
  struct GroupState {
    /// Indices into detail_->per_vm of the group's members, ascending
    /// (= fold order).
    std::vector<uint32_t> members;
    DrilldownGroup folded;
    /// False when Refresh found the membership bits unchanged.
    bool dirty = true;
  };

  struct View {
    DrilldownQuery query;
    /// Groups keyed by their dimension values (sorted — answer order).
    std::map<std::vector<std::string>, GroupState> groups;
    size_t records_filtered = 0;
  };

  /// Folds one dirty group through DrilldownGroupFold, as RunDrilldown
  /// does.
  void FoldGroup(const std::vector<std::string>& values, GroupState& state);
  static std::string ViewKey(const DrilldownQuery& query);

  std::shared_ptr<const DailyCdiResult> detail_;
  TimePoint as_of_;
  std::map<std::string, View> views_;
  CubeStats stats_;

  obs::Counter* refresh_counter_;
  obs::Counter* recompute_counter_;
  obs::Counter* reuse_counter_;
  obs::Gauge* view_gauge_;
};

}  // namespace cdibot::serve

#endif  // CDIBOT_SERVE_CUBE_H_
