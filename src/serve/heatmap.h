#ifndef CDIBOT_SERVE_HEATMAP_H_
#define CDIBOT_SERVE_HEATMAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/placement.h"
#include "common/statusor.h"
#include "common/time.h"
#include "event/catalog.h"
#include "event/event_view.h"

namespace cdibot::serve {

/// One fleet × time damage-heatmap request (the CloudHeatMap view: rows
/// are placement groups, columns are time buckets, cells are damage).
struct HeatmapSpec {
  /// Time axis; must be non-empty and divisible into `buckets` columns.
  Interval window;
  /// Number of time-bucket columns (1..4096).
  size_t buckets = 24;
  /// Placement dimension for the row axis ("region", "az", "cluster",
  /// ...). Targets missing the dimension land in the "" row.
  std::string group_dim = "region";
};

/// The rendered grid, stored SoA: row keys, bucket bounds, and one dense
/// row-major value plane per CDI category. A cell holds "damage minutes":
/// the summed overlap of each event's effective period (logged duration
/// when present, else the catalog/default expiration) with the bucket —
/// the same max-overlap proxy the paper's heatmap view plots, cheap enough
/// to render straight off the event log's SoA columns without resolving
/// periods per VM.
struct HeatmapGrid {
  std::vector<std::string> row_keys;  ///< sorted group values
  int64_t bucket_start_ms = 0;
  int64_t bucket_width_ms = 0;
  size_t buckets = 0;
  /// Row-major planes, size row_keys.size() * buckets.
  std::vector<double> unavailability;
  std::vector<double> performance;
  std::vector<double> control_plane;
  /// Events whose target had no dims entry (grouped under "").
  size_t targets_unmapped = 0;
  /// Events skipped because their name is not in the catalog.
  size_t events_unknown = 0;

  size_t rows() const { return row_keys.size(); }
  size_t CellIndex(size_t row, size_t bucket) const {
    return row * buckets + bucket;
  }
};

/// Builds a heatmap over `events` (a zero-copy span cut from the event
/// log or a retention buffer). `dims_by_target` maps each VM/NC target to
/// its placement dims (the fleet topology); `catalog` supplies each event
/// name's category and default duration. Events outside spec.window are
/// clipped to it; events that do not intersect it contribute nothing.
StatusOr<HeatmapGrid> BuildHeatmap(
    const EventSpan& events, const EventCatalog& catalog,
    const std::map<std::string, Placement>& dims_by_target,
    const HeatmapSpec& spec);

/// Renders the grid as a strict-JSON document (validated by
/// tests/strict_json.h): spec echo, bucket bounds, row keys, and the three
/// category planes as nested arrays.
std::string RenderHeatmapJson(const HeatmapSpec& spec,
                              const HeatmapGrid& grid);

}  // namespace cdibot::serve

#endif  // CDIBOT_SERVE_HEATMAP_H_
