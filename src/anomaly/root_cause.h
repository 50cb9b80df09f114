#ifndef CDIBOT_ANOMALY_ROOT_CAUSE_H_
#define CDIBOT_ANOMALY_ROOT_CAUSE_H_

#include <map>
#include <string>
#include <vector>

#include "common/placement.h"
#include "common/statusor.h"

namespace cdibot {

/// One measured record with categorical dimensions (region, AZ, cluster,
/// event name, ...) and a non-negative measure (e.g. damage minutes).
struct DimensionedRecord {
  Placement dims;
  double measure = 0.0;
};

/// A root-cause candidate: a (dimension, value) slice and how much of the
/// total measure change it explains.
struct RootCauseCandidate {
  std::string dimension;
  std::string value;
  /// Measure in the baseline and anomalous snapshots for this slice.
  double baseline = 0.0;
  double anomalous = 0.0;
  /// Share of the total change attributed to this slice, in [0, 1] when the
  /// slice moves with the total (can exceed it when other slices move the
  /// opposite way).
  double explanatory_power = 0.0;
};

/// Single-level multi-dimensional root-cause localization in the spirit of
/// ref. [40]: compares an anomalous snapshot of dimensioned measures against
/// a baseline snapshot and ranks (dimension, value) slices by the share of
/// the total change they explain. Used by Sec. VI-C to point engineers at
/// the source of a CDI spike or dip.
///
/// Returns candidates sorted by descending explanatory power, truncated to
/// `top_k`. Requires a non-zero total change.
StatusOr<std::vector<RootCauseCandidate>> LocalizeRootCause(
    const std::vector<DimensionedRecord>& baseline,
    const std::vector<DimensionedRecord>& anomalous, size_t top_k = 5);

}  // namespace cdibot

#endif  // CDIBOT_ANOMALY_ROOT_CAUSE_H_
