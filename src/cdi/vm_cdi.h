#ifndef CDIBOT_CDI_VM_CDI_H_
#define CDIBOT_CDI_VM_CDI_H_

#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"
#include "event/event_view.h"
#include "weights/event_weights.h"

namespace cdibot {

/// The three CDI sub-metrics of one VM (or one aggregate of VMs) over a
/// service period (Sec. IV-A). Each lies in [0, 1]; 0 is a perfectly stable
/// period.
struct VmCdi {
  /// CDI-U: ratio of unavailability duration to service time (unweighted).
  double unavailability = 0.0;
  /// CDI-P: ratio of weighted performance-impact duration to service time.
  double performance = 0.0;
  /// CDI-C: ratio of weighted uncontrollability duration to service time.
  double control_plane = 0.0;
  /// T_i in Eq. 4: the VM's service time within the evaluation window.
  Duration service_time{};

  /// Sub-metric accessor by category.
  double ForCategory(StabilityCategory c) const {
    switch (c) {
      case StabilityCategory::kUnavailability:
        return unavailability;
      case StabilityCategory::kPerformance:
        return performance;
      case StabilityCategory::kControlPlane:
        return control_plane;
    }
    return 0.0;
  }
};

/// Applies the weight model to resolved events, producing Algorithm-1
/// inputs. Events whose weight lookup fails propagate the error.
StatusOr<std::vector<WeightedEventView>> AttachWeights(
    const std::vector<ResolvedEventView>& events,
    const EventWeightModel& model);

/// Computes the three sub-metrics for one VM: splits `events` by category and
/// runs Algorithm 1 per category over `service_period` (Sec. IV-A: "the
/// calculation process for each is identical, and the only difference lies in
/// the specific events they rely on").
StatusOr<VmCdi> ComputeVmCdi(const std::vector<WeightedEventView>& events,
                             const Interval& service_period);

}  // namespace cdibot

#endif  // CDIBOT_CDI_VM_CDI_H_
