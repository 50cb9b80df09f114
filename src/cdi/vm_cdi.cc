#include "cdi/vm_cdi.h"

#include "cdi/indicator.h"

namespace cdibot {

StatusOr<std::vector<WeightedEventView>> AttachWeights(
    const std::vector<ResolvedEventView>& events,
    const EventWeightModel& model) {
  std::vector<WeightedEventView> out;
  out.reserve(events.size());
  for (const ResolvedEventView& ev : events) {
    CDIBOT_ASSIGN_OR_RETURN(const double w, model.WeightFor(ev));
    out.push_back(WeightedEventView{.period = ev.period,
                                    .weight = w,
                                    .name_id = ev.name_id,
                                    .category = ev.category});
  }
  return out;
}

StatusOr<VmCdi> ComputeVmCdi(const std::vector<WeightedEventView>& events,
                             const Interval& service_period) {
  if (service_period.empty()) {
    return Status::InvalidArgument("service period must be non-empty");
  }
  std::vector<WeightedEventView> by_cat[kNumStabilityCategories];
  for (const WeightedEventView& ev : events) {
    by_cat[static_cast<int>(ev.category)].push_back(ev);
  }
  VmCdi result;
  result.service_time = service_period.length();
  CDIBOT_ASSIGN_OR_RETURN(
      result.unavailability,
      ComputeCdi(by_cat[static_cast<int>(StabilityCategory::kUnavailability)],
                 service_period));
  CDIBOT_ASSIGN_OR_RETURN(
      result.performance,
      ComputeCdi(by_cat[static_cast<int>(StabilityCategory::kPerformance)],
                 service_period));
  CDIBOT_ASSIGN_OR_RETURN(
      result.control_plane,
      ComputeCdi(by_cat[static_cast<int>(StabilityCategory::kControlPlane)],
                 service_period));
  return result;
}

}  // namespace cdibot
