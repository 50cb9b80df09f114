#ifndef CDIBOT_CDI_CUSTOMER_INDICATOR_H_
#define CDIBOT_CDI_CUSTOMER_INDICATOR_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cdi/vm_cdi.h"
#include "common/statusor.h"

namespace cdibot {

/// The Customer-Perspective Indicator of Sec. VIII-B: the CDI framework
/// applied to only the event subset disclosed to customers through ECS
/// instance health diagnosis (ref. [2]). Internally detected issues the
/// customer cannot see (e.g. TDP inspection, allocation-data errors) are
/// excluded, so the CPI answers "how unstable did this VM look *to its
/// owner*" — a lower bound on the internal CDI.
class CustomerEventFilter {
 public:
  /// Builds a filter over an explicit disclosed-event allowlist.
  explicit CustomerEventFilter(
      std::set<std::string, std::less<>> disclosed_events)
      : disclosed_(std::move(disclosed_events)) {}

  /// The default disclosure set modeled on instance health diagnosis:
  /// customer-visible symptoms (crash, hang, reboot, blackhole, slow IO,
  /// packet loss, failed control operations) but not internal inspection
  /// events.
  static CustomerEventFilter BuiltIn();

  bool IsDisclosed(std::string_view event_name) const {
    return disclosed_.count(event_name) > 0;
  }

  /// The disclosed subset of `events`.
  std::vector<ResolvedEventView> Filter(
      const std::vector<ResolvedEventView>& events) const;

  const std::set<std::string, std::less<>>& disclosed_events() const {
    return disclosed_;
  }

 private:
  std::set<std::string, std::less<>> disclosed_;
};

/// Internal CDI and customer-perspective CPI for the same VM and period,
/// plus the "hidden damage" the customer cannot observe.
struct CdiCpiComparison {
  VmCdi internal;
  VmCdi customer;

  /// Per-category damage visible internally but not to the customer
  /// (internal - customer; >= 0 by construction).
  double HiddenUnavailability() const {
    return internal.unavailability - customer.unavailability;
  }
  double HiddenPerformance() const {
    return internal.performance - customer.performance;
  }
  double HiddenControlPlane() const {
    return internal.control_plane - customer.control_plane;
  }
};

/// Computes the CPI: ComputeVmCdi restricted to disclosed events.
StatusOr<VmCdi> ComputeCustomerCdi(
    const std::vector<ResolvedEventView>& events,
    const EventWeightModel& weights, const CustomerEventFilter& filter,
    const Interval& service_period);

/// Computes both perspectives at once.
StatusOr<CdiCpiComparison> CompareCdiAndCpi(
    const std::vector<ResolvedEventView>& events,
    const EventWeightModel& weights,
    const CustomerEventFilter& filter, const Interval& service_period);

}  // namespace cdibot

#endif  // CDIBOT_CDI_CUSTOMER_INDICATOR_H_
