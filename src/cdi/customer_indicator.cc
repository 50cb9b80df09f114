#include "cdi/customer_indicator.h"

namespace cdibot {

CustomerEventFilter CustomerEventFilter::BuiltIn() {
  return CustomerEventFilter({
      // Data-plane symptoms the customer observes directly or through
      // instance health diagnosis.
      "vm_crash", "vm_hang", "vm_reboot", "nc_down", "ddos_blackhole",
      "disk_unavailable", "slow_io", "packet_loss", "gpu_drop",
      // Control operations the customer initiated and saw fail.
      "vm_start_failed", "vm_stop_failed", "vm_release_failed",
      "vm_resize_failed", "vm_create_failed", "api_error",
      "console_unavailable",
      // NOT disclosed: vcpu_high (contention diagnostics),
      // inspect_cpu_power_tdp, vm_allocation_failed, mem_bw_contention,
      // nic_flapping, qemu_live_upgrade, live_migration, monitoring_loss.
  });
}

std::vector<ResolvedEventView> CustomerEventFilter::Filter(
    const std::vector<ResolvedEventView>& events) const {
  std::vector<ResolvedEventView> out;
  out.reserve(events.size());
  for (const ResolvedEventView& ev : events) {
    if (IsDisclosed(GlobalInterner().NameOf(ev.name_id))) out.push_back(ev);
  }
  return out;
}

namespace {

StatusOr<VmCdi> WeightAndCompute(const std::vector<ResolvedEventView>& events,
                                 const EventWeightModel& weights,
                                 const Interval& service_period) {
  CDIBOT_ASSIGN_OR_RETURN(const std::vector<WeightedEventView> weighted,
                          AttachWeights(events, weights));
  return ComputeVmCdi(weighted, service_period);
}

}  // namespace

StatusOr<VmCdi> ComputeCustomerCdi(
    const std::vector<ResolvedEventView>& events,
    const EventWeightModel& weights, const CustomerEventFilter& filter,
    const Interval& service_period) {
  return WeightAndCompute(filter.Filter(events), weights, service_period);
}

StatusOr<CdiCpiComparison> CompareCdiAndCpi(
    const std::vector<ResolvedEventView>& events,
    const EventWeightModel& weights, const CustomerEventFilter& filter,
    const Interval& service_period) {
  CdiCpiComparison result;
  CDIBOT_ASSIGN_OR_RETURN(result.internal,
                          WeightAndCompute(events, weights, service_period));
  CDIBOT_ASSIGN_OR_RETURN(
      result.customer,
      ComputeCustomerCdi(events, weights, filter, service_period));
  return result;
}

}  // namespace cdibot
