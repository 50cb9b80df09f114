#include "cdi/baselines.h"

#include <algorithm>

namespace cdibot {
namespace {

constexpr double kMillisPerYear = 365.0 * 86400.0 * 1000.0;

}  // namespace

StatusOr<UnavailabilityStats> ComputeUnavailabilityStats(
    const std::vector<ResolvedEventView>& events,
    const Interval& service_period) {
  if (service_period.empty()) {
    return Status::InvalidArgument("service period must be non-empty");
  }
  std::vector<Interval> episodes;
  for (const ResolvedEventView& ev : events) {
    if (ev.category != StabilityCategory::kUnavailability) continue;
    const Interval clamped = ev.period.ClampTo(service_period);
    if (!clamped.empty()) episodes.push_back(clamped);
  }
  std::sort(episodes.begin(), episodes.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  // Coalesce overlapping or touching intervals: a continuous stretch of
  // unavailability is one interruption from the customer's point of view.
  std::vector<Interval> merged;
  for (const Interval& ep : episodes) {
    if (!merged.empty() && ep.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, ep.end);
    } else {
      merged.push_back(ep);
    }
  }

  UnavailabilityStats stats;
  stats.interruption_count = merged.size();
  Duration down;
  for (const Interval& ep : merged) down += ep.length();
  stats.downtime = down;

  const auto service_ms = static_cast<double>(service_period.length().millis());
  stats.downtime_percentage =
      static_cast<double>(down.millis()) / service_ms;
  stats.annual_interruption_rate =
      static_cast<double>(merged.size()) * kMillisPerYear / service_ms;
  stats.mtbf = merged.empty()
                   ? service_period.length()
                   : Duration::Millis(service_period.length().millis() /
                                      static_cast<int64_t>(merged.size()));
  stats.mttr = merged.empty()
                   ? Duration::Zero()
                   : Duration::Millis(down.millis() /
                                      static_cast<int64_t>(merged.size()));
  return stats;
}

void UnavailabilityPartial::AddVm(const UnavailabilityStats& vm,
                                  Duration service_time) {
  interruption_count_ += vm.interruption_count;
  downtime_ += vm.downtime;
  service_total_ += service_time;
}

UnavailabilityPartial UnavailabilityPartial::FromRaw(
    size_t interruption_count, Duration downtime, Duration service_total) {
  UnavailabilityPartial p;
  p.interruption_count_ = interruption_count;
  p.downtime_ = downtime;
  p.service_total_ = service_total;
  return p;
}

void UnavailabilityPartial::Merge(const UnavailabilityPartial& other) {
  interruption_count_ += other.interruption_count_;
  downtime_ += other.downtime_;
  service_total_ += other.service_total_;
}

UnavailabilityStats UnavailabilityPartial::Finalize() const {
  UnavailabilityStats total;
  total.interruption_count = interruption_count_;
  total.downtime = downtime_;
  const auto service_ms = static_cast<double>(service_total_.millis());
  if (service_ms > 0) {
    total.downtime_percentage =
        static_cast<double>(downtime_.millis()) / service_ms;
    total.annual_interruption_rate =
        static_cast<double>(interruption_count_) * kMillisPerYear / service_ms;
    total.mtbf =
        interruption_count_ == 0
            ? service_total_
            : Duration::Millis(service_total_.millis() /
                               static_cast<int64_t>(interruption_count_));
    total.mttr =
        interruption_count_ == 0
            ? Duration::Zero()
            : Duration::Millis(downtime_.millis() /
                               static_cast<int64_t>(interruption_count_));
  }
  return total;
}

}  // namespace cdibot
