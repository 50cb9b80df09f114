#ifndef CDIBOT_CDI_INDICATOR_H_
#define CDIBOT_CDI_INDICATOR_H_

#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"
#include "event/event_view.h"

namespace cdibot {

/// Algorithm 1 of the paper: the CDI of one VM over a service period.
///
/// Each weighted event paints its weight onto [t_s, t_e); where events
/// overlap, the segment takes the maximum weight (Sec. IV-D). The CDI is the
/// weight-integral divided by the service-period length, so it lies in
/// [0, 1] whenever all weights do.
///
/// This is the production implementation: an O(n log n) boundary sweep, not
/// the per-timestep array of the pseudo-code (see ComputeCdiNaive for that
/// literal version, kept for differential testing and the sweep ablation).
///
/// Events are clamped into `service_period`; events entirely outside it are
/// ignored. Requires a non-empty service period and weights >= 0.
StatusOr<double> ComputeCdi(const std::vector<WeightedEventView>& events,
                            const Interval& service_period);

/// The literal Algorithm 1: materializes a per-minute weight array
/// W[T_s..T_e], takes per-slot maxima, and averages. Time and memory are
/// proportional to the service period length in minutes. Event boundaries
/// are effectively rounded to the minute grid, so results can differ from
/// ComputeCdi by at most one slot per event boundary; with minute-aligned
/// events (the common case — detection windows are whole minutes) the two
/// agree exactly.
StatusOr<double> ComputeCdiNaive(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period);

/// A variant for the aggregation-semantics ablation: overlapping events sum
/// (capped at 1.0) instead of taking the max. Not used by the CDI proper.
StatusOr<double> ComputeCdiSumOverlap(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period);

/// The damage integral (numerator of the CDI): sum over time of the maximum
/// active weight, expressed as a Duration-weighted value in minutes. Exposed
/// for event-level drill-down tables, which store per-event damage.
StatusOr<double> ComputeDamageMinutes(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period);

}  // namespace cdibot

#endif  // CDIBOT_CDI_INDICATOR_H_
