// Test-side builders for the event types of the CDI path. Raw events are
// resolved the way production resolves them: appended to an EventRows and
// run through PeriodResolver::ResolveRefs. Resolved and weighted literals
// carry GlobalInterner ids, as every EventRows does.
#ifndef CDIBOT_TESTS_EVENT_TEST_UTIL_H_
#define CDIBOT_TESTS_EVENT_TEST_UTIL_H_

#include <optional>
#include <string_view>
#include <vector>

#include "event/event_view.h"
#include "event/period_resolver.h"

namespace cdibot::testutil {

/// Appends `raw` (in order) to a fresh EventRows and resolves every row.
inline StatusOr<std::vector<ResolvedEventView>> ResolveRaw(
    const PeriodResolver& resolver, const std::vector<RawEvent>& raw,
    std::optional<Interval> bounds = std::nullopt,
    ResolveStats* stats = nullptr) {
  EventRows rows;
  std::vector<EventRef> refs;
  refs.reserve(raw.size());
  for (const RawEvent& ev : raw) refs.emplace_back(&rows, rows.Append(ev));
  return resolver.ResolveRefs(refs, bounds, stats);
}

/// The string behind a GlobalInterner id.
inline std::string_view NameOf(uint32_t id) {
  return GlobalInterner().NameOf(id);
}

/// A resolved event literal.
inline ResolvedEventView Resolved(
    std::string_view name, const Interval& period,
    StabilityCategory category = StabilityCategory::kPerformance,
    Severity level = Severity::kWarning, std::string_view target = "vm-1") {
  return ResolvedEventView{.name_id = GlobalInterner().Intern(name),
                           .target_id = GlobalInterner().Intern(target),
                           .period = period,
                           .level = level,
                           .category = category};
}

/// A weighted event literal; an empty `name` carries no name id.
inline WeightedEventView Weighted(
    const Interval& period, double weight,
    StabilityCategory category = StabilityCategory::kPerformance,
    std::string_view name = {}) {
  return WeightedEventView{
      .period = period,
      .weight = weight,
      .name_id = name.empty() ? StringInterner::kInvalidId
                              : GlobalInterner().Intern(name),
      .category = category};
}

}  // namespace cdibot::testutil

#endif  // CDIBOT_TESTS_EVENT_TEST_UTIL_H_
