#ifndef CDIBOT_EVENT_OVERRIDES_H_
#define CDIBOT_EVENT_OVERRIDES_H_

#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "event/catalog.h"

namespace cdibot {

/// A per-scenario adjustment to one event's catalog spec — the
/// configuration mechanism of Sec. VIII-A: "though our existing events are
/// designed for generic use cases, they can be customized for particular
/// scenarios via configuration adjustment. For example, due to the
/// sensitivity to network fluctuations, Redis instances might necessitate
/// a higher warning level."
struct EventOverride {
  std::string event_name;
  /// New default severity, when set.
  std::optional<Severity> level{};
  /// New detection window (windowed events only), when set.
  std::optional<Duration> window{};
  /// New expiration interval, when set.
  std::optional<Duration> expire_interval{};
};

/// Returns a copy of `base` with the overrides applied. Fails with NotFound
/// for unknown events and InvalidArgument for a window override on a
/// non-windowed event.
StatusOr<EventCatalog> ApplyOverrides(
    const EventCatalog& base, const std::vector<EventOverride>& overrides);

}  // namespace cdibot

#endif  // CDIBOT_EVENT_OVERRIDES_H_
