#ifndef CDIBOT_EVENT_EVENT_H_
#define CDIBOT_EVENT_EVENT_H_

#include <map>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "common/time.h"

namespace cdibot {

/// The three stability-issue categories of Definition 1 in the paper. Every
/// event belongs to exactly one category, and the CDI splits into one
/// sub-metric per category (Sec. IV-A).
enum class StabilityCategory : int {
  kUnavailability = 0,  ///< VM cannot provide compute at all (CDI-U).
  kPerformance = 1,     ///< VM available but below expectation (CDI-P).
  kControlPlane = 2,    ///< VM cannot be managed: start/stop/resize (CDI-C).
};

inline constexpr int kNumStabilityCategories = 3;

std::string_view StabilityCategoryToString(StabilityCategory c);
StatusOr<StabilityCategory> StabilityCategoryFromString(std::string_view s);

/// Expert-assigned severity levels in increasing order (Sec. IV-C uses
/// m = 4 levels; Example 3 places "critical" third of four).
enum class Severity : int {
  kInfo = 1,
  kWarning = 2,
  kCritical = 3,
  kFatal = 4,
};

inline constexpr int kNumSeverityLevels = 4;

std::string_view SeverityToString(Severity s);
StatusOr<Severity> SeverityFromString(std::string_view s);

/// A raw CloudBot event as produced by the Event Extractor — the fields of
/// Table II. A raw event is an observation at a single extraction timestamp;
/// the PeriodResolver later turns streams of raw events into
/// ResolvedEventViews with a start/end period (Sec. IV-B).
struct RawEvent {
  /// Interpretable event name, e.g. "slow_io". Keys into the EventCatalog.
  std::string name;
  /// Timestamp when the event was extracted.
  TimePoint time;
  /// Target of the event: a VM id or a physical-machine (NC) id.
  std::string target;
  /// Interval between extraction and expiration of the event.
  Duration expire_interval;
  /// Severity determined by the particular conditions of the target; events
  /// with identical names may carry different levels.
  Severity level = Severity::kWarning;
  /// Optional extractor-supplied attributes. A "duration_ms" attribute holds
  /// the measured impact duration for logged-duration events (e.g.
  /// qemu_live_upgrade logs its pause time in milliseconds).
  std::map<std::string, std::string> attrs;

  /// Convenience accessor for the "duration_ms" attribute.
  /// Returns NotFound when absent, InvalidArgument when unparseable.
  StatusOr<Duration> LoggedDuration() const;

  std::string ToString() const;

  bool operator==(const RawEvent&) const = default;
};

}  // namespace cdibot

#endif  // CDIBOT_EVENT_EVENT_H_
