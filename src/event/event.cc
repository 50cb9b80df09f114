#include "event/event.h"

#include <cstdlib>

#include "common/strings.h"

namespace cdibot {

std::string_view StabilityCategoryToString(StabilityCategory c) {
  switch (c) {
    case StabilityCategory::kUnavailability:
      return "unavailability";
    case StabilityCategory::kPerformance:
      return "performance";
    case StabilityCategory::kControlPlane:
      return "control_plane";
  }
  return "unknown";
}

StatusOr<StabilityCategory> StabilityCategoryFromString(std::string_view s) {
  if (s == "unavailability") return StabilityCategory::kUnavailability;
  if (s == "performance") return StabilityCategory::kPerformance;
  if (s == "control_plane") return StabilityCategory::kControlPlane;
  return Status::InvalidArgument("unknown stability category: " +
                                 std::string(s));
}

std::string_view SeverityToString(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
    case Severity::kFatal:
      return "fatal";
  }
  return "unknown";
}

StatusOr<Severity> SeverityFromString(std::string_view s) {
  if (s == "info") return Severity::kInfo;
  if (s == "warning") return Severity::kWarning;
  if (s == "critical") return Severity::kCritical;
  if (s == "fatal") return Severity::kFatal;
  return Status::InvalidArgument("unknown severity: " + std::string(s));
}

StatusOr<Duration> RawEvent::LoggedDuration() const {
  auto it = attrs.find("duration_ms");
  if (it == attrs.end()) {
    return Status::NotFound("event has no duration_ms attribute");
  }
  char* end = nullptr;
  const long long ms = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || ms < 0) {
    return Status::InvalidArgument("bad duration_ms: " + it->second);
  }
  return Duration::Millis(ms);
}

std::string RawEvent::ToString() const {
  return StrFormat("RawEvent{%s @ %s on %s, level=%s}", name.c_str(),
                   time.ToString().c_str(), target.c_str(),
                   std::string(SeverityToString(level)).c_str());
}

}  // namespace cdibot
