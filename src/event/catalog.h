#ifndef CDIBOT_EVENT_CATALOG_H_
#define CDIBOT_EVENT_CATALOG_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"

namespace cdibot {

/// How an event's period is derived (Sec. IV-B).
enum class PeriodKind : int {
  /// Stateless event whose impact duration is measured and logged by the
  /// extractor (e.g. qemu_live_upgrade logs milliseconds): the event's
  /// timestamp is the end time and start = end - logged duration.
  kLoggedDuration = 0,
  /// Stateless event extracted per detection window (e.g. slow_io, checked
  /// each minute): duration approximated by the window size; a persistently
  /// compromised VM emits consecutive events covering consecutive windows.
  kWindowed = 1,
  /// Stateful event represented by paired detail events from other teams
  /// (e.g. ddos_blackhole = ddos_blackhole_add .. ddos_blackhole_del).
  kStateful = 2,
};

/// Static description of one event name: which CDI sub-metric it feeds,
/// default expert severity, expiration, and how to resolve its period.
struct EventSpec {
  std::string name;
  StabilityCategory category = StabilityCategory::kPerformance;
  Severity default_level = Severity::kWarning;
  Duration expire_interval = Duration::Hours(24);
  PeriodKind period_kind = PeriodKind::kWindowed;
  /// Detection window for kWindowed events.
  Duration window = Duration::Minutes(1);
  /// Fallback duration for kLoggedDuration events missing the attribute.
  Duration default_duration = Duration::Minutes(1);
  /// Names of the start/end detail events for kStateful events.
  std::string start_detail{};
  std::string end_detail{};
};

/// EventCatalog is the registry of known event names. The Event Extractor
/// stamps events from catalog defaults; the PeriodResolver and CDI pipeline
/// consult it to classify and resolve each event. A catalog is immutable
/// once built and safe for concurrent reads.
class EventCatalog {
 public:
  EventCatalog() = default;

  /// Registers a spec. Fails with AlreadyExists on duplicate names (including
  /// a stateful spec's detail names, which are also reserved).
  Status Register(EventSpec spec);

  /// Looks up the spec for `name`. For stateful events, detail names
  /// (start/end) resolve to their parent spec.
  StatusOr<EventSpec> Find(const std::string& name) const;

  /// A borrowed, allocation-free view of one registered spec together with
  /// its interned ids (GlobalInterner): the parent name id plus the
  /// start/end detail ids for stateful specs (kInvalidId otherwise). The
  /// spec pointer is valid until the next Register — catalogs are
  /// immutable once built, so in practice for the catalog's lifetime.
  struct SpecHandle {
    const EventSpec* spec = nullptr;
    uint32_t name_id = StringInterner::kInvalidId;
    uint32_t start_detail_id = StringInterner::kInvalidId;
    uint32_t end_detail_id = StringInterner::kInvalidId;
  };

  /// Zero-copy lookup by name (parent or stateful detail). nullopt for
  /// unknown names.
  std::optional<SpecHandle> FindHandle(std::string_view name) const;

  /// Zero-copy lookup by interned name id (parent or stateful detail).
  /// nullopt for ids that name no registered spec.
  std::optional<SpecHandle> FindHandleById(uint32_t name_id) const;

  bool Contains(const std::string& name) const;

  /// All registered (parent) specs, in registration order.
  const std::vector<EventSpec>& specs() const { return specs_; }

  /// Builds the default catalog covering every event named in the paper
  /// (Fig. 1, Table IV, Cases 1–8) plus the control-plane operation events.
  static EventCatalog BuiltIn();

 private:
  // Transparent hashing so FindHandle(string_view) never materializes a
  // std::string for the lookup key.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Interned ids of specs_[i]'s names, parallel to specs_.
  struct SpecIds {
    uint32_t name_id = StringInterner::kInvalidId;
    uint32_t start_detail_id = StringInterner::kInvalidId;
    uint32_t end_detail_id = StringInterner::kInvalidId;
  };

  SpecHandle HandleAt(size_t idx) const {
    return SpecHandle{&specs_[idx], ids_[idx].name_id,
                      ids_[idx].start_detail_id, ids_[idx].end_detail_id};
  }

  std::vector<EventSpec> specs_;
  std::vector<SpecIds> ids_;
  // Maps both parent names and stateful detail names to indexes in specs_.
  std::unordered_map<std::string, size_t, StringHash, std::equal_to<>> index_;
  // Same mapping keyed by interned name id, for the view-path resolver.
  std::unordered_map<uint32_t, size_t> id_index_;
};

}  // namespace cdibot

#endif  // CDIBOT_EVENT_CATALOG_H_
