#include "event/period_resolver.h"

#include <algorithm>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdibot {
namespace {

/// One sortable unit of resolution work: an EventRef lowered to its sort
/// key plus the spec it resolves against.
struct Item {
  std::string_view target;
  std::string_view parent;  // parent spec name (== name for stateless)
  std::string_view name;    // raw name as extracted (detail name if stateful)
  int64_t time_ms = 0;
  Severity level = Severity::kWarning;
  const EventSpec* spec = nullptr;
  uint32_t parent_name_id = StringInterner::kInvalidId;
  uint32_t target_id = StringInterner::kInvalidId;
  /// Valid logged duration_ms, or -1 (absent/unparseable/negative) — the
  /// cases where kLoggedDuration resolution falls back to the spec default.
  int64_t logged_ms = -1;
  /// For stateful details: whether this is the start detail.
  bool is_start = false;
};

// Sort by (target, parent event, time) so stateful start/end details of
// the same issue stream interleave chronologically — sorting by the raw
// detail name would batch all starts before all ends and break both the
// consecutive-run dedup and the pairing. The (name, level) tie-breakers
// make the order — and therefore the stateful dedup/pairing outcome —
// deterministic even when two details of the same issue share a
// timestamp, so resolution is invariant under arrival-order permutations
// of the input.
bool ItemLess(const Item& a, const Item& b) {
  return std::tie(a.target, a.parent, a.time_ms, a.name, a.level) <
         std::tie(b.target, b.parent, b.time_ms, b.name, b.level);
}

/// The resolution core (Sec. IV-B): sorts `items`, derives each event's
/// [start, end) period per its spec's PeriodKind, and appends every kept
/// period to `out`. Stateful pairing state is local to one contiguous
/// (target, parent) group of the sorted order. Unpaired starts are closed
/// after the main loop in (parent, target) order.
void ResolveSorted(std::vector<Item>& items,
                   const std::optional<Interval>& bounds, ResolveStats* s,
                   std::vector<ResolvedEventView>* out) {
  std::sort(items.begin(), items.end(), ItemLess);

  // Clamps into optional bounds and drops empties before emitting.
  auto emit_clamped = [&](const Item& item, TimePoint start, TimePoint end,
                          Severity level) {
    Interval period(start, end);
    if (bounds.has_value()) period = period.ClampTo(*bounds);
    if (period.empty()) return;
    ++s->resolved;
    out->push_back(ResolvedEventView{.name_id = item.parent_name_id,
                                     .target_id = item.target_id,
                                     .period = period,
                                     .level = level,
                                     .category = item.spec->category});
  };

  struct Closure {
    const Item* item;  // the unpaired start detail
    int64_t start_ms;
    Severity level;
  };
  std::vector<Closure> closures;

  // Per-group stateful state: last seen detail name (consecutive-run
  // dedup, Sec. IV-B2 / Example 2) and the single currently-open start.
  std::string_view group_target;
  std::string_view group_parent;
  bool in_group = false;
  std::string_view last_detail;
  bool has_last_detail = false;
  Closure open{};
  bool has_open = false;

  auto flush_group = [&] {
    if (has_open) closures.push_back(open);
    has_open = false;
    has_last_detail = false;
  };

  for (const Item& item : items) {
    if (!in_group || item.target != group_target ||
        item.parent != group_parent) {
      flush_group();
      group_target = item.target;
      group_parent = item.parent;
      in_group = true;
    }
    const EventSpec& spec = *item.spec;
    const TimePoint time = TimePoint::FromMillis(item.time_ms);

    switch (spec.period_kind) {
      case PeriodKind::kLoggedDuration: {
        const Duration d = item.logged_ms >= 0 ? Duration::Millis(item.logged_ms)
                                               : spec.default_duration;
        emit_clamped(item, time - d, time, item.level);
        break;
      }
      case PeriodKind::kWindowed: {
        emit_clamped(item, time - spec.window, time, item.level);
        break;
      }
      case PeriodKind::kStateful: {
        // Among consecutive occurrences of the same detail, keep only the
        // earliest.
        if (has_last_detail && last_detail == item.name) {
          ++s->duplicate_details_dropped;
          break;
        }
        last_detail = item.name;
        has_last_detail = true;

        if (item.is_start) {
          open = Closure{&item, item.time_ms, item.level};
          has_open = true;
        } else {  // end detail
          if (!has_open) {
            ++s->dangling_end_dropped;
            break;
          }
          emit_clamped(*open.item, TimePoint::FromMillis(open.start_ms), time,
                       open.level);
          has_open = false;
        }
        break;
      }
    }
  }
  flush_group();

  // Close unpaired starts at start + expire (clamped to bounds.end).
  std::sort(closures.begin(), closures.end(),
            [](const Closure& a, const Closure& b) {
              return std::tie(a.item->parent, a.item->target) <
                     std::tie(b.item->parent, b.item->target);
            });
  for (const Closure& c : closures) {
    const TimePoint start = TimePoint::FromMillis(c.start_ms);
    TimePoint end = start + c.item->spec->expire_interval;
    if (bounds.has_value() && bounds->end < end) end = bounds->end;
    ++s->unpaired_start_closed;
    emit_clamped(*c.item, start, end, c.level);
  }
}

/// Fleet-wide rollup of the per-call ResolveStats, so statusz shows the
/// same data-quality counters the pipeline aggregates per VM.
void RollUpStats(const ResolveStats& s) {
  static obs::Counter* resolved =
      obs::MetricsRegistry::Global().GetCounter("resolve.events_resolved");
  static obs::Counter* unknown =
      obs::MetricsRegistry::Global().GetCounter("resolve.unknown_dropped");
  static obs::Counter* duplicates = obs::MetricsRegistry::Global().GetCounter(
      "resolve.duplicate_details_dropped");
  static obs::Counter* dangling = obs::MetricsRegistry::Global().GetCounter(
      "resolve.dangling_end_dropped");
  static obs::Counter* unpaired = obs::MetricsRegistry::Global().GetCounter(
      "resolve.unpaired_start_closed");
  resolved->Add(s.resolved);
  unknown->Add(s.unknown_dropped);
  duplicates->Add(s.duplicate_details_dropped);
  dangling->Add(s.dangling_end_dropped);
  unpaired->Add(s.unpaired_start_closed);
}

}  // namespace

PeriodResolver::PeriodResolver(const EventCatalog* catalog)
    : catalog_(catalog) {}

StatusOr<std::vector<ResolvedEventView>> PeriodResolver::ResolveRefs(
    const std::vector<EventRef>& events, std::optional<Interval> bounds,
    ResolveStats* stats) const {
  TRACE_SPAN("resolve.resolve_refs");
  ResolveStats local_stats;
  ResolveStats* s = stats != nullptr ? stats : &local_stats;
  *s = ResolveStats{};

  std::vector<Item> items;
  items.reserve(events.size());
  for (const EventRef& ev : events) {
    // EventRows and the catalog both intern into GlobalInterner, so the
    // raw name id keys the catalog directly.
    const std::optional<EventCatalog::SpecHandle> handle =
        catalog_->FindHandleById(ev.name_id());
    if (!handle.has_value()) {
      ++s->unknown_dropped;
      continue;
    }
    Item item;
    item.target = ev.target();
    item.parent = handle->spec->name;
    item.name = ev.name();
    item.time_ms = ev.time_ms();
    item.level = ev.level();
    item.spec = handle->spec;
    item.parent_name_id = handle->name_id;
    item.target_id = ev.target_id();
    item.logged_ms = ev.LoggedDurationMsOrNeg();
    item.is_start = handle->spec->period_kind == PeriodKind::kStateful &&
                    ev.name_id() == handle->start_detail_id;
    items.push_back(item);
  }

  std::vector<ResolvedEventView> out;
  out.reserve(items.size());
  ResolveSorted(items, bounds, s, &out);
  RollUpStats(*s);
  return out;
}

}  // namespace cdibot
