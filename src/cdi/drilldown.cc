#include "cdi/drilldown.h"

#include <utility>

namespace cdibot {

Status ValidateDrilldownDimensions(
    const std::vector<std::string>& dimensions) {
  if (dimensions.empty()) {
    return Status::InvalidArgument("drill-down needs at least one dimension");
  }
  for (size_t i = 0; i < dimensions.size(); ++i) {
    if (dimensions[i].empty()) {
      return Status::InvalidArgument("drill-down dimension name is empty");
    }
    for (size_t j = i + 1; j < dimensions.size(); ++j) {
      if (dimensions[i] == dimensions[j]) {
        return Status::InvalidArgument("duplicate drill-down dimension: " +
                                       dimensions[i]);
      }
    }
  }
  return Status::OK();
}

void DrilldownGroupFold::Add(const VmCdiRecord& rec) {
  cdi_.AddVm(rec.cdi);
  ++count_;
  quality_.Merge(rec.quality);
}

DrilldownGroup DrilldownGroupFold::Finish(
    std::vector<std::string> values) const {
  std::string key;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) key += '/';
    key += values[i];
  }
  return DrilldownGroup{.values = std::move(values),
                        .key = std::move(key),
                        .cdi = cdi_.Finalize(),
                        .vm_count = count_,
                        .quality = quality_};
}

StatusOr<DrilldownResult> RunDrilldown(const std::vector<VmCdiRecord>& records,
                                       const DrilldownQuery& query) {
  CDIBOT_RETURN_IF_ERROR(ValidateDrilldownDimensions(query.dimensions));

  // std::map over the composite value vector: groups come out sorted slot
  // by slot.
  std::map<std::vector<std::string>, DrilldownGroupFold> groups;
  DrilldownResult result;
  std::vector<std::string> values(query.dimensions.size());
  for (const VmCdiRecord& rec : records) {
    ++result.records_scanned;
    bool matches = true;
    for (const auto& [dim, want] : query.filter) {
      auto it = rec.dims.find(dim);
      if (it == rec.dims.end() || it->second != want) {
        matches = false;
        break;
      }
    }
    if (!matches) {
      ++result.records_filtered;
      continue;
    }
    for (size_t i = 0; i < query.dimensions.size(); ++i) {
      auto it = rec.dims.find(query.dimensions[i]);
      values[i] = it == rec.dims.end() ? "" : it->second;
    }
    groups[values].Add(rec);
    result.quality.Merge(rec.quality);
  }
  result.groups.reserve(groups.size());
  for (const auto& [values, fold] : groups) {
    result.groups.push_back(fold.Finish(values));
  }
  return result;
}

namespace {

// Folds one row's damage into an exact per-name sum: with a 1 ms weight
// each accumulator term is the damage itself, so RoundedSum() is the exact
// total rounded once, whatever the row order.
void AddDamage(const EventCdiRecord& rec, CdiAccumulator* damage) {
  damage->Add(Duration::Millis(1), rec.damage_minutes);
}

}  // namespace

StatusOr<std::map<std::string, double>> EventLevelCdi(
    const std::vector<EventCdiRecord>& records, Duration fleet_service_time) {
  if (fleet_service_time.millis() <= 0) {
    return Status::InvalidArgument("fleet service time must be positive");
  }
  std::map<std::string, CdiAccumulator> damage;
  for (const EventCdiRecord& rec : records) {
    AddDamage(rec, &damage[rec.event_name]);
  }
  const double service_minutes = fleet_service_time.minutes();
  std::map<std::string, double> out;
  for (const auto& [name, sum] : damage) {
    out.emplace_hint(out.end(), name, sum.RoundedSum() / service_minutes);
  }
  return out;
}

StatusOr<double> EventLevelCdiFor(const std::vector<EventCdiRecord>& records,
                                  const std::string& event_name,
                                  Duration fleet_service_time) {
  if (fleet_service_time.millis() <= 0) {
    return Status::InvalidArgument("fleet service time must be positive");
  }
  CdiAccumulator damage;
  for (const EventCdiRecord& rec : records) {
    if (rec.event_name == event_name) AddDamage(rec, &damage);
  }
  return damage.RoundedSum() / fleet_service_time.minutes();
}

}  // namespace cdibot
