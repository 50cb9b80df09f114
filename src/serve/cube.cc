#include "serve/cube.h"

#include <bit>
#include <utility>

namespace cdibot::serve {
namespace {

/// Bitwise double equality: the cube's reuse test must be exact, not
/// tolerant — reusing a fold across a == comparison that waves through
/// -0.0 vs +0.0 would break the bit-identity contract.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameRecordBits(const VmCdiRecord& a, const VmCdiRecord& b) {
  return a.vm_id == b.vm_id &&
         SameBits(a.cdi.unavailability, b.cdi.unavailability) &&
         SameBits(a.cdi.performance, b.cdi.performance) &&
         SameBits(a.cdi.control_plane, b.cdi.control_plane) &&
         a.cdi.service_time == b.cdi.service_time &&
         a.quality.events_quarantined == b.quality.events_quarantined &&
         a.quality.events_missing == b.quality.events_missing &&
         a.quality.events_shed == b.quality.events_shed &&
         a.quality.degraded == b.quality.degraded;
}

bool MatchesFilter(const VmCdiRecord& rec,
                   const std::map<std::string, std::string>& filter) {
  for (const auto& [dim, want] : filter) {
    auto it = rec.dims.find(dim);
    if (it == rec.dims.end() || it->second != want) return false;
  }
  return true;
}

using Membership = std::map<std::vector<std::string>, std::vector<uint32_t>>;

/// Groups `rows` by `query`'s dimensions after its filter: each group's
/// member indices, ascending (= fold order). Rows missing a dimension
/// group under "" for it. `*filtered` receives the filter's reject count.
Membership GroupMembers(const DrilldownQuery& query,
                        const std::vector<VmCdiRecord>& rows,
                        size_t* filtered) {
  Membership membership;
  *filtered = 0;
  std::vector<std::string> values(query.dimensions.size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const VmCdiRecord& rec = rows[i];
    if (!MatchesFilter(rec, query.filter)) {
      ++*filtered;
      continue;
    }
    for (size_t d = 0; d < query.dimensions.size(); ++d) {
      auto it = rec.dims.find(query.dimensions[d]);
      values[d] = it == rec.dims.end() ? "" : it->second;
    }
    membership[values].push_back(i);
  }
  return membership;
}

}  // namespace

DrilldownCube::DrilldownCube(const std::string& metric_prefix) {
  auto& registry = obs::MetricsRegistry::Global();
  refresh_counter_ = registry.GetCounter(metric_prefix + ".cube.refreshes");
  recompute_counter_ =
      registry.GetCounter(metric_prefix + ".cube.groups_recomputed");
  reuse_counter_ = registry.GetCounter(metric_prefix + ".cube.groups_reused");
  view_gauge_ = registry.GetGauge(metric_prefix + ".cube.views");
}

std::string DrilldownCube::ViewKey(const DrilldownQuery& query) {
  std::string key = "g:";
  for (const std::string& dim : query.dimensions) {
    key += std::to_string(dim.size()) + '.' + dim;
  }
  key += "|f:";
  for (const auto& [dim, value] : query.filter) {
    key += std::to_string(dim.size()) + '.' + dim;
    key += std::to_string(value.size()) + '.' + value;
  }
  return key;
}

void DrilldownCube::Refresh(std::shared_ptr<const DailyCdiResult> detail,
                            TimePoint watermark) {
  // Re-validate every materialized view against the incoming rows while
  // the outgoing ones are still held: a group whose member rows are
  // bit-identical across the swap keeps its fold; everything else is
  // marked dirty and re-folded lazily by the next Answer. The outgoing
  // snapshot is released when `previous` goes out of scope.
  const std::shared_ptr<const DailyCdiResult> previous = std::move(detail_);
  detail_ = std::move(detail);
  const std::vector<VmCdiRecord>& rows = detail_->per_vm;
  for (auto& [key, view] : views_) {
    (void)key;
    Membership membership =
        GroupMembers(view.query, rows, &view.records_filtered);
    std::map<std::vector<std::string>, GroupState> next;
    for (auto& [group_values, members] : membership) {
      GroupState state;
      auto old_it = view.groups.find(group_values);
      bool unchanged = old_it != view.groups.end() &&
                       !old_it->second.dirty &&
                       old_it->second.members.size() == members.size();
      if (unchanged) {
        for (size_t k = 0; k < members.size(); ++k) {
          if (!SameRecordBits(previous->per_vm[old_it->second.members[k]],
                              rows[members[k]])) {
            unchanged = false;
            break;
          }
        }
      }
      if (unchanged) {
        state.folded = old_it->second.folded;
        state.dirty = false;
        ++stats_.groups_reused;
        reuse_counter_->Increment();
      }
      state.members = std::move(members);
      next.emplace(group_values, std::move(state));
    }
    view.groups = std::move(next);
  }

  as_of_ = watermark;
  ++stats_.refreshes;
  refresh_counter_->Increment();
}

void DrilldownCube::FoldGroup(const std::vector<std::string>& values,
                              GroupState& state) {
  DrilldownGroupFold fold;
  for (uint32_t idx : state.members) fold.Add(detail_->per_vm[idx]);
  state.folded = fold.Finish(values);
  state.dirty = false;
  ++stats_.groups_recomputed;
  recompute_counter_->Increment();
}

StatusOr<DrilldownResult> DrilldownCube::Answer(const DrilldownQuery& query) {
  if (!loaded()) {
    return Status::FailedPrecondition("cube has no snapshot loaded");
  }
  CDIBOT_RETURN_IF_ERROR(ValidateDrilldownDimensions(query.dimensions));

  const std::string key = ViewKey(query);
  auto it = views_.find(key);
  if (it == views_.end()) {
    // First query of this (group-by, filter) shape: materialize the view.
    View view;
    view.query = query;
    for (auto& [values, members] :
         GroupMembers(query, detail_->per_vm, &view.records_filtered)) {
      view.groups[values].members = std::move(members);
    }
    it = views_.emplace(key, std::move(view)).first;
    stats_.views = views_.size();
    view_gauge_->Set(static_cast<double>(views_.size()));
  }

  View& view = it->second;
  DrilldownResult result;
  result.records_scanned = detail_->per_vm.size();
  result.records_filtered = view.records_filtered;
  result.groups.reserve(view.groups.size());
  for (auto& [values, state] : view.groups) {
    if (state.dirty) FoldGroup(values, state);
    result.groups.push_back(state.folded);
    result.quality.Merge(state.folded.quality);
  }
  ++stats_.answers;
  return result;
}

}  // namespace cdibot::serve
