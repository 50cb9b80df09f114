#include "weights/event_weights.h"

#include <algorithm>

#include "common/strings.h"

namespace cdibot {

StatusOr<double> ExpertLevelWeight(Severity level, int num_levels) {
  const int i = static_cast<int>(level);
  if (num_levels < 1) {
    return Status::InvalidArgument("num_levels must be >= 1");
  }
  if (i < 1 || i > num_levels) {
    return Status::OutOfRange(
        StrFormat("severity ordinal %d outside [1, %d]", i, num_levels));
  }
  return static_cast<double>(i) / static_cast<double>(num_levels);
}

StatusOr<TicketRankModel> TicketRankModel::FromCounts(
    const std::map<std::string, int64_t>& counts, int num_levels) {
  if (num_levels < 1) {
    return Status::InvalidArgument("num_levels must be >= 1");
  }
  if (counts.empty()) {
    return Status::InvalidArgument("ticket counts must be non-empty");
  }
  for (const auto& [name, count] : counts) {
    if (count < 0) {
      return Status::InvalidArgument("negative ticket count for " + name);
    }
  }

  // Rank ascending by ticket count; ties break by name for determinism
  // (std::map iteration is already name-ordered).
  std::vector<std::pair<std::string, int64_t>> ranked(counts.begin(),
                                                      counts.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });

  // Distribute ranking positions proportionally into n levels: the event at
  // ascending rank r (1-based) of N falls into level ceil(r * n / N).
  // Example 3: an event with more tickets than 43% of events has rank
  // percentile 0.43+ and lands in level 2 of 4.
  const auto n = static_cast<int64_t>(num_levels);
  const auto total = static_cast<int64_t>(ranked.size());
  std::unordered_map<uint32_t, int> levels;
  levels.reserve(ranked.size());
  for (int64_t r = 1; r <= total; ++r) {
    const int level = static_cast<int>((r * n + total - 1) / total);
    const std::string& name = ranked[static_cast<size_t>(r - 1)].first;
    levels[GlobalInterner().Intern(name)] = level;
  }
  return TicketRankModel(num_levels, std::move(levels));
}

int TicketRankModel::LevelForId(uint32_t name_id) const {
  auto it = levels_.find(name_id);
  return it == levels_.end() ? 1 : it->second;
}

double TicketRankModel::WeightForId(uint32_t name_id) const {
  return static_cast<double>(LevelForId(name_id)) /
         static_cast<double>(num_levels_);
}

StatusOr<EventWeightModel> EventWeightModel::Build(
    TicketRankModel ticket_model, EventWeightOptions options) {
  if (options.alpha_expert <= 0.0 || options.alpha_ticket <= 0.0) {
    return Status::InvalidArgument("AHP proportions must be positive");
  }
  if (options.expert_levels < 1 || options.ticket_levels < 1) {
    return Status::InvalidArgument("level counts must be >= 1");
  }
  if (ticket_model.num_levels() != options.ticket_levels) {
    return Status::InvalidArgument(
        "ticket model level count disagrees with options");
  }
  return EventWeightModel(std::move(ticket_model), options);
}

StatusOr<double> EventWeightModel::WeightForId(
    uint32_t name_id, Severity level, StabilityCategory category) const {
  // Unavailability is total loss of compute: unweighted duration ratio.
  if (category == StabilityCategory::kUnavailability) return 1.0;

  auto ov = overrides_.find(name_id);
  if (ov != overrides_.end()) return ov->second;

  CDIBOT_ASSIGN_OR_RETURN(const double l_i,
                          ExpertLevelWeight(level, options_.expert_levels));
  const double p_j = ticket_model_.WeightForId(name_id);
  return (options_.alpha_expert * l_i + options_.alpha_ticket * p_j) /
         (options_.alpha_expert + options_.alpha_ticket);
}

Status EventWeightModel::SetOverride(const std::string& event_name,
                                     double weight) {
  if (weight < 0.0 || weight > 1.0) {
    return Status::InvalidArgument("weight override must be in [0, 1]");
  }
  overrides_[GlobalInterner().Intern(event_name)] = weight;
  return Status::OK();
}

}  // namespace cdibot
