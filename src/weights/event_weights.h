#ifndef CDIBOT_WEIGHTS_EVENT_WEIGHTS_H_
#define CDIBOT_WEIGHTS_EVENT_WEIGHTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/statusor.h"
#include "event/event.h"
#include "event/event_view.h"

namespace cdibot {

/// Eq. 1: the expert-perspective weight of the i-th severity level among m
/// increasing levels, l_i = i / m. `level` maps to its ordinal (info=1 ..
/// fatal=4). Requires 1 <= ordinal <= num_levels.
StatusOr<double> ExpertLevelWeight(Severity level,
                                   int num_levels = kNumSeverityLevels);

/// TicketRankModel implements Eq. 2: events are ranked by the number of
/// related customer tickets gathered over the previous year, distributed
/// proportionally into n levels by ranking position (ascending ticket
/// counts), and the j-th level receives weight p_j = j / n.
class TicketRankModel {
 public:
  /// Builds from per-event ticket counts. Events absent from `counts` later
  /// query as level 1 (fewest complaints). Requires num_levels >= 1 and at
  /// least one event.
  static StatusOr<TicketRankModel> FromCounts(
      const std::map<std::string, int64_t>& counts, int num_levels);

  int num_levels() const { return num_levels_; }

  /// The 1-based customer level j of the event with GlobalInterner id
  /// `name_id`; 1 for unknown events (and for kInvalidId).
  int LevelForId(uint32_t name_id) const;

  /// Name-keyed adapter of LevelForId. Looks the name up without interning
  /// it, so querying an unknown name does not grow the interner.
  int LevelFor(const std::string& event_name) const {
    return LevelForId(GlobalInterner().Lookup(event_name));
  }

  /// Eq. 2: p_j = j / n for the event's level.
  double WeightForId(uint32_t name_id) const;
  double WeightFor(const std::string& event_name) const {
    return WeightForId(GlobalInterner().Lookup(event_name));
  }

 private:
  TicketRankModel(int num_levels, std::unordered_map<uint32_t, int> levels)
      : num_levels_(num_levels), levels_(std::move(levels)) {}

  int num_levels_;
  /// Customer level per counted event, keyed by GlobalInterner id
  /// (FromCounts interns every counted name).
  std::unordered_map<uint32_t, int> levels_;
};

/// Options for the composite model of Eq. 3.
struct EventWeightOptions {
  /// m in Eq. 1.
  int expert_levels = kNumSeverityLevels;
  /// n in Eq. 2.
  int ticket_levels = 4;
  /// AHP-derived proportions alpha_1 (expert) and alpha_2 (customer).
  double alpha_expert = 0.5;
  double alpha_ticket = 0.5;
};

/// EventWeightModel produces the final per-event weight w of Eq. 3:
///
///   w = (alpha_1 * l_i + alpha_2 * p_j) / (alpha_1 + alpha_2)
///
/// with one paper-mandated exception: unavailability events always weigh 1.0
/// because the VM is completely unable to provide compute (Sec. IV-A: the
/// Unavailability Indicator is an unweighted duration ratio).
class EventWeightModel {
 public:
  /// Builds the model from the customer ticket model and options. Requires
  /// positive alphas.
  static StatusOr<EventWeightModel> Build(TicketRankModel ticket_model,
                                          EventWeightOptions options);

  /// The composite weight for an occurrence of the event with
  /// GlobalInterner id `name_id` (ResolvedEventView::name_id always is
  /// one). The one implementation of Eq. 3 and of the overrides.
  StatusOr<double> WeightForId(uint32_t name_id, Severity level,
                               StabilityCategory category) const;

  /// Name-keyed adapter of WeightForId. Looks the name up without
  /// interning it, so an unknown name weighs as an uncounted,
  /// unoverridden event and does not grow the interner.
  StatusOr<double> WeightFor(const std::string& event_name, Severity level,
                             StabilityCategory category) const {
    return WeightForId(GlobalInterner().Lookup(event_name), level, category);
  }

  /// Convenience overload for a resolved event.
  StatusOr<double> WeightFor(const ResolvedEventView& event) const {
    return WeightForId(event.name_id, event.level, event.category);
  }

  /// Overrides the weight of a specific event name (the MySQL-backed
  /// configuration adjustments of Fig. 4 / Sec. V). Requires weight in
  /// [0, 1].
  Status SetOverride(const std::string& event_name, double weight);

  const EventWeightOptions& options() const { return options_; }

 private:
  EventWeightModel(TicketRankModel ticket_model, EventWeightOptions options)
      : ticket_model_(std::move(ticket_model)), options_(options) {}

  TicketRankModel ticket_model_;
  EventWeightOptions options_;
  /// Weight overrides keyed by GlobalInterner id.
  std::unordered_map<uint32_t, double> overrides_;
};

}  // namespace cdibot

#endif  // CDIBOT_WEIGHTS_EVENT_WEIGHTS_H_
