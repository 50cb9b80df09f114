#ifndef CDIBOT_OPS_PRIORITIZER_H_
#define CDIBOT_OPS_PRIORITIZER_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "event/event_view.h"
#include "ops/actions.h"
#include "weights/event_weights.h"

namespace cdibot {

/// A VM awaiting an operation, with the events currently active on it.
struct PendingVm {
  std::string vm_id;
  std::vector<ResolvedEventView> active_events{};
};

/// A prioritized operation decision for one VM.
struct PrioritizedOperation {
  std::string vm_id;
  /// The ongoing damage rate: the maximum active event weight (the CDI
  /// accrues at this rate per unit time while the issue persists), so
  /// operating on this VM first yields the largest CDI improvement.
  double damage_rate = 0.0;
  /// The most severe active event driving the decision.
  std::string driving_event;
  /// The action selected for the damage level.
  ActionType action = ActionType::kRepairRequest;
};

/// Operation-platform optimization of Sec. VIII-C: uses CDI event weights
/// to (a) order pending VM operations so the migration that "more
/// positively influences overall CDI" runs first, and (b) choose the action
/// aggressiveness by severity — low-severity issues file a ticket,
/// mid-severity issues schedule a live migration, and fatal damage
/// cold-migrates immediately.
class OperationPrioritizer {
 public:
  struct Options {
    /// Damage rate at or above which a live migration is scheduled instead
    /// of a ticket.
    double migrate_threshold = 0.5;
    /// Damage rate at or above which the VM is cold-migrated (the issue is
    /// already service-affecting at full weight).
    double cold_migrate_threshold = 1.0;
  };

  /// `weights` must outlive the prioritizer. Thresholds must satisfy
  /// 0 < migrate_threshold <= cold_migrate_threshold.
  static StatusOr<OperationPrioritizer> Create(
      const EventWeightModel* weights, Options options);
  static StatusOr<OperationPrioritizer> Create(
      const EventWeightModel* weights) {
    return Create(weights, Options());
  }

  /// Scores one VM: damage rate, driving event, and the selected action.
  /// VMs with no active events score 0 and get kNullAction.
  StatusOr<PrioritizedOperation> Score(const PendingVm& vm) const;

  /// Scores all VMs and returns them ordered by descending damage rate
  /// (ties by vm_id for determinism) — the execution order for the
  /// operation platform.
  StatusOr<std::vector<PrioritizedOperation>> Rank(
      const std::vector<PendingVm>& vms) const;

 private:
  OperationPrioritizer(const EventWeightModel* weights, Options options)
      : weights_(weights), options_(options) {}

  const EventWeightModel* weights_;
  Options options_;
};

}  // namespace cdibot

#endif  // CDIBOT_OPS_PRIORITIZER_H_
