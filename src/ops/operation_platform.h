#ifndef CDIBOT_OPS_OPERATION_PLATFORM_H_
#define CDIBOT_OPS_OPERATION_PLATFORM_H_

#include <set>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "ops/actions.h"
#include "rules/rule_engine.h"

namespace cdibot {

/// A concrete action to execute on a target.
struct ActionRequest {
  ActionType type = ActionType::kNullAction;
  std::string target;         ///< VM id for VM operations, NC id otherwise
  std::string source_rule{};  ///< rule that triggered it (for audit)
  int priority = 0;           ///< higher executes first
  TimePoint submitted_at;
};

/// Terminal state of a submitted action.
enum class ActionOutcome : int {
  kExecuted = 0,
  /// Dropped by conflict resolution (a conflicting action on the same
  /// target won).
  kDiscardedConflict = 1,
  /// Dropped because the target NC is locked or decommissioned and the
  /// action would place load on it.
  kDiscardedLocked = 2,
};

/// Audit record for one submitted action.
struct ActionRecord {
  ActionRequest request;
  ActionOutcome outcome = ActionOutcome::kExecuted;
};

/// Operation Platform (Sec. II-E): the single chokepoint through which all
/// operation actions flow. It orders submitted actions by priority,
/// discards conflicting ones, and maintains the NC lock / decommission
/// state machine that Example 1 and Case 5 rely on.
///
/// Conflict policy within one Submit batch, per target:
///  * at most one VM-disruptive action per VM (highest priority wins;
///    registration order breaks ties);
///  * an NC-disruptive action on a host discards VM-disruptive actions
///    whose VM resides on that host (callers pass the vm->nc mapping);
///  * duplicate (type, target) pairs collapse to one.
class OperationPlatform {
 public:
  OperationPlatform() = default;

  /// Converts a rule match into requests. Unknown action names fail with
  /// NotFound. `target_for_action` decides per action whether the VM or
  /// its host NC is the target: VM operations target the match's target;
  /// NC-scoped actions target `nc_id`.
  StatusOr<std::vector<ActionRequest>> RequestsFromMatch(
      const RuleMatch& match, const std::string& nc_id) const;

  /// Submits a batch: resolves conflicts, executes survivors in priority
  /// order, and returns the audit records (executed first, then discarded).
  /// `vm_to_nc` maps VM targets to their hosts for cross-target conflicts.
  std::vector<ActionRecord> Submit(
      std::vector<ActionRequest> requests,
      const std::map<std::string, std::string>& vm_to_nc);

  /// NC lock state machine.
  bool IsLocked(const std::string& nc_id) const;
  bool IsDecommissioned(const std::string& nc_id) const;
  /// Manually unlock (repair finished, Example 1's end state).
  void Unlock(const std::string& nc_id);

  /// Every executed action, in execution order.
  const std::vector<ActionRecord>& history() const { return history_; }

  /// Count of executed actions of a given type.
  size_t ExecutedCount(ActionType type) const;

 private:
  void Execute(const ActionRequest& request);

  std::set<std::string> locked_ncs_;
  std::set<std::string> decommissioned_ncs_;
  std::vector<ActionRecord> history_;
};

}  // namespace cdibot

#endif  // CDIBOT_OPS_OPERATION_PLATFORM_H_
