#ifndef CDIBOT_RULES_RULE_ENGINE_H_
#define CDIBOT_RULES_RULE_ENGINE_H_

#include <set>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"
#include "rules/expression.h"

namespace cdibot {

/// An action reference carried by an operation rule. Action semantics live
/// in the ops library; the rule engine treats them as named requests with a
/// priority (higher runs first).
struct ActionSpec {
  std::string action;
  int priority = 0;
};

/// An operation rule (Sec. II-D): a readable boolean expression over events
/// plus the actions to execute when it matches. Example 1's
/// nic_error_cause_slow_io pairs "slow_io && nic_flapping" with a live
/// migration, a repair ticket, and an NC lock.
struct OperationRule {
  std::string name;
  Expression expr;
  std::vector<ActionSpec> actions;
};

/// A matched rule instance for one target at one instant.
struct RuleMatch {
  std::string rule_name;
  std::string target;
  TimePoint time;
  std::vector<ActionSpec> actions{};
};

/// RuleEngine holds the rule set and matches it against the set of events
/// active on a target. Events are active from extraction until their
/// expire_interval elapses (Table II).
class RuleEngine {
 public:
  RuleEngine() = default;

  /// Registers a rule from its expression text. AlreadyExists on duplicate
  /// names; InvalidArgument on expression syntax errors.
  Status Register(const std::string& name, const std::string& expr_text,
                  std::vector<ActionSpec> actions);

  size_t num_rules() const { return rules_.size(); }
  const std::vector<OperationRule>& rules() const { return rules_; }

  /// The names of events active at `at`: extracted at or before `at` and
  /// not yet expired.
  static std::set<std::string> ActiveEventNames(
      const std::vector<RawEvent>& events, TimePoint at);

  /// Evaluates every rule against `active` for `target`; returns matches in
  /// registration order.
  std::vector<RuleMatch> Match(const std::set<std::string>& active,
                               const std::string& target,
                               TimePoint at) const;

  /// Convenience: computes the active set from raw events, then matches.
  std::vector<RuleMatch> MatchEvents(const std::vector<RawEvent>& events,
                                     const std::string& target,
                                     TimePoint at) const;

  /// The built-in rule set from the paper: the two NIC rules of Example 1
  /// and the nc_down_prediction rule of Case 8.
  static StatusOr<RuleEngine> BuiltIn();

 private:
  std::vector<OperationRule> rules_;
  std::set<std::string> names_;
};

}  // namespace cdibot

#endif  // CDIBOT_RULES_RULE_ENGINE_H_
