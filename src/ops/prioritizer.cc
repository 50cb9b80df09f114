#include "ops/prioritizer.h"

#include <algorithm>

namespace cdibot {

StatusOr<OperationPrioritizer> OperationPrioritizer::Create(
    const EventWeightModel* weights, Options options) {
  if (weights == nullptr) {
    return Status::InvalidArgument("weights must not be null");
  }
  if (!(options.migrate_threshold > 0.0) ||
      options.migrate_threshold > options.cold_migrate_threshold) {
    return Status::InvalidArgument(
        "need 0 < migrate_threshold <= cold_migrate_threshold");
  }
  return OperationPrioritizer(weights, options);
}

StatusOr<PrioritizedOperation> OperationPrioritizer::Score(
    const PendingVm& vm) const {
  PrioritizedOperation op;
  op.vm_id = vm.vm_id;
  for (const ResolvedEventView& ev : vm.active_events) {
    CDIBOT_ASSIGN_OR_RETURN(const double w, weights_->WeightFor(ev));
    if (w > op.damage_rate) {
      op.damage_rate = w;
      op.driving_event = std::string(GlobalInterner().NameOf(ev.name_id));
    }
  }
  if (op.damage_rate <= 0.0) {
    op.action = ActionType::kNullAction;
  } else if (op.damage_rate >= options_.cold_migrate_threshold) {
    op.action = ActionType::kColdMigration;
  } else if (op.damage_rate >= options_.migrate_threshold) {
    op.action = ActionType::kLiveMigration;
  } else {
    op.action = ActionType::kRepairRequest;
  }
  return op;
}

StatusOr<std::vector<PrioritizedOperation>> OperationPrioritizer::Rank(
    const std::vector<PendingVm>& vms) const {
  std::vector<PrioritizedOperation> out;
  out.reserve(vms.size());
  for (const PendingVm& vm : vms) {
    CDIBOT_ASSIGN_OR_RETURN(PrioritizedOperation op, Score(vm));
    out.push_back(std::move(op));
  }
  std::sort(out.begin(), out.end(),
            [](const PrioritizedOperation& a, const PrioritizedOperation& b) {
              if (a.damage_rate != b.damage_rate) {
                return a.damage_rate > b.damage_rate;
              }
              return a.vm_id < b.vm_id;
            });
  return out;
}

}  // namespace cdibot
