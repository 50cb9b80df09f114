#include "cdi/pipeline.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "cdi/aggregate.h"
#include "cdi/indicator.h"
#include "cdi/vm_cdi.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdibot {

dataflow::Table DailyCdiResult::ToVmTable() const {
  using dataflow::Field;
  using dataflow::Value;
  using dataflow::ValueType;
  dataflow::Table table(dataflow::Schema(
      {Field{"vm_id", ValueType::kString}, Field{"region", ValueType::kString},
       Field{"az", ValueType::kString}, Field{"cluster", ValueType::kString},
       Field{"cdi_u", ValueType::kDouble}, Field{"cdi_p", ValueType::kDouble},
       Field{"cdi_c", ValueType::kDouble},
       Field{"service_minutes", ValueType::kDouble}}));
  auto dim = [](const VmCdiRecord& rec, const char* key) {
    auto it = rec.dims.find(key);
    return it == rec.dims.end() ? std::string() : it->second;
  };
  for (const VmCdiRecord& rec : per_vm) {
    table.AppendUnchecked(
        {Value(rec.vm_id), Value(dim(rec, "region")), Value(dim(rec, "az")),
         Value(dim(rec, "cluster")), Value(rec.cdi.unavailability),
         Value(rec.cdi.performance), Value(rec.cdi.control_plane),
         Value(rec.cdi.service_time.minutes())});
  }
  return table;
}

dataflow::Table DailyCdiResult::ToEventTable() const {
  using dataflow::Field;
  using dataflow::Value;
  using dataflow::ValueType;
  dataflow::Table table(dataflow::Schema(
      {Field{"vm_id", ValueType::kString}, Field{"event", ValueType::kString},
       Field{"category", ValueType::kString},
       Field{"damage_minutes", ValueType::kDouble},
       Field{"service_minutes", ValueType::kDouble}}));
  for (const EventCdiRecord& rec : per_event) {
    table.AppendUnchecked(
        {Value(rec.vm_id), Value(rec.event_name),
         Value(std::string(StabilityCategoryToString(rec.category))),
         Value(rec.damage_minutes), Value(rec.service_time.minutes())});
  }
  return table;
}

void DailyCdiResult::SortRows() {
  std::sort(per_vm.begin(), per_vm.end(),
            [](const VmCdiRecord& a, const VmCdiRecord& b) {
              return a.vm_id < b.vm_id;
            });
  std::sort(per_event.begin(), per_event.end(),
            [](const EventCdiRecord& a, const EventCdiRecord& b) {
              return std::tie(a.vm_id, a.event_name) <
                     std::tie(b.vm_id, b.event_name);
            });
}

void DailyCdiResultBuilder::Reserve(size_t vms, size_t events) {
  result_.per_vm.reserve(vms);
  result_.per_event.reserve(events);
}

void DailyCdiResultBuilder::AddVm(VmDailyOutput out,
                                  const DataQuality& quality) {
  ++result_.vms_evaluated;
  if (quality.degraded) ++result_.vms_degraded;
  result_.quality.Merge(quality);
  result_.resolve_stats.Merge(out.resolve_stats);
  const Duration service = out.record.cdi.service_time;
  baseline_.AddVm(out.baseline, service);
  result_.fleet_service_time += service;
  out.record.quality = quality;
  result_.per_vm.push_back(std::move(out.record));
  result_.per_event.insert(result_.per_event.end(),
                           std::make_move_iterator(out.events.begin()),
                           std::make_move_iterator(out.events.end()));
}

void DailyCdiResultBuilder::AddFailed(const std::string& vm_id,
                                      const std::string& reason,
                                      const ResolveStats& resolve_stats,
                                      const DataQuality& quality) {
  ++result_.vms_failed;
  result_.resolve_stats.Merge(resolve_stats);
  result_.quality.Merge(quality);
  std::string sample = "vm " + vm_id + ": " + reason;
  if (result_.first_vm_error.ok()) {
    result_.first_vm_error = Status::Internal(sample);
  }
  Sample(reason, std::move(sample));
}

void DailyCdiResultBuilder::AddSkipped() { ++result_.vms_skipped; }

void DailyCdiResultBuilder::AddDeferred(size_t n) { result_.vms_deferred += n; }

void DailyCdiResultBuilder::Merge(DailyCdiResult&& partial) {
  result_.per_vm.insert(result_.per_vm.end(),
                        std::make_move_iterator(partial.per_vm.begin()),
                        std::make_move_iterator(partial.per_vm.end()));
  result_.per_event.insert(result_.per_event.end(),
                           std::make_move_iterator(partial.per_event.begin()),
                           std::make_move_iterator(partial.per_event.end()));
  baseline_.Merge(UnavailabilityPartial::FromRaw(
      partial.fleet_baseline.interruption_count,
      partial.fleet_baseline.downtime, partial.fleet_service_time));
  result_.fleet_service_time += partial.fleet_service_time;
  result_.resolve_stats.Merge(partial.resolve_stats);
  result_.quality.Merge(partial.quality);
  result_.vms_evaluated += partial.vms_evaluated;
  result_.vms_skipped += partial.vms_skipped;
  result_.vms_failed += partial.vms_failed;
  result_.vms_deferred += partial.vms_deferred;
  result_.vms_degraded += partial.vms_degraded;
  if (result_.first_vm_error.ok()) {
    result_.first_vm_error = std::move(partial.first_vm_error);
  }
  for (std::string& sample : partial.vm_error_samples) {
    // Samples read "vm <id>: <reason>"; dedup on the reason part.
    const size_t sep = sample.find(": ");
    const std::string reason =
        sep == std::string::npos ? sample : sample.substr(sep + 2);
    Sample(reason, std::move(sample));
  }
}

void DailyCdiResultBuilder::Sample(const std::string& reason,
                                   std::string sample) {
  if (result_.vm_error_samples.size() < DailyCdiResult::kMaxVmErrorSamples &&
      sampled_reasons_.insert(reason).second) {
    result_.vm_error_samples.push_back(std::move(sample));
  }
}

DailyCdiResult DailyCdiResultBuilder::Finish() && {
  FleetCdiPartial fleet;
  for (const VmCdiRecord& rec : result_.per_vm) fleet.AddVm(rec.cdi);
  result_.fleet = fleet.Finalize();
  result_.fleet_baseline = baseline_.Finalize();
  return std::move(result_);
}

StatusOr<VmDailyOutput> ComputeVmDailyCdi(const EventSpan& events,
                                          const VmServiceInfo& vm,
                                          const Interval& day,
                                          const PeriodResolver& resolver,
                                          const EventWeightModel& weights,
                                          chaos::QuarantineSink* quarantine,
                                          VmDailyError* error) {
  TRACE_SPAN("cdi.compute_vm");
  static obs::Histogram* vm_compute_ns =
      obs::MetricsRegistry::Global().GetHistogram("cdi.vm_compute_ns");
  obs::ScopedTimer timer(vm_compute_ns);
  VmDailyOutput out;
  // On failure, the counters of the stages that ran move into the error
  // payload so the caller can still aggregate them.
  auto fail = [&](const Status& st) {
    if (error != nullptr) {
      error->status = st;
      error->resolve_stats = out.resolve_stats;
      error->quality = out.quality;
    }
    return st;
  };
  const Interval service = vm.service_period.ClampTo(day);
  if (service.empty()) {
    out.skipped = true;
    return out;
  }

  // Sanitize at the edge: a structurally broken event is diverted once,
  // here, instead of failing an arbitrary downstream stage (one bad
  // severity ordinal used to abort the whole VM's day inside
  // AttachWeights). The survivors stay non-owning refs — a malformed
  // event is only materialized if it is actually diverted.
  std::vector<EventRef> kept;
  kept.reserve(events.UpperBound());
  events.ForEach([&](const EventRef& ev) {
    const auto reason = chaos::ValidateEventView(ev);
    if (reason.has_value()) {
      ++out.quality.events_quarantined;
      if (quarantine != nullptr) {
        quarantine->Quarantine(ev.Materialize(), *reason);
      }
      return;
    }
    kept.push_back(ev);
  });
  out.quality.Refresh();

  auto resolved_or = resolver.ResolveRefs(kept, service, &out.resolve_stats);
  if (!resolved_or.ok()) return fail(resolved_or.status());
  const std::vector<ResolvedEventView>& resolved = resolved_or.value();

  auto weighted_or = AttachWeights(resolved, weights);
  if (!weighted_or.ok()) return fail(weighted_or.status());
  const std::vector<WeightedEventView>& weighted = weighted_or.value();

  auto cdi_or = ComputeVmCdi(weighted, service);
  if (!cdi_or.ok()) return fail(cdi_or.status());
  out.record = VmCdiRecord{.vm_id = vm.vm_id,
                           .dims = vm.dims,
                           .cdi = cdi_or.value(),
                           .quality = out.quality};

  auto baseline_or = ComputeUnavailabilityStats(resolved, service);
  if (!baseline_or.ok()) return fail(baseline_or.status());
  out.baseline = baseline_or.value();

  // Event-level rows: damage of each event name in isolation. Rows are
  // emitted in lexicographic name order — the iteration order of the
  // std::map the pre-view implementation grouped by — so the redesign
  // cannot reorder output tables.
  const StringInterner& interner = GlobalInterner();
  std::vector<uint32_t> names;
  for (const WeightedEventView& ev : weighted) {
    if (std::find(names.begin(), names.end(), ev.name_id) == names.end()) {
      names.push_back(ev.name_id);
    }
  }
  std::sort(names.begin(), names.end(), [&](uint32_t a, uint32_t b) {
    return interner.NameOf(a) < interner.NameOf(b);
  });
  std::vector<WeightedEventView> group;
  for (const uint32_t name_id : names) {
    group.clear();
    for (const WeightedEventView& ev : weighted) {
      if (ev.name_id == name_id) group.push_back(ev);
    }
    auto damage_or = ComputeDamageMinutes(group, service);
    if (!damage_or.ok()) return fail(damage_or.status());
    if (damage_or.value() <= 0.0) continue;
    out.events.push_back(
        EventCdiRecord{.vm_id = vm.vm_id,
                       .event_name = std::string(interner.NameOf(name_id)),
                       .category = group.front().category,
                       .damage_minutes = damage_or.value(),
                       .service_time = service.length(),
                       .dims = vm.dims});
  }
  return out;
}

StatusOr<DailyCdiResult> DailyCdiJob::Run(
    const std::vector<VmServiceInfo>& vms, const Interval& day) const {
  TRACE_SPAN("cdi.daily_job");
  static obs::Histogram* run_ns =
      obs::MetricsRegistry::Global().GetHistogram("cdi.daily_job_ns");
  obs::ScopedTimer timer(run_ns);
  if (day.empty()) {
    return Status::InvalidArgument("evaluation window must be non-empty");
  }
  PeriodResolver resolver(catalog_);

  // The VMs split into contiguous chunks, one per ParallelFor claim. Each
  // chunk adds its VMs in input order to a builder of its own, and the
  // partials merge in chunk order like a shard gather: rows keep input
  // order, and the builder's exact fold makes every derived bit
  // independent of the chunking. Without a pool the same loop runs one
  // chunk.
  const bool parallel = pool_ != nullptr && vms.size() > 1 &&
                        vms.size() >= min_parallel_rows_;
  const size_t num_chunks =
      parallel ? std::min(vms.size(),
                          pool_->num_threads() * ThreadPool::kClaimsPerThread)
               : 1;
  std::vector<DailyCdiResult> parts(num_chunks);
  auto run_chunk = [&](size_t c) {
    DailyCdiResultBuilder part;
    const size_t end = (c + 1) * vms.size() / num_chunks;
    for (size_t i = c * vms.size() / num_chunks; i < end; ++i) {
      // Budget check per VM, not per job: once the deadline expires, every
      // VM not yet started is deferred, while the ones already in flight
      // on other threads finish.
      if (deadline_.Expired()) {
        part.AddDeferred(end - i);
        break;
      }
      const VmServiceInfo& vm = vms[i];
      const Interval service = vm.service_period.ClampTo(day);
      if (service.empty()) {
        part.AddSkipped();
        continue;
      }
      // The zero-copy read path: a VM never appended to the log was never
      // interned, so Lookup yields kInvalidId and Query an empty span —
      // no fallback string search needed.
      const EventSpan span = log_->Query(
          EventQuery{.interval = service,
                     .target_id = GlobalInterner().Lookup(vm.vm_id),
                     .margin = kEventSearchMargin});
      VmDailyError verr;
      auto out_or = ComputeVmDailyCdi(span, vm, day, resolver, *weights_,
                                      quarantine_, &verr);
      if (!out_or.ok()) {
        part.AddFailed(vm.vm_id, verr.status.ToString(), verr.resolve_stats,
                       verr.quality);
      } else if (out_or->skipped) {
        part.AddSkipped();
      } else {
        const DataQuality quality = out_or->quality;
        part.AddVm(std::move(out_or).value(), quality);
      }
    }
    parts[c] = std::move(part).Finish();
  };
  if (parallel) {
    pool_->ParallelFor(num_chunks, run_chunk);
  } else {
    run_chunk(0);
  }

  size_t num_vms = 0;
  size_t num_events = 0;
  for (const DailyCdiResult& part : parts) {
    num_vms += part.per_vm.size();
    num_events += part.per_event.size();
  }
  DailyCdiResultBuilder builder;
  builder.Reserve(num_vms, num_events);
  for (DailyCdiResult& part : parts) {
    builder.Merge(std::move(part));
    part = DailyCdiResult();  // frees the moved-from rows now
  }
  DailyCdiResult result = std::move(builder).Finish();

  // The result struct's ad-hoc counters stay (callers consume them per
  // run); the registry carries the same counts process-wide so a statusz
  // snapshot sees every job that ever ran.
  static obs::Counter* runs =
      obs::MetricsRegistry::Global().GetCounter("cdi.jobs");
  static obs::Counter* evaluated =
      obs::MetricsRegistry::Global().GetCounter("cdi.vms_evaluated");
  static obs::Counter* skipped =
      obs::MetricsRegistry::Global().GetCounter("cdi.vms_skipped");
  static obs::Counter* failed =
      obs::MetricsRegistry::Global().GetCounter("cdi.vms_failed");
  static obs::Counter* degraded =
      obs::MetricsRegistry::Global().GetCounter("cdi.vms_degraded");
  static obs::Counter* deferred =
      obs::MetricsRegistry::Global().GetCounter("cdi.vms_deferred");
  runs->Increment();
  evaluated->Add(result.vms_evaluated);
  skipped->Add(result.vms_skipped);
  failed->Add(result.vms_failed);
  degraded->Add(result.vms_degraded);
  deferred->Add(result.vms_deferred);
  return result;
}

}  // namespace cdibot
