#ifndef CDIBOT_CDI_PIPELINE_H_
#define CDIBOT_CDI_PIPELINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cdi/baselines.h"
#include "cdi/drilldown.h"
#include "chaos/quarantine.h"
#include "common/placement.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "dataflow/table.h"
#include "event/catalog.h"
#include "event/period_resolver.h"
#include "storage/event_log.h"
#include "weights/event_weights.h"

namespace cdibot {

/// Per-VM input to the daily job: identity, placement dimensions, and the
/// VM's service window within the evaluation day (VMs created or released
/// mid-day have partial windows).
struct VmServiceInfo {
  std::string vm_id;
  /// Built once per VM; every row derived from it shares this map.
  Placement dims{};
  Interval service_period;
};

/// Events extracted up to this margin outside the evaluation window can
/// still describe periods inside it (stateless events trace backward and
/// stateful pairs straddle the boundary), so both the batch job's log
/// search and the streaming engine's retention window extend the service
/// window by this much on each side. Period clamping discards anything
/// that lands outside the service window after resolution.
inline constexpr Duration kEventSearchMargin = Duration::Days(1);

/// Everything the daily job derives from one VM: the per-VM row, the
/// per-event drill-down rows, the classic baseline, and the resolver's
/// data-quality counters. Shared by the batch job and the streaming
/// engine so both paths run the identical per-VM math.
struct VmDailyOutput {
  VmCdiRecord record;
  std::vector<EventCdiRecord> events;
  UnavailabilityStats baseline;
  ResolveStats resolve_stats;
  /// Input-integrity accounting for this VM (mirrored into record.quality).
  DataQuality quality;
  /// True when the VM's service period does not intersect the window.
  bool skipped = false;
};

/// Partial-failure payload of ComputeVmDailyCdi: when the computation
/// fails mid-stage, the counters describing the work that DID run land
/// here, so callers can still account for data quality (the old contract
/// left them inside a half-filled out-param; the StatusOr return needs an
/// explicit home for them).
struct VmDailyError {
  Status status;
  /// Resolver counters of the stages that ran before the failure.
  ResolveStats resolve_stats;
  /// Input-integrity counters accumulated before the failure.
  DataQuality quality;
};

/// Runs the full per-VM slice of the daily job over a zero-copy event
/// span (typically EventLog::Query(..) or the streaming engine's
/// retention buffer): clamps the service window into `day`, sanitizes the
/// span (structurally malformed events are diverted to quarantine and
/// counted in the output's quality instead of failing the VM), resolves
/// the survivors (the span must cover at least the service window
/// extended by kEventSearchMargin), attaches weights, computes the three
/// indicators, the baseline stats, and the per-event damage rows.
///
/// On success the full VmDailyOutput is returned by value. On failure the
/// error status is returned and — when `error` is non-null — the partial
/// counters of the stages that ran are preserved in `*error`.
/// `quarantine`, when non-null, additionally receives every diverted
/// event for fleet-level accounting.
///
/// The hot path is allocation-light by design: events are consumed as
/// EventRefs, resolution and weighting run on interned ids, and an
/// event-free VM computes without touching the heap at all (pinned by
/// tests/alloc_regression_test.cc).
StatusOr<VmDailyOutput> ComputeVmDailyCdi(const EventSpan& events,
                                          const VmServiceInfo& vm,
                                          const Interval& day,
                                          const PeriodResolver& resolver,
                                          const EventWeightModel& weights,
                                          chaos::QuarantineSink* quarantine =
                                              nullptr,
                                          VmDailyError* error = nullptr);

/// Full output of one daily CDI computation — the two MaxCompute tables of
/// Sec. V plus fleet-level aggregates and the classic baselines for
/// comparison.
struct DailyCdiResult {
  /// First table: one row per VM.
  std::vector<VmCdiRecord> per_vm;
  /// Second table: one row per (VM, event name) with damage.
  std::vector<EventCdiRecord> per_event;
  /// Eq.-4 aggregate over every VM.
  VmCdi fleet;
  /// Downtime Percentage / AIR / MTBF / MTTR over the same inputs.
  UnavailabilityStats fleet_baseline;
  /// Total service time across the fleet (denominator for event-level CDI).
  Duration fleet_service_time;
  /// Data-quality counters from period resolution. Includes the counters of
  /// VMs that later failed mid-computation — they reflect what actually ran.
  ResolveStats resolve_stats;
  /// VMs whose computation completed and contributed to the aggregates.
  size_t vms_evaluated = 0;
  /// VMs whose service period missed the window entirely.
  size_t vms_skipped = 0;
  /// VMs that failed mid-computation; excluded from per_vm and the fleet
  /// aggregates but counted here so data-quality reporting matches reality.
  size_t vms_failed = 0;
  /// VMs never started because the job's deadline expired first. A
  /// non-zero count marks this result as partial: the fleet aggregates
  /// cover only the VMs that ran.
  size_t vms_deferred = 0;
  /// The first per-VM failure (ok when vms_failed == 0).
  Status first_vm_error;
  /// Up to kMaxVmErrorSamples samples of DISTINCT failure reasons across
  /// the failed VMs ("vm <id>: <error>", one VM per distinct reason). A
  /// fleet-wide incident produces thousands of identical failures; keeping
  /// one exemplar per reason is what an operator actually needs.
  std::vector<std::string> vm_error_samples;
  static constexpr size_t kMaxVmErrorSamples = 10;
  /// Aggregate input-integrity counters over the evaluated VMs.
  DataQuality quality;
  /// Evaluated VMs whose per-VM quality is degraded; their rows are in
  /// per_vm (flagged), not dropped.
  size_t vms_degraded = 0;

  /// Exports per_vm as a table (vm_id, region, az, cluster, cdi_u, cdi_p,
  /// cdi_c, service_minutes) for CSV export.
  dataflow::Table ToVmTable() const;
  /// Exports per_event as a table (vm_id, event, category, damage_minutes,
  /// service_minutes).
  dataflow::Table ToEventTable() const;

  /// Sorts per_vm by vm_id and per_event by (vm_id, event_name), so results
  /// assembled in hash-shard or shard-index order diff cleanly.
  void SortRows();
};

/// The one assembler of a DailyCdiResult. Every topology feeds it: the
/// batch job adds each chunk of its VMs to one builder per chunk and then
/// merges the chunks' partial results in input order, the streaming engine
/// adds its resident VMs, and the shard coordinator merges its workers'
/// partial results. Only mergeable state is accumulated — rows, counters,
/// quality, resolver stats, error samples, and the integer baseline sums —
/// and the derived values (`fleet` and the baseline ratios) are computed
/// once, in Finish(), over the union of rows:
///
///   * fleet CDI folds `per_vm` in arrival order through FleetCdiPartial,
///     whose exact accumulators make the bits independent of how the rows
///     were split into partials and in what order they arrived;
///   * the baseline merges raw (interruption_count, downtime,
///     fleet_service_time) sums, which are integers and exact in any order.
///
/// first_vm_error and vm_error_samples keep arrival order: merging partials
/// gives the same samples as adding their VMs one by one in the same order,
/// provided no partial itself reached kMaxVmErrorSamples distinct reasons
/// (a capped partial has already dropped its later reasons).
class DailyCdiResultBuilder {
 public:
  /// One evaluated VM. `quality` is the VM's final input-integrity record
  /// (the streaming engine folds its ingest-side counters into it); it
  /// replaces out.record.quality.
  void AddVm(VmDailyOutput out, const DataQuality& quality);
  /// One VM whose computation failed with `reason`: counted, its partial
  /// resolver and quality counters kept, and sampled as "vm <id>: <reason>".
  void AddFailed(const std::string& vm_id, const std::string& reason,
                 const ResolveStats& resolve_stats, const DataQuality& quality);
  /// One VM whose service period missed the window.
  void AddSkipped();
  /// `n` VMs left uncomputed (deadline expired, shard missing, ...).
  void AddDeferred(size_t n);
  /// Sizes the row vectors for `vms` per-VM and `events` per-event rows, so
  /// merging partials of known total size never reallocates them.
  void Reserve(size_t vms, size_t events);
  /// Folds in a partial result assembled elsewhere (for example decoded
  /// from a shard worker). Its derived fields are ignored.
  void Merge(DailyCdiResult&& partial);
  /// The assembled result; rows stay in arrival order.
  DailyCdiResult Finish() &&;

 private:
  /// Samples one failure unless the cap is reached or `reason` was seen.
  void Sample(const std::string& reason, std::string sample);

  DailyCdiResult result_;
  UnavailabilityPartial baseline_;
  std::set<std::string> sampled_reasons_;
};

/// The daily CDI job of Sec. V: reads raw events from the event log, resolves
/// periods, attaches weights, runs Algorithm 1 per VM and category, and
/// emits the two result tables. VMs are split into contiguous chunks that
/// run in parallel on the Options' pool (the Spark-executor stand-in); each
/// chunk builds its own partial result, and the partials merge in chunk
/// order like a shard gather.
class DailyCdiJob {
 public:
  /// Everything a job borrows, in one place. All referenced objects must
  /// outlive the job; `log`, `catalog` and `weights` are required.
  struct Options {
    const EventLog* log = nullptr;
    const EventCatalog* catalog = nullptr;
    const EventWeightModel* weights = nullptr;
    /// Worker pool for per-VM parallelism (the Spark-executor stand-in);
    /// nullptr runs VMs serially.
    ThreadPool* pool = nullptr;
    /// Below this VM count the job stays single-threaded even with a pool
    /// (task overhead dominates otherwise).
    size_t min_parallel_rows = 2;
    /// Optional fleet-level sink for events the per-VM sanitation diverts.
    chaos::QuarantineSink* quarantine = nullptr;
    /// Execution budget. VMs not yet started when the deadline expires are
    /// deferred (counted in DailyCdiResult::vms_deferred) instead of
    /// computed, so an overloaded job returns a partial-but-honest result
    /// quickly rather than a complete one late. Default: infinite.
    Deadline deadline = {};
  };

  explicit DailyCdiJob(const Options& options)
      : log_(options.log),
        catalog_(options.catalog),
        weights_(options.weights),
        pool_(options.pool),
        min_parallel_rows_(options.min_parallel_rows),
        quarantine_(options.quarantine),
        deadline_(options.deadline) {}

  /// Runs the job for `vms` over the evaluation window `day` (typically one
  /// UTC day; any window works). Service periods are clamped into `day`.
  /// Per-VM failures do not abort the job: the failing VM is dropped from
  /// per_vm, counted in vms_failed, its resolver counters are still
  /// aggregated, the first error is reported in first_vm_error, and up to
  /// kMaxVmErrorSamples distinct failure reasons land in vm_error_samples.
  StatusOr<DailyCdiResult> Run(const std::vector<VmServiceInfo>& vms,
                               const Interval& day) const;

 private:
  const EventLog* log_;
  const EventCatalog* catalog_;
  const EventWeightModel* weights_;
  ThreadPool* pool_;
  size_t min_parallel_rows_;
  chaos::QuarantineSink* quarantine_;
  Deadline deadline_;
};

}  // namespace cdibot

#endif  // CDIBOT_CDI_PIPELINE_H_
