// The pieces every workload shares: generated inputs, the timing decorator
// around the read source, the open-loop writer plus closed-loop readers
// that make up one measured phase, bit-exact result comparison, and the
// serial per-VM layer replay of traced runs.
#ifndef CDI_BENCH_HARNESS_H_
#define CDI_BENCH_HARNESS_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "serve/query.h"
#include "serve/service.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "storage/event_log.h"
#include "stream/streaming_engine.h"
#include "weights/event_weights.h"

namespace cdibench {

using namespace cdibot;  // NOLINT: the benchmark speaks the library's types.

inline constexpr TimePoint kDayStart =
    TimePoint::FromMillis(1767225600000);  // 2026-01-01T00:00Z
inline const Interval kDay(kDayStart, kDayStart + Duration::Days(1));

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its Chrome trace (empty: not written).
  std::string trace_out;
};

/// Worker threads the box offers (at least 1).
size_t Cores();

/// The weight model every workload uses (Eqs. 1-3 over a fixed ticket mix).
EventWeightModel MakeWeights();

/// A 2 regions x 2 AZs x 2 clusters fleet with `ncs_per_cluster` NCs of 8
/// VMs each; `seed` varies the machine-model and architecture mix.
StatusOr<Fleet> BuildFleet(int ncs_per_cluster, uint64_t seed);

/// Injects one day at `rates` into `log`, seeded by `seed`.
Status InjectDay(const Fleet& fleet, const EventCatalog& catalog,
                 const FaultRates& rates, uint64_t seed, EventLog* log);

/// The raw events of one injected day at `rates`, in event-time order.
StatusOr<std::vector<RawEvent>> GenerateDay(const Fleet& fleet,
                                            const EventCatalog& catalog,
                                            const FaultRates& rates,
                                            uint64_t seed);

/// Fleet tile, by region, by region x az, and one region by az: the
/// handful of shapes an operator's dashboard refreshes over and over.
std::vector<serve::CdiQuery> DashboardBattery(serve::Consistency fleet_tile,
                                              serve::Consistency others);

/// Decorator around a CdiReadSource that times every Pull and tells the
/// calling reader whether its query pulled, and when the pull began. With
/// SplitPulls(engine) and tracing on, a pull first drains the dirty VMs
/// through FleetCdi() and then assembles through Snapshot(), timed apart.
class TimedSource : public serve::CdiReadSource {
 public:
  explicit TimedSource(serve::CdiReadSource* inner) : inner_(inner) {}

  void SplitPulls(StreamingCdiEngine* engine) { engine_ = engine; }

  std::string_view name() const override { return inner_->name(); }
  TimePoint watermark() const override { return inner_->watermark(); }
  StatusOr<DailyCdiResult> Pull(const Deadline& deadline) override;
  StatusOr<VmCdi> QuickFleetCdi() override { return inner_->QuickFleetCdi(); }

  /// Writers that mutate the source while it may be pulled report each
  /// write here, before and after it: a pull may report a VM deferred only
  /// when an event dirtied it while the pull ran.
  void NoteWrite() { writes_.fetch_add(1); }

  struct PullInfo {
    Clock::time_point start;
    /// Why the pulled answer is unacceptable; empty when it is fine.
    std::string problem;
  };
  /// The pull the calling thread ran since the last call, if any.
  static std::optional<PullInfo> TakeThreadPull();

  struct Timings {
    std::vector<double> pull_ms;
    std::vector<double> recompute_ms;
    std::vector<double> assemble_ms;
  };
  /// Timings recorded since the last call; clears them.
  Timings TakeTimings();

 private:
  serve::CdiReadSource* inner_;
  StreamingCdiEngine* engine_ = nullptr;
  std::atomic<uint64_t> writes_{0};
  std::mutex mu_;
  Timings timings_;
};

/// The open-loop generator: `events` are sent in order, `burst` per tick,
/// at a fixed `events_per_s`, whether or not the system keeps up.
struct WriterSpec {
  std::vector<RawEvent> events;
  double events_per_s = 0;
  size_t burst = 1;
  /// Sends one tick's events; called from the writer thread only.
  std::function<Status(const RawEvent* begin, const RawEvent* end)> send;
};

/// The closed-loop readers: each client issues the battery in turn, its
/// next query only after the previous answer landed plus `think`.
struct ReaderSpec {
  serve::CdiQueryService* service = nullptr;
  std::vector<serve::CdiQuery> battery;
  int clients = 1;
  Clock::duration think{};
};

struct PhaseResult {
  double seconds = 0;
  std::vector<double> query_us;
  std::vector<double> hit_us;   ///< answered by the result cache
  std::vector<double> miss_us;  ///< ran a source pull
  /// Per event: scheduled send to completion of the first answer whose
  /// pull began after the event's send returned.
  std::vector<double> fresh_ms;
  /// Per tick: how late the generator started it.
  std::vector<double> lag_ms;
  uint64_t queries = 0;
  uint64_t query_failures = 0;
  uint64_t cache_hits = 0;
  uint64_t cube_answers = 0;  ///< cube answers that were not cache hits
  uint64_t events_due = 0;
  uint64_t events_unsent = 0;
  uint64_t send_failures = 0;
  std::vector<std::string> failure_notes;

  uint64_t attempted() const { return queries + events_due; }
  uint64_t failed() const {
    return query_failures + events_unsent + send_failures;
  }
};

/// Runs writer and readers together for `seconds`. `*cursor` is the next
/// unsent event of the writer's supply, carried across phases; the writer
/// stops early, without failure, when the supply runs out.
PhaseResult RunPhase(const WriterSpec& writer, size_t* cursor,
                     const ReaderSpec& readers, double seconds);

/// Empty when a query's answer is acceptable; otherwise why it failed:
/// non-OK, degraded quality, or (from `pull`, the pull it ran) deferred
/// VMs no concurrent write explains.
std::string CheckResponse(const StatusOr<serve::CdiQueryResponse>& response,
                          const std::optional<TimedSource::PullInfo>& pull);

/// Empty when `got` and `want` carry bit-identical fleet aggregates and
/// per-VM rows (matched by vm_id); otherwise the first difference.
std::string DiffResults(const DailyCdiResult& got, const DailyCdiResult& want);

/// Busies `pool` until its workers and the caller run on distinct cores
/// (or 5 s pass). On the virtual machines this runs on, fresh threads can
/// share one core for a second or more before the scheduler spreads them,
/// which would otherwise land in the first measurements.
void SpreadPool(ThreadPool* pool);

/// Runs `job` `reps` times; returns the last result and the wall seconds.
StatusOr<DailyCdiResult> RunJobRepeated(const DailyCdiJob& job,
                                        const std::vector<VmServiceInfo>& vms,
                                        int reps, std::vector<double>* wall_s);

/// Appends `events` to `log` in one AppendBatch; returns ns per event.
double TimedAppend(const std::vector<RawEvent>& events, EventLog* log);

/// Traced runs only: replays the per-VM steps of the daily job serially
/// through the public functions over `log` and `vms`, and reports the
/// storage / chaos / event / weights / cdi per-layer metrics.
/// `job_wall_s` and `job_threads` describe the pooled job over the same
/// inputs, for cdi.job_parallel_eff.
Status ReplayPerVmLayers(const EventLog& log,
                         const std::vector<VmServiceInfo>& vms,
                         const EventCatalog& catalog,
                         const EventWeightModel& weights, double job_wall_s,
                         size_t job_threads, Report* report);

/// The serve.* and driver.* per-layer metrics of one traced phase, plus
/// cdi.drilldown_ms over `rows` for the dashboard's grouped shapes.
void ReportServeLayers(const PhaseResult& phase,
                       const TimedSource::Timings& timings,
                       const std::vector<VmCdiRecord>& rows, Report* report);

/// The end-to-end serving metrics of one untraced phase.
void ReportServeEndToEnd(const PhaseResult& phase, Report* report);

/// Adds a phase's counts to the report's attempted/failed totals.
void CountPhase(const PhaseResult& phase, Report* report);

/// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace cdibench

#endif  // CDI_BENCH_HARNESS_H_
