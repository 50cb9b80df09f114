// Implementation-cost benchmark (Sec. V): the paper's Spark job spends
// ~500 s of core CDI computation on a day of production events (10 GB in,
// 100 executors x 8 cores). This google-benchmark binary measures the same
// core computation on the C++ engine: Algorithm 1 throughput, period
// resolution, and the end-to-end daily job at several fleet scales, with
// events/second counters for comparison against the paper's scale.
#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "cdi/indicator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "cdi/pipeline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "rules/rule_engine.h"
#include "sim/scenario.h"

namespace cdibot {
namespace {

const TimePoint kDayStart = TimePoint::FromMillis(1767225600000);  // 2026-01-01
const Interval kDay(kDayStart, kDayStart + Duration::Days(1));

std::vector<WeightedEventView> RandomEvents(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedEventView> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto len = Duration::Minutes(rng.UniformInt(1, 30));
    const TimePoint start = kDayStart + Duration::Millis(rng.UniformInt(
                                0, kDay.length().millis() - len.millis()));
    events.push_back(
        WeightedEventView{.period = Interval(start, start + len),
                          .weight = rng.Uniform(0.1, 1.0),
                          .name_id = StringInterner::kInvalidId,
                          .category = StabilityCategory::kPerformance});
  }
  return events;
}

// Algorithm 1 (boundary sweep) on one VM's event set.
void BM_ComputeCdi(benchmark::State& state) {
  const auto events = RandomEvents(static_cast<size_t>(state.range(0)), 11);
  for (auto _ : state) {
    auto q = ComputeCdi(events, kDay);
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_ComputeCdi)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

// Period resolution of a day's raw stream for one VM, over refs into the
// SoA rows the event log stores.
void BM_PeriodResolve(benchmark::State& state) {
  EventCatalog catalog = EventCatalog::BuiltIn();
  PeriodResolver resolver(&catalog);
  Rng rng(13);
  EventRows rows;
  std::vector<EventRef> refs;
  const char* names[] = {"slow_io", "packet_loss", "vcpu_high"};
  for (int64_t i = 0; i < state.range(0); ++i) {
    RawEvent ev;
    ev.name = names[rng.UniformInt(0, 2)];
    ev.time = kDayStart + Duration::Millis(
                  rng.UniformInt(0, kDay.length().millis() - 1));
    ev.target = "vm-1";
    ev.level = Severity::kCritical;
    ev.expire_interval = Duration::Hours(24);
    refs.emplace_back(&rows, rows.Append(ev));
  }
  for (auto _ : state) {
    auto resolved = resolver.ResolveRefs(refs, kDay);
    benchmark::DoNotOptimize(resolved);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeriodResolve)->Arg(1024)->Arg(16384);

// Rule-engine matching over an active event set: the per-tick cost of the
// CloudBot control loop.
void BM_RuleMatch(benchmark::State& state) {
  RuleEngine engine;
  // A realistic rule set: the built-in rules plus generated two-event
  // conjunctions.
  {
    auto built_in = RuleEngine::BuiltIn().value();
    engine = std::move(built_in);
  }
  const char* names[] = {"slow_io",    "packet_loss", "vcpu_high",
                         "nic_flapping", "vm_hang",   "api_error"};
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const std::string expr = std::string(names[i % 6]) + " && " +
                             names[(i + 1) % 6] + " && !" +
                             names[(i + 2) % 6];
    (void)engine.Register("gen_rule_" + std::to_string(i), expr,
                          {{"repair_request", 1}});
  }
  const std::set<std::string> active = {"slow_io", "nic_flapping",
                                        "api_error"};
  const TimePoint now = kDayStart + Duration::Hours(12);
  for (auto _ : state) {
    auto matches = engine.Match(active, "vm-1", now);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(engine.num_rules()));
}
BENCHMARK(BM_RuleMatch)->Arg(8)->Arg(128)->Arg(1024);

// End-to-end daily job: fleet of N VMs with production-like event volume,
// run on a thread pool (the "executor" analogue). items/s = raw events/s.
void BM_DailyJob(benchmark::State& state) {
  const int vms_per_nc = 8;
  const auto target_vms = static_cast<int>(state.range(0));
  FleetSpec spec;
  spec.regions = 1;
  spec.azs_per_region = 1;
  spec.clusters_per_az = 1;
  spec.ncs_per_cluster = std::max(1, target_vms / vms_per_nc);
  spec.vms_per_nc = vms_per_nc;
  const Fleet fleet = Fleet::Build(spec).value();

  EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(17);
  FaultInjector injector(&catalog, &rng);
  EventLog log;
  // Heavy day: ~25 episodes per VM so the job is compute-bound.
  (void)injector.InjectDay(fleet, kDayStart, BaselineRates().Scaled(150.0),
                           &log);

  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {}).value();
  ThreadPool pool(std::thread::hardware_concurrency());
  DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                       .catalog = &catalog,
                                       .weights = &weights,
                                       .pool = &pool,
                                       .min_parallel_rows = 1});
  const auto vms = fleet.ServiceInfos(kDay).value();

  obs::Histogram* job_ns =
      obs::MetricsRegistry::Global().GetHistogram("bench.daily_job_ns");
  for (auto _ : state) {
    obs::ScopedTimer timer(job_ns);
    auto result = job.Run(vms, kDay);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(log.size()));
  state.counters["raw_events"] =
      benchmark::Counter(static_cast<double>(log.size()));
  state.counters["vms"] = benchmark::Counter(static_cast<double>(vms.size()));
}
BENCHMARK(BM_DailyJob)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cdibot

CDIBOT_BENCHMARK_MAIN("impl_core_throughput");
