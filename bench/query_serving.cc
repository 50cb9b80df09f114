// Query-serving closed loop: N clients hammer one CdiQueryService in a
// closed loop (each client issues its next query the moment the previous
// answer lands), sweeping the client count to trace the p99-vs-QPS curve
// for the two serving arms:
//
//   BM_QueryServingCached/N — the production configuration (ARC result
//     cache + materialized cube). After warm-up, the dashboard battery is
//     answered from the cache: p99 is a map lookup + shared_ptr copy.
//   BM_QueryServingCold/N — cache and cube disabled, every query a full
//     source pull + RunDrilldown recompute. This is what serving would
//     cost without the layer, and what every kFresh or first-seen ad-hoc
//     query still pays.
//
// The acceptance bar this bench pins: at saturation (the largest client
// arm), cached p99 must sit >=10x below cold p99. Both arms' p50/p99/qps
// land as counters in BENCH_query_serving.json via bench_report.h; the
// committed curve lives at bench/trajectory/query_serving.baseline.json
// (BENCH_*.json outputs are gitignored; refresh the baseline when a PR
// legitimately moves it).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/query.h"
#include "serve/service.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "storage/event_log.h"
#include "stream/streaming_engine.h"
#include "weights/event_weights.h"

namespace cdibot {
namespace {

const TimePoint kDayStart = TimePoint::FromMillis(1767225600000);  // 2026-01-01
const Interval kDay(kDayStart, kDayStart + Duration::Days(1));

EventWeightModel MakeWeights() {
  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230}}, 4);
  return EventWeightModel::Build(std::move(ticket_model).value(), {}).value();
}

// A primed single-node engine (512 VMs, one injected day) behind the
// serving facade. Both arms share the fixture shape so the only variable
// is the serving configuration.
struct ServeFixture {
  EventCatalog catalog = EventCatalog::BuiltIn();
  EventWeightModel weights = MakeWeights();
  ThreadPool pool{4};
  std::unique_ptr<StreamingCdiEngine> engine;
  std::unique_ptr<serve::EngineSource> source;
  std::unique_ptr<serve::CdiQueryService> service;

  explicit ServeFixture(const serve::CdiQueryServiceOptions& options) {
    const int vms_per_nc = 8;
    FleetSpec spec;
    spec.regions = 2;
    spec.azs_per_region = 2;
    spec.clusters_per_az = 1;
    spec.ncs_per_cluster = 512 / (2 * 2 * vms_per_nc);
    spec.vms_per_nc = vms_per_nc;
    Fleet fleet = Fleet::Build(spec).value();

    StreamingCdiOptions eng;
    eng.window = kDay;
    eng.pool = &pool;
    engine = std::make_unique<StreamingCdiEngine>(
        StreamingCdiEngine::Create(&catalog, &weights, eng).value());
    const std::vector<VmServiceInfo> vms = fleet.ServiceInfos(kDay).value();
    for (const VmServiceInfo& vm : vms) {
      (void)engine->RegisterVm(vm);
    }

    Rng rng(17);
    FaultInjector injector(&catalog, &rng);
    EventLog log;
    (void)injector.InjectDay(fleet, kDayStart, BaselineRates().Scaled(20.0),
                             &log);
    (void)engine->IngestBatch(log.Search(
        Interval(kDayStart - Duration::Days(1), kDay.end + Duration::Days(1))));

    source = std::make_unique<serve::EngineSource>(engine.get());
    service = std::make_unique<serve::CdiQueryService>(source.get(), options);
  }
};

// The dashboard battery: the handful of shapes a monitoring UI refreshes
// over and over (fleet tile, two drill-downs, one filtered view). A small
// hot set is exactly the workload the ARC cache's T2 list is for.
std::vector<serve::CdiQuery> DashboardBattery(serve::Consistency mode) {
  std::vector<serve::CdiQuery> battery;
  {
    serve::CdiQuery q;
    q.consistency = mode;
    battery.push_back(q);
  }
  {
    serve::CdiQuery q;
    q.consistency = mode;
    q.group_by = {"region"};
    battery.push_back(q);
  }
  {
    serve::CdiQuery q;
    q.consistency = mode;
    q.group_by = {"region", "az"};
    battery.push_back(q);
  }
  {
    serve::CdiQuery q;
    q.consistency = mode;
    q.group_by = {"az"};
    q.filter = {{"region", "r0"}};
    battery.push_back(q);
  }
  return battery;
}

// One closed-loop arm: `clients` threads, each issuing `per_client`
// queries back to back from the battery. Latencies (microseconds) are
// appended to `lat_us`; returns total queries completed.
size_t RunClosedLoop(serve::CdiQueryService& service,
                     const std::vector<serve::CdiQuery>& battery, int clients,
                     int per_client, std::vector<double>* lat_us) {
  std::mutex mu;
  std::vector<std::thread> threads;
  std::atomic<size_t> completed{0};
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      local.reserve(static_cast<size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const serve::CdiQuery& q =
            battery[static_cast<size_t>(c + i) % battery.size()];
        const auto t0 = std::chrono::steady_clock::now();
        auto resp = service.Query(q);
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(resp);
        if (resp.ok()) {
          completed.fetch_add(1, std::memory_order_relaxed);
          local.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      lat_us->insert(lat_us->end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  return completed.load();
}

double Percentile(std::vector<double>* lat, double p) {
  if (lat->empty()) return 0.0;
  const size_t idx = std::min(
      lat->size() - 1,
      static_cast<size_t>(p * static_cast<double>(lat->size() - 1)));
  std::nth_element(lat->begin(),
                   lat->begin() + static_cast<std::ptrdiff_t>(idx), lat->end());
  return (*lat)[idx];
}

void RunArm(benchmark::State& state, const serve::CdiQueryServiceOptions& opts,
            serve::Consistency mode, int per_client) {
  ServeFixture fx(opts);
  const int clients = static_cast<int>(state.range(0));
  const std::vector<serve::CdiQuery> battery = DashboardBattery(mode);
  // Warm-up pass (also the cache/cube priming for the cached arm).
  std::vector<double> warm;
  RunClosedLoop(*fx.service, battery, 1, static_cast<int>(battery.size()),
                &warm);

  std::vector<double> lat_us;
  size_t total = 0;
  double seconds = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    total += RunClosedLoop(*fx.service, battery, clients, per_client, &lat_us);
    const auto t1 = std::chrono::steady_clock::now();
    seconds += std::chrono::duration<double>(t1 - t0).count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["qps"] = seconds > 0 ? static_cast<double>(total) / seconds : 0;
  state.counters["p50_us"] = Percentile(&lat_us, 0.50);
  state.counters["p99_us"] = Percentile(&lat_us, 0.99);
  const auto cs = fx.service->cache_stats();
  state.counters["cache_hit_rate"] =
      cs.lookups > 0
          ? static_cast<double>(cs.hits) / static_cast<double>(cs.lookups)
          : 0;
}

// Production arm: ARC cache + cube on, dashboard battery served kCached.
// After warm-up every query is a cache hit (the watermark never moves —
// no ingest during the loop), so the curve is the serving layer's ceiling.
void BM_QueryServingCached(benchmark::State& state) {
  serve::CdiQueryServiceOptions opts;
  opts.metric_prefix = "bench_serve_cached";
  RunArm(state, opts, serve::Consistency::kCached, /*per_client=*/512);
}
BENCHMARK(BM_QueryServingCached)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cold arm: cache and cube off, every query a kFresh full pull +
// RunDrilldown over the 512-VM day. The 10x acceptance bar compares this
// arm's p99 at the largest client count against the cached arm's.
void BM_QueryServingCold(benchmark::State& state) {
  serve::CdiQueryServiceOptions opts;
  opts.cache_entries = 0;
  opts.materialize_cubes = false;
  opts.metric_prefix = "bench_serve_cold";
  RunArm(state, opts, serve::Consistency::kFresh, /*per_client=*/16);
}
BENCHMARK(BM_QueryServingCold)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace cdibot

CDIBOT_BENCHMARK_MAIN("query_serving")
