// Shard-topology scaling: how fleet gathers and routed ingest behave as
// the shard count grows. BM_ShardGather pins the scatter/gather cost of a
// settled Snapshot (the per-shard work shrinks with N, the merge grows),
// BM_ShardIngestAndGather measures the steady-state loop the sharded
// cloudbot mode runs (route a burst, gather), and BM_ShardRebalance prices
// a full recut+handoff. items_per_second across the N arms is the scaling
// curve; the shard.gather_ns histogram (p50/p95/p99) lands in the obs
// snapshot section of BENCH_shard_scaling.json via bench_report.h. The
// committed scaling baseline lives at
// bench/trajectory/shard_scaling.baseline.json (BENCH_*.json outputs are
// gitignored; refresh the baseline when a PR legitimately moves it).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_report.h"
#include "common/rng.h"
#include "obs/fleet.h"
#include "common/thread_pool.h"
#include "shard/coordinator.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "storage/event_log.h"
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

// A registered, primed sharded fleet plus the day's event stream.
// `transport` picks the worker topology: in-process channels (the PR-6
// default) or worker threads behind real Unix-domain sockets, which prices
// the wire — framing, CRC trailer, syscalls — against the same workload.
struct ShardFixture {
  EventCatalog catalog = EventCatalog::BuiltIn();
  EventWeightModel weights = MakeWeights();
  std::vector<VmServiceInfo> vms;
  std::vector<RawEvent> day_events;
  std::unique_ptr<shard::ShardCoordinator> coord;

  ShardFixture(size_t num_shards, int target_vms, ThreadPool* pool,
               shard::ShardTransportMode transport =
                   shard::ShardTransportMode::kInProcess) {
    const int vms_per_nc = 8;
    FleetSpec spec;
    spec.regions = 1;
    spec.azs_per_region = 1;
    spec.clusters_per_az = 1;
    spec.ncs_per_cluster = std::max(1, target_vms / vms_per_nc);
    spec.vms_per_nc = vms_per_nc;
    Fleet fleet = Fleet::Build(spec).value();
    vms = fleet.ServiceInfos(kDay).value();

    Rng rng(17);
    FaultInjector injector(&catalog, &rng);
    EventLog log;
    (void)injector.InjectDay(fleet, kDayStart, BaselineRates().Scaled(20.0),
                             &log);
    day_events = log.Search(
        Interval(kDayStart - Duration::Days(1), kDay.end + Duration::Days(1)));

    shard::ShardTopologyOptions topo;
    topo.num_shards = num_shards;
    topo.engine.window = kDay;
    topo.engine.pool = pool;
    topo.transport = transport;
    coord = shard::ShardCoordinator::Create(&catalog, &weights, topo).value();
    (void)coord->RegisterVms(vms);
    (void)coord->IngestBatch(day_events);
    (void)coord->Flush();
  }
};

// Settled fleet gather over a primed day: scatter to N shards, merge the
// wire snapshots through the result builder's fleet fold.
void BM_ShardGather(benchmark::State& state) {
  ThreadPool pool(4);
  ShardFixture fx(static_cast<size_t>(state.range(0)), 512, &pool);
  for (auto _ : state) {
    auto snap = fx.coord->Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.vms.size()));
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["fleet_vms"] = static_cast<double>(fx.vms.size());
}
BENCHMARK(BM_ShardGather)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Steady-state sharded monitoring loop: route a burst of fresh events to
// their owner shards, then gather the fleet answer.
void BM_ShardIngestAndGather(benchmark::State& state) {
  ThreadPool pool(4);
  ShardFixture fx(static_cast<size_t>(state.range(0)), 512, &pool);
  Rng rng(31);
  constexpr size_t kBurst = 128;
  for (auto _ : state) {
    for (size_t i = 0; i < kBurst; ++i) {
      RawEvent ev;
      ev.name = "slow_io";
      ev.time = kDayStart + Duration::Minutes(rng.UniformInt(0, 1439));
      ev.target =
          fx.vms[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(fx.vms.size()) - 1))]
              .vm_id;
      ev.level = Severity::kCritical;
      ev.expire_interval = Duration::Hours(1);
      (void)fx.coord->Ingest(ev);
    }
    auto snap = fx.coord->Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBurst));
  state.counters["shards"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ShardIngestAndGather)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The same settled gather, but over the socket transport: every frame now
// crosses a Unix-domain socket with length-prefix + CRC32 framing. The
// delta against BM_ShardGather is the wire tax on the scatter/gather path;
// the shard.gather_ns histogram (p50/p95/p99) in the report's obs section
// covers both variants' gathers.
void BM_ShardGatherSocket(benchmark::State& state) {
  ThreadPool pool(4);
  ShardFixture fx(static_cast<size_t>(state.range(0)), 512, &pool,
                  shard::ShardTransportMode::kSocketThread);
  for (auto _ : state) {
    auto snap = fx.coord->Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.vms.size()));
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["fleet_vms"] = static_cast<double>(fx.vms.size());
}
BENCHMARK(BM_ShardGatherSocket)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Steady-state loop over sockets: routed ingest throughput + gather when
// every batch is serialized onto a real wire.
void BM_ShardIngestAndGatherSocket(benchmark::State& state) {
  ThreadPool pool(4);
  ShardFixture fx(static_cast<size_t>(state.range(0)), 512, &pool,
                  shard::ShardTransportMode::kSocketThread);
  Rng rng(31);
  constexpr size_t kBurst = 128;
  for (auto _ : state) {
    for (size_t i = 0; i < kBurst; ++i) {
      RawEvent ev;
      ev.name = "slow_io";
      ev.time = kDayStart + Duration::Minutes(rng.UniformInt(0, 1439));
      ev.target =
          fx.vms[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(fx.vms.size()) - 1))]
              .vm_id;
      ev.level = Severity::kCritical;
      ev.expire_interval = Duration::Hours(1);
      (void)fx.coord->Ingest(ev);
    }
    auto snap = fx.coord->Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBurst));
  state.counters["shards"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ShardIngestAndGatherSocket)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Fleet obs pull over the socket transport: scatter an obs-snapshot
// request to N workers, decode each wire snapshot (raw histogram buckets,
// span stats, drained spans), and fold them into one fleet view. This is
// the cost of a fleet statusz refresh; spans are drained each pull so the
// per-iteration payload stays representative of a steady polling loop.
// statusz_bytes tracks the rendered fleet JSON size as shard count grows.
void BM_ShardObsPull(benchmark::State& state) {
  ThreadPool pool(4);
  ShardFixture fx(static_cast<size_t>(state.range(0)), 512, &pool,
                  shard::ShardTransportMode::kSocketThread);
  size_t statusz_bytes = 0;
  for (auto _ : state) {
    auto procs = fx.coord->PullWorkerObs(/*include_spans=*/true);
    auto fleet = obs::CaptureFleetObsSnapshot(std::move(procs).value());
    statusz_bytes = obs::RenderFleetStatuszJson(fleet).size();
    benchmark::DoNotOptimize(fleet);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["statusz_bytes"] = static_cast<double>(statusz_bytes);
}
BENCHMARK(BM_ShardObsPull)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Full recut + range handoff under churn: register an extra VM (skewing
// the balance), then rebalance. Prices the extract/install/checkpoint
// cycle, which bounds how often a deployment can afford to recut.
void BM_ShardRebalance(benchmark::State& state) {
  ThreadPool pool(4);
  ShardFixture fx(static_cast<size_t>(state.range(0)), 256, &pool);
  int next_id = 0;
  for (auto _ : state) {
    VmServiceInfo vm;
    vm.vm_id = "churn-" + std::to_string(next_id++);
    vm.service_period = kDay;
    (void)fx.coord->RegisterVm(vm);
    auto st = fx.coord->Rebalance();
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["vms_moved"] =
      static_cast<double>(fx.coord->stats().vms_moved);
}
BENCHMARK(BM_ShardRebalance)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cdibot

CDIBOT_BENCHMARK_MAIN("shard_scaling");
