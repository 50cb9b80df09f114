// Overload-resilience suite for the flow-controlled telemetry -> CDI path.
//
//  * Differential: a day run through the BackpressureQueue with admission
//    control ENABLED but never triggered is bit-identical to the direct
//    path, across 24 seeds — flow control is free until it fires.
//  * Surge (SurgeOverload*, also run under ASan with an RSS ceiling by
//    scripts/check.sh): a 10x duplicate surge against a slow consumer keeps
//    queue memory bounded, sheds zero unavailability events (CDI-U exact),
//    and finishes with the affected VMs flagged degraded, not wrong.
//  * Flapping sink: a checkpoint disk that keeps failing trips the circuit
//    breaker within the failure window, fast-fails without I/O while open,
//    recovers through half-open probes, and the transitions are visible in
//    statusz.
//  * Watchdog: a supervisor crash with recovery-by-detection — the queue
//    buffers the outage, the watchdog notices the silent pump, and the
//    restored engine finishes the day equal to an uninterrupted one.
//  * Deadlines: the daily job, streaming Preview, and checkpoint Save all
//    return partial-but-honest results instead of running long.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cdi/aggregate.h"
#include "cdi/pipeline.h"
#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "flow/backpressure_queue.h"
#include "obs/statusz.h"
#include "sim/cloudbot_loop.h"
#include "storage/checkpoint_store.h"
#include "stream/streaming_engine.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

long MaxRssKb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// --- Shared fixture: a synthetic day with all three CDI classes -------------

class OverloadTest : public ::testing::Test {
 protected:
  OverloadTest() : catalog_(EventCatalog::BuiltIn()) {
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"packet_loss", 60}, {"api_error", 25}}, 4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
    day_ = Interval(T("2026-07-01 00:00"), T("2026-07-02 00:00"));
    for (int v = 0; v < 8; ++v) {
      VmServiceInfo vm;
      vm.vm_id = "vm-" + std::to_string(v);
      vm.dims = {{"region", "r0"}};
      vm.service_period = day_;
      vms_.push_back(vm);
    }
    // Each VM gets a run of performance events, a shorter run of
    // control-plane events, and (every other VM) one unavailability
    // episode — the class whose loss would be unforgivable.
    Rng rng(1337);
    for (size_t v = 0; v < vms_.size(); ++v) {
      const int64_t start = rng.UniformInt(0, 16 * 60);
      for (int i = 0; i < 40; ++i) {
        events_.push_back(MakeEvent("slow_io", start + i, vms_[v].vm_id,
                                    Severity::kCritical));
      }
      for (int i = 0; i < 12; ++i) {
        events_.push_back(MakeEvent("api_error", start + 90 + i,
                                    vms_[v].vm_id, Severity::kWarning));
      }
      if (v % 2 == 0) {
        events_.push_back(MakeEvent("vm_crash", start + 200, vms_[v].vm_id,
                                    Severity::kFatal));
        events_.push_back(MakeEvent("vm_crash", start + 230, vms_[v].vm_id,
                                    Severity::kFatal));
      }
    }
  }

  RawEvent MakeEvent(const std::string& name, int64_t minute,
                     const std::string& target, Severity level) {
    RawEvent ev;
    ev.name = name;
    ev.time = day_.start + Duration::Minutes(minute);
    ev.target = target;
    ev.level = level;
    ev.expire_interval = Duration::Hours(1);
    return ev;
  }

  std::string FreshDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  StreamingCdiEngine MakeEngine() {
    StreamingCdiOptions opts;
    opts.window = day_;
    opts.num_shards = 3;
    auto engine =
        StreamingCdiEngine::Create(&catalog_, &*weights_, opts).value();
    for (const VmServiceInfo& vm : vms_) {
      EXPECT_TRUE(engine.RegisterVm(vm).ok());
    }
    return engine;
  }

  flow::FlowClass ClassFor(const RawEvent& ev) const {
    const auto handle = catalog_.FindHandle(ev.name);
    return handle.has_value()
               ? flow::FlowClassForCategory(handle->spec->category)
               : flow::FlowClass::kPerformance;
  }

  EventCatalog catalog_;
  std::optional<EventWeightModel> weights_;
  Interval day_;
  std::vector<VmServiceInfo> vms_;
  std::vector<RawEvent> events_;
};

// --- Differential: flow control is bit-free when it does not fire -----------

class FlowDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowDifferentialTest, QueueThatKeepsUpIsBitIdenticalToDirectPath) {
  const uint64_t seed = GetParam();
  FleetSpec spec;
  spec.regions = 1;
  spec.azs_per_region = 1;
  spec.clusters_per_az = 2;
  spec.ncs_per_cluster = 3;
  spec.vms_per_nc = 5;
  const Fleet fleet = Fleet::Build(spec).value();
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"nic_flapping", 30}, {"live_migration", 5}}, 4);
  const EventWeightModel weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();
  const EventCatalog catalog = EventCatalog::BuiltIn();

  AutomationLoopOptions direct;
  direct.streaming.emplace();
  AutomationLoopOptions flow = direct;
  flow.streaming->flow = {.queue = {.capacity = 1 << 16},  // never pressed
                          .drain_per_step = 0};  // pump drains fully

  Rng rng_direct(seed), rng_flow(seed);
  auto base = RunAutomationDay(fleet, T("2026-07-01 00:00"), catalog, weights,
                               direct, &rng_direct);
  auto gated = RunAutomationDay(fleet, T("2026-07-01 00:00"), catalog,
                                weights, flow, &rng_flow);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();

  // Admission control was armed the whole day and never fired...
  EXPECT_EQ(gated->flow_stats.shed_total, 0u);
  EXPECT_EQ(gated->flow_stats.full_rejections, 0u);
  // ...and the streaming CDI is bit-identical to the direct path.
  EXPECT_EQ(gated->fleet_cdi_streaming.unavailability,
            base->fleet_cdi_streaming.unavailability);
  EXPECT_EQ(gated->fleet_cdi_streaming.performance,
            base->fleet_cdi_streaming.performance);
  EXPECT_EQ(gated->fleet_cdi_streaming.control_plane,
            base->fleet_cdi_streaming.control_plane);
  EXPECT_EQ(gated->stream_stats.events_ingested,
            base->stream_stats.events_ingested);
  EXPECT_EQ(gated->stream_stats.events_shed, 0u);
  EXPECT_EQ(gated->fleet_cdi_streaming.service_time,
            base->fleet_cdi_streaming.service_time);
  // The batch job is unaffected by the flow path either way, and the gated
  // stream equals it bit for bit.
  EXPECT_EQ(gated->fleet_cdi.performance, base->fleet_cdi.performance);
  EXPECT_EQ(gated->fleet_cdi_streaming.unavailability,
            gated->fleet_cdi.unavailability);
  EXPECT_EQ(gated->fleet_cdi_streaming.performance,
            gated->fleet_cdi.performance);
  EXPECT_EQ(gated->fleet_cdi_streaming.control_plane,
            gated->fleet_cdi.control_plane);
}

INSTANTIATE_TEST_SUITE_P(TwentyFourSeeds, FlowDifferentialTest,
                         ::testing::Range<uint64_t>(0, 24));

// --- Surge: bounded memory, graceful degradation ----------------------------

TEST_F(OverloadTest, SurgeOverloadKeepsMemoryBoundedAndUnavailabilityExact) {
  // Reference: the clean stream, no surge, no queue.
  StreamingCdiEngine reference = MakeEngine();
  for (const RawEvent& ev : events_) {
    ASSERT_TRUE(reference.Ingest(ev).ok());
  }
  const DailyCdiResult expected = reference.Snapshot().value();

  // 10x duplicate surge into a small queue with a consumer that only keeps
  // up at the base rate — a sustained 10x overcommit.
  chaos::ChaosInjector injector(chaos::SurgeBurstPlan(/*seed=*/7, 10));
  const chaos::InjectedStream surge = injector.ApplyToEvents(events_);
  ASSERT_GE(surge.arrivals.size(), events_.size() * 10);

  const long rss_before_kb = MaxRssKb();
  constexpr size_t kCapacity = 256;
  flow::BackpressureQueue queue(flow::FlowOptions{.capacity = kCapacity});
  std::map<std::string, uint64_t> shed_counts;
  queue.set_shed_callback([&](const RawEvent& ev, flow::FlowClass klass) {
    EXPECT_NE(klass, flow::FlowClass::kUnavailability);
    ++shed_counts[ev.target];
  });

  StreamingCdiEngine engine = MakeEngine();
  RawEvent out;
  size_t offered = 0;
  for (const RawEvent& ev : surge.arrivals) {
    queue.TryPush(ev, ClassFor(ev));
    // Consumer drains at ~1/10 of the surge arrival rate.
    if (++offered % 10 == 0 && queue.TryPop(&out)) {
      ASSERT_TRUE(engine.Ingest(out).ok());
    }
  }
  while (queue.TryPop(&out)) {
    ASSERT_TRUE(engine.Ingest(out).ok());
  }
  for (const auto& [target, count] : shed_counts) {
    engine.RecordShed(target, count);
  }

  const flow::ShedStats stats = queue.stats();
  // Bounded memory: the queue never grew past its capacity, and the
  // process didn't balloon absorbing a 10x surge (the ceiling is asserted
  // under ASan by the check script's overload stage).
  EXPECT_LE(stats.peak_depth, kCapacity);
  EXPECT_LT(MaxRssKb() - rss_before_kb, 256 * 1024);  // < 256 MB growth
  // Graceful degradation: most of the surge was shed...
  EXPECT_GT(stats.shed_total, 0u);
  // ...but not one unavailability event.
  EXPECT_EQ(
      stats.shed_by_class[static_cast<int>(flow::FlowClass::kUnavailability)],
      0u);

  const DailyCdiResult degraded = engine.Snapshot().value();
  ASSERT_EQ(degraded.per_vm.size(), expected.per_vm.size());
  for (size_t i = 0; i < degraded.per_vm.size(); ++i) {
    // CDI-U survives the surge bit-exactly on every VM: duplicates dedupe
    // and no U event was shed.
    EXPECT_EQ(degraded.per_vm[i].cdi.unavailability,
              expected.per_vm[i].cdi.unavailability)
        << degraded.per_vm[i].vm_id;
  }
  // Every VM that lost telemetry says so: degraded, not silently wrong.
  EXPECT_GT(degraded.quality.events_shed, 0u);
  EXPECT_TRUE(degraded.quality.degraded);
  EXPECT_GT(degraded.vms_degraded, 0u);
  for (const auto& [target, count] : shed_counts) {
    bool found = false;
    for (const auto& row : degraded.per_vm) {
      if (row.vm_id != target) continue;
      found = true;
      EXPECT_GE(row.quality.events_shed, count) << target;
      EXPECT_TRUE(row.quality.degraded) << target;
    }
    EXPECT_TRUE(found) << target;
  }
}

TEST_F(OverloadTest, SurgeOverloadInSimLoopShedsOnlySheddableClasses) {
  FleetSpec spec;
  spec.regions = 1;
  spec.azs_per_region = 1;
  spec.clusters_per_az = 2;
  spec.ncs_per_cluster = 4;
  spec.vms_per_nc = 6;
  const Fleet fleet = Fleet::Build(spec).value();
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"nic_flapping", 30}, {"live_migration", 5}}, 4);
  const EventWeightModel weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();
  const EventCatalog catalog = EventCatalog::BuiltIn();

  AutomationLoopOptions options;
  options.incident_probability = 0.5;  // a heavy day
  options.streaming.emplace().flow = {
      .queue = {.capacity = 64},  // tiny queue
      .drain_per_step = 16};      // slow consumer
  Rng rng(99);
  auto result = RunAutomationDay(fleet, T("2026-07-01 00:00"), catalog,
                                 weights, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->incidents, 0u);
  // The slow consumer forced real shedding...
  EXPECT_GT(result->flow_stats.shed_total, 0u);
  // ...bounded by the queue, never of unavailability class...
  EXPECT_LE(result->flow_stats.peak_depth, 64u);
  EXPECT_EQ(result->flow_stats.shed_by_class[static_cast<int>(
                flow::FlowClass::kUnavailability)],
            0u);
  // ...and the engine's quality accounting saw every shed.
  EXPECT_EQ(result->stream_stats.events_shed, result->flow_stats.shed_total);
}

// --- Flapping checkpoint sink: the breaker caps retry amplification ---------

TEST_F(OverloadTest, FlappingSinkTripsBreakerFastFailsThenRecovers) {
  int io_calls = 0;
  bool disk_up = false;
  CheckpointStoreOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff = Duration::Millis(1);
  opts.retry.max_backoff = Duration::Millis(2);
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown = Duration::Millis(50);
  opts.breaker.cooldown_jitter = 0.0;  // deterministic probe window
  opts.io_fault = [&](std::string_view) -> Status {
    ++io_calls;
    if (disk_up) return Status::OK();
    return Status::Unavailable("disk flapping");
  };
  auto store =
      StreamCheckpointStore::Open(FreshDir("flapping-sink"), opts).value();
  StreamingCdiEngine engine = MakeEngine();
  for (size_t i = 0; i < events_.size() / 2; ++i) {
    ASSERT_TRUE(engine.Ingest(events_[i]).ok());
  }
  const StreamCheckpoint ckpt = engine.Checkpoint();

  // First save: the retry schedule runs into the failure threshold and the
  // breaker trips open mid-retry — the remaining attempts are not spent.
  const Status first = store.Save(ckpt);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(store.breaker().state(), flow::BreakerState::kOpen);
  EXPECT_EQ(store.breaker().stats().trips, 1u);
  EXPECT_EQ(io_calls, 3);  // threshold, not max_attempts, bounded the I/O

  // While open, saves fail fast in FailedPrecondition without touching the
  // disk at all — no retry amplification against a dead sink.
  const int calls_before = io_calls;
  const Status rejected = store.Save(ckpt);
  EXPECT_TRUE(rejected.IsFailedPrecondition()) << rejected.ToString();
  EXPECT_EQ(io_calls, calls_before);
  EXPECT_GE(store.breaker().stats().rejected, 1u);

  // The disk heals and the cooldown elapses: a half-open probe goes
  // through, succeeds, and the breaker closes.
  disk_up = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const Status healed = store.Save(ckpt);
  ASSERT_TRUE(healed.ok()) << healed.ToString();
  EXPECT_EQ(store.breaker().state(), flow::BreakerState::kClosed);
  EXPECT_EQ(store.breaker().stats().closes, 1u);

  // The transitions are visible in statusz.
  const std::string statusz =
      obs::RenderStatuszText(obs::CaptureObsSnapshot());
  EXPECT_NE(statusz.find("flow.breaker.checkpoint_store.trips"),
            std::string::npos);
  EXPECT_NE(statusz.find("flow.breaker.checkpoint_store.state"),
            std::string::npos);
}

TEST_F(OverloadTest, FlappingSinkPresetBreakerBoundsTotalIoAttempts) {
  // The chaos preset drives the same path nondeterministically: whatever
  // the flap pattern, the breaker guarantees an upper bound on physical
  // attempts per save once open.
  chaos::ChaosInjector injector(chaos::FlappingSinkPlan(/*seed=*/11, 0.9));
  int io_calls = 0;
  CheckpointStoreOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff = Duration::Millis(1);
  opts.retry.max_backoff = Duration::Millis(2);
  opts.breaker.failure_threshold = 2;
  opts.breaker.cooldown = Duration::Seconds(30);  // stays open for the test
  opts.io_fault = [&](std::string_view op) -> Status {
    ++io_calls;
    return injector.MaybeFailIo(op);
  };
  auto store =
      StreamCheckpointStore::Open(FreshDir("flapping-preset"), opts).value();
  StreamingCdiEngine engine = MakeEngine();
  const StreamCheckpoint ckpt = engine.Checkpoint();

  int saves_attempted = 0;
  int saves_ok = 0;
  for (int i = 0; i < 10; ++i) {
    ++saves_attempted;
    if (store.Save(ckpt).ok()) ++saves_ok;
    if (store.breaker().state() == flow::BreakerState::kOpen) break;
  }
  // At p=0.9 failure the breaker must have opened quickly; the total I/O
  // spent is a handful of attempts, not saves * max_attempts.
  EXPECT_EQ(store.breaker().state(), flow::BreakerState::kOpen);
  EXPECT_LE(io_calls, saves_attempted * opts.retry.max_attempts);
  EXPECT_GE(store.breaker().stats().trips, 1u);
  // And once open, further saves cost zero I/O.
  const int before = io_calls;
  EXPECT_TRUE(store.Save(ckpt).IsFailedPrecondition());
  EXPECT_EQ(io_calls, before);
  (void)saves_ok;
}

// --- Watchdog: recovery by detection ----------------------------------------

TEST_F(OverloadTest, WatchdogDetectsCrashedEngineAndRestoresFromCheckpoint) {
  FleetSpec spec;
  spec.regions = 1;
  spec.azs_per_region = 1;
  spec.clusters_per_az = 2;
  spec.ncs_per_cluster = 4;
  spec.vms_per_nc = 6;
  const Fleet fleet = Fleet::Build(spec).value();
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"nic_flapping", 30}, {"live_migration", 5}}, 4);
  const EventWeightModel weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();
  const EventCatalog catalog = EventCatalog::BuiltIn();

  AutomationLoopOptions supervised;
  supervised.streaming.emplace();
  supervised.streaming->supervisor = {
      .checkpoint_dir = FreshDir("watchdog-loop"),
      .crashes = 1,
      .watchdog_stall_timeout = Duration::Minutes(30)};
  // Buffer the whole outage.
  supervised.streaming->flow = {.queue = {.capacity = 1 << 16}};
  supervised.incident_probability = 0.3;  // enough incidents after the crash
  Rng rng(5);
  auto result = RunAutomationDay(fleet, T("2026-07-01 00:00"), catalog,
                                 weights, supervised, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->crashes_injected, 1u);
  // The crash was detected by heartbeat silence, not scripted restore...
  EXPECT_GE(result->watchdog_stalls, 1u);
  EXPECT_GE(result->watchdog_recoveries, 1u);
  EXPECT_GE(result->restores_completed, 1u);
  // ...nothing was lost while the engine was down...
  EXPECT_EQ(result->flow_stats.shed_total, 0u);
  // ...the day ends bit-exactly on the batch job's answer...
  EXPECT_EQ(result->fleet_cdi_streaming.unavailability,
            result->fleet_cdi.unavailability);
  EXPECT_EQ(result->fleet_cdi_streaming.performance,
            result->fleet_cdi.performance);
  EXPECT_EQ(result->fleet_cdi_streaming.control_plane,
            result->fleet_cdi.control_plane);
  EXPECT_EQ(result->fleet_cdi_streaming.service_time,
            result->fleet_cdi.service_time);

  // ...and exactly where an uninterrupted streaming run ends.
  AutomationLoopOptions plain;
  plain.streaming.emplace();
  plain.incident_probability = supervised.incident_probability;
  Rng rng_plain(5);
  auto baseline = RunAutomationDay(fleet, T("2026-07-01 00:00"), catalog,
                                   weights, plain, &rng_plain);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(result->fleet_cdi_streaming.unavailability,
            baseline->fleet_cdi_streaming.unavailability);
  EXPECT_EQ(result->fleet_cdi_streaming.performance,
            baseline->fleet_cdi_streaming.performance);
  EXPECT_EQ(result->fleet_cdi_streaming.control_plane,
            baseline->fleet_cdi_streaming.control_plane);
}

TEST_F(OverloadTest, FlowOptionValidation) {
  FleetSpec spec;
  spec.regions = 1;
  spec.azs_per_region = 1;
  spec.clusters_per_az = 1;
  spec.ncs_per_cluster = 2;
  spec.vms_per_nc = 2;
  const Fleet fleet = Fleet::Build(spec).value();
  auto ticket = TicketRankModel::FromCounts({{"slow_io", 100}}, 4);
  const EventWeightModel weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(1);

  AutomationLoopOptions no_flow;
  no_flow.streaming.emplace().supervisor = {
      .checkpoint_dir = FreshDir("watchdog-no-flow"),
      .watchdog_stall_timeout = Duration::Minutes(30)};  // but no flow queue
  EXPECT_TRUE(RunAutomationDay(fleet, T("2026-07-01 00:00"), catalog, weights,
                               no_flow, &rng)
                  .status()
                  .IsInvalidArgument());
}

// --- Deadlines: partial-but-honest everywhere -------------------------------

TEST_F(OverloadTest, ExpiredDeadlineDefersDailyJobVms) {
  EventLog log;
  for (const RawEvent& ev : events_) log.Append(ev);

  DailyCdiJob::Options jopts;
  jopts.log = &log;
  jopts.catalog = &catalog_;
  jopts.weights = &*weights_;
  jopts.deadline = Deadline::After(Duration::Zero());  // already expired
  const DailyCdiJob job(jopts);
  auto result = job.Run(vms_, day_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Nothing computed, everything deferred, honestly reported.
  EXPECT_EQ(result->vms_deferred, vms_.size());
  EXPECT_EQ(result->vms_evaluated, 0u);
  EXPECT_TRUE(result->per_vm.empty());
  EXPECT_EQ(result->vms_failed, 0u);

  // The same job with an infinite deadline computes everything.
  jopts.deadline = Deadline::Infinite();
  auto full = DailyCdiJob(jopts).Run(vms_, day_);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->vms_deferred, 0u);
  EXPECT_EQ(full->vms_evaluated, vms_.size());

  // A pooled job whose deadline expires mid-run. Chunks finish out of
  // order on four threads, so the evaluated VMs are not a prefix of the
  // fleet; still, every VM is counted exactly once, the rows are the
  // evaluated VMs in input order, and the fleet value folds exactly those
  // rows. Every 10th VM lies outside the day and is skipped unless
  // deferred first.
  std::vector<VmServiceInfo> fleet;
  std::set<std::string> outside;
  EventLog fleet_log;
  for (int v = 0; v < 2048; ++v) {
    const VmServiceInfo& like = vms_[v % vms_.size()];
    VmServiceInfo vm = like;
    vm.vm_id = "fleet-" + std::to_string(v);
    if (v % 10 == 9) {
      vm.service_period = Interval(day_.start - Duration::Days(2),
                                   day_.start - Duration::Days(1));
      outside.insert(vm.vm_id);
    }
    for (const RawEvent& ev : events_) {
      if (ev.target != like.vm_id) continue;
      RawEvent copy = ev;
      copy.target = vm.vm_id;
      fleet_log.Append(copy);
    }
    fleet.push_back(std::move(vm));
  }
  ThreadPool pool(4);
  jopts.log = &fleet_log;
  jopts.pool = &pool;
  // The deadline grows until one run ends partway: some VMs evaluated and
  // some deferred.
  bool saw_partial = false;
  for (int ms = 1; ms <= 5000 && !saw_partial; ms += 1 + ms / 2) {
    jopts.deadline = Deadline::After(Duration::Millis(ms));
    auto run = DailyCdiJob(jopts).Run(fleet, day_);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string what = "deadline " + std::to_string(ms) + " ms";
    EXPECT_EQ(run->vms_evaluated + run->vms_skipped + run->vms_failed +
                  run->vms_deferred,
              fleet.size())
        << what;
    ASSERT_EQ(run->per_vm.size(), run->vms_evaluated) << what;
    FleetCdiPartial fold;
    size_t next = 0;
    for (const VmCdiRecord& row : run->per_vm) {
      EXPECT_EQ(outside.count(row.vm_id), 0u) << what << " " << row.vm_id;
      while (next < fleet.size() && fleet[next].vm_id != row.vm_id) ++next;
      ASSERT_LT(next, fleet.size())
          << what << ": " << row.vm_id << " is out of input order";
      ++next;
      fold.AddVm(row.cdi);
    }
    const VmCdi want = fold.Finalize();
    EXPECT_EQ(run->fleet.unavailability, want.unavailability) << what;
    EXPECT_EQ(run->fleet.performance, want.performance) << what;
    EXPECT_EQ(run->fleet.control_plane, want.control_plane) << what;
    EXPECT_EQ(run->fleet.service_time, want.service_time) << what;
    if (run->vms_deferred == 0) break;  // the whole job beat the deadline
    saw_partial = run->vms_evaluated > 0;
  }
  EXPECT_TRUE(saw_partial) << "no deadline expired mid-run";
}

TEST_F(OverloadTest, PreviewDeadlineDefersDirtyVmsWithoutLosingThem) {
  StreamingCdiEngine engine = MakeEngine();
  for (const RawEvent& ev : events_) {
    ASSERT_TRUE(engine.Ingest(ev).ok());
  }
  // Expired budget: every dirty VM is deferred and stays dirty.
  auto partial = engine.Preview(Deadline::After(Duration::Zero()));
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->vms_deferred, vms_.size());
  EXPECT_TRUE(partial->per_vm.empty());  // no stale rows exist yet

  // A later unconstrained snapshot recomputes the deferred VMs: deferral
  // cost latency, never data.
  auto complete = engine.Snapshot();
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(complete->vms_deferred, 0u);
  EXPECT_EQ(complete->per_vm.size(), vms_.size());

  StreamingCdiEngine reference = MakeEngine();
  for (const RawEvent& ev : events_) {
    ASSERT_TRUE(reference.Ingest(ev).ok());
  }
  const DailyCdiResult expected = reference.Snapshot().value();
  ASSERT_EQ(complete->per_vm.size(), expected.per_vm.size());
  for (size_t i = 0; i < complete->per_vm.size(); ++i) {
    EXPECT_EQ(complete->per_vm[i].cdi.performance,
              expected.per_vm[i].cdi.performance)
        << complete->per_vm[i].vm_id;
  }
}

TEST_F(OverloadTest, PreviewAfterSnapshotServesStaleRowsForDeferredVms) {
  StreamingCdiEngine engine = MakeEngine();
  for (size_t i = 0; i < events_.size() / 2; ++i) {
    ASSERT_TRUE(engine.Ingest(events_[i]).ok());
  }
  ASSERT_TRUE(engine.Snapshot().ok());  // every VM now has an output row
  for (size_t i = events_.size() / 2; i < events_.size(); ++i) {
    ASSERT_TRUE(engine.Ingest(events_[i]).ok());
  }
  auto stale = engine.Preview(Deadline::After(Duration::Zero()));
  ASSERT_TRUE(stale.ok());
  // Deferred VMs are reported, but their last-known rows still serve.
  EXPECT_GT(stale->vms_deferred, 0u);
  EXPECT_EQ(stale->per_vm.size(), vms_.size());
}

TEST_F(OverloadTest, SaveDeadlineStopsRetryingASickDisk) {
  int io_calls = 0;
  CheckpointStoreOptions opts;
  opts.retry.max_attempts = 10;
  opts.retry.initial_backoff = Duration::Millis(5);
  opts.io_fault = [&](std::string_view) -> Status {
    ++io_calls;
    return Status::Unavailable("sick disk");
  };
  auto store =
      StreamCheckpointStore::Open(FreshDir("deadline-save"), opts).value();
  StreamingCdiEngine engine = MakeEngine();
  // An already-expired budget permits exactly one attempt — the schedule's
  // other nine never run.
  const Status st =
      store.Save(engine.Checkpoint(), Deadline::After(Duration::Zero()));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(io_calls, 1);
}

}  // namespace
}  // namespace cdibot
