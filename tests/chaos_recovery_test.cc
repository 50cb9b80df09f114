// Crash-and-restore suite: a streaming engine killed mid-day and revived
// from its checkpoint store must finish the day as if nothing happened —
// same CDI as an uninterrupted run, continuous counters, and degraded-mode
// accounting (quarantine + delivery manifests) intact. Corruption of the
// newest checkpoint generation must fall back to the previous one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cdi/pipeline.h"
#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/rng.h"
#include "sim/cloudbot_loop.h"
#include "storage/checkpoint_store.h"
#include "stream/streaming_engine.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

class ChaosRecoveryTest : public ::testing::Test {
 protected:
  ChaosRecoveryTest() : catalog_(EventCatalog::BuiltIn()) {
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"packet_loss", 60}, {"vcpu_high", 40}}, 4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
    day_ = Interval(T("2026-05-22 00:00"), T("2026-05-23 00:00"));
    for (int v = 0; v < 6; ++v) {
      VmServiceInfo vm;
      vm.vm_id = "vm-" + std::to_string(v);
      vm.dims = {{"region", "r0"}};
      vm.service_period = day_;
      vms_.push_back(vm);
    }
    Rng rng(404);
    const char* names[] = {"slow_io", "packet_loss", "vcpu_high"};
    for (const VmServiceInfo& vm : vms_) {
      const int64_t start = rng.UniformInt(0, 18 * 60);
      const int len = static_cast<int>(rng.UniformInt(10, 60));
      const char* name = names[rng.UniformInt(0, 2)];
      for (int i = 0; i < len; ++i) {
        RawEvent ev;
        ev.name = name;
        ev.time = day_.start + Duration::Minutes(start + i);
        ev.target = vm.vm_id;
        ev.level = Severity::kCritical;
        ev.expire_interval = Duration::Hours(24);
        events_.push_back(std::move(ev));
      }
    }
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

  StreamingCdiOptions RestoreOptions() {
    StreamingCdiOptions opts;
    opts.window = day_;
    opts.num_shards = 3;
    return opts;
  }

  EventCatalog catalog_;
  std::optional<EventWeightModel> weights_;
  Interval day_;
  std::vector<VmServiceInfo> vms_;
  std::vector<RawEvent> events_;
};

TEST_F(ChaosRecoveryTest, KillAndRestoreMidDayMatchesUninterruptedRun) {
  // Reference: one engine sees the whole day.
  StreamingCdiEngine reference = MakeEngine();
  for (const RawEvent& ev : events_) {
    ASSERT_TRUE(reference.Ingest(ev).ok());
  }
  const DailyCdiResult expected = reference.Snapshot().value();

  // Supervised run: crash after half the stream, restore from the store.
  auto store =
      StreamCheckpointStore::Open(FreshDir("recovery-midday")).value();
  std::optional<StreamingCdiEngine> engine(MakeEngine());
  const size_t half = events_.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine->Ingest(events_[i]).ok());
  }
  ASSERT_TRUE(store.Save(engine->Checkpoint()).ok());
  engine.reset();  // the crash: all in-memory state gone

  auto loaded = store.LoadLastGood();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  engine.emplace(StreamingCdiEngine::Restore(*loaded, &catalog_, &*weights_,
                                             RestoreOptions())
                     .value());
  for (size_t i = half; i < events_.size(); ++i) {
    ASSERT_TRUE(engine->Ingest(events_[i]).ok());
  }
  const DailyCdiResult actual = engine->Snapshot().value();

  // Counters are continuous across the crash...
  EXPECT_EQ(engine->stats().events_ingested, events_.size());
  // ...and the day's result is what the uninterrupted engine computed.
  ASSERT_EQ(actual.per_vm.size(), expected.per_vm.size());
  for (size_t i = 0; i < actual.per_vm.size(); ++i) {
    EXPECT_EQ(actual.per_vm[i].vm_id, expected.per_vm[i].vm_id);
    EXPECT_EQ(actual.per_vm[i].cdi.unavailability,
              expected.per_vm[i].cdi.unavailability);
    EXPECT_EQ(actual.per_vm[i].cdi.performance,
              expected.per_vm[i].cdi.performance);
    EXPECT_FALSE(actual.per_vm[i].quality.degraded);
  }
  EXPECT_EQ(actual.vms_failed, 0u);
  EXPECT_EQ(actual.vms_degraded, 0u);
}

TEST_F(ChaosRecoveryTest, CorruptNewestSlotFallsBackToPrevious) {
  auto store =
      StreamCheckpointStore::Open(FreshDir("recovery-fallback")).value();
  StreamingCdiEngine engine = MakeEngine();

  const size_t third = events_.size() / 3;
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(engine.Ingest(events_[i]).ok());
  }
  const StreamCheckpoint first = engine.Checkpoint();
  ASSERT_TRUE(store.Save(first).ok());
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(engine.Ingest(events_[i]).ok());
  }
  ASSERT_TRUE(store.Save(engine.Checkpoint()).ok());

  // Torn write hits the newest generation: corrupt its file the way a
  // partial sync would.
  const std::vector<std::string> slots = store.ListSlots();
  ASSERT_EQ(slots.size(), 2u);
  chaos::ChaosInjector injector(chaos::MalformPlan(5));
  ASSERT_TRUE(
      injector.CorruptFile(store.root() + "/" + slots.back()).ok());

  int slots_skipped = 0;
  auto loaded = store.LoadLastGood(&slots_skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(slots_skipped, 1);
  // The survivor is the FIRST checkpoint, not the corrupted second one.
  EXPECT_EQ(loaded->events_ingested, first.events_ingested);
  EXPECT_EQ(loaded->events.size(), first.events.size());

  // The restored engine finishes the day from the older generation: the
  // events between the two checkpoints are re-delivered (at-least-once
  // replay), which the resolver dedups away.
  auto restored = StreamingCdiEngine::Restore(*loaded, &catalog_, &*weights_,
                                              RestoreOptions());
  ASSERT_TRUE(restored.ok());
  for (size_t i = third; i < events_.size(); ++i) {
    ASSERT_TRUE(restored->Ingest(events_[i]).ok());
  }
  const DailyCdiResult after = restored->Snapshot().value();
  EXPECT_EQ(after.vms_failed, 0u);

  StreamingCdiEngine reference = MakeEngine();
  for (const RawEvent& ev : events_) {
    ASSERT_TRUE(reference.Ingest(ev).ok());
  }
  const DailyCdiResult expected = reference.Snapshot().value();
  ASSERT_EQ(after.per_vm.size(), expected.per_vm.size());
  for (size_t i = 0; i < after.per_vm.size(); ++i) {
    EXPECT_EQ(after.per_vm[i].cdi.performance,
              expected.per_vm[i].cdi.performance)
        << after.per_vm[i].vm_id;
  }
}

TEST_F(ChaosRecoveryTest, AllSlotsCorruptReportsTheCorruption) {
  auto store =
      StreamCheckpointStore::Open(FreshDir("recovery-hopeless")).value();
  StreamingCdiEngine engine = MakeEngine();
  ASSERT_TRUE(store.Save(engine.Checkpoint()).ok());
  ASSERT_TRUE(store.Save(engine.Checkpoint()).ok());
  for (const std::string& slot : store.ListSlots()) {
    std::ofstream(store.root() + "/" + slot, std::ios::trunc)
        << "not a checkpoint\n";
  }
  // Every generation is damaged: the caller gets the corruption status, not
  // a bland NotFound — "your checkpoints are destroyed" and "you never
  // checkpointed" demand different operator responses.
  int skipped = 0;
  auto loaded = store.LoadLastGood(&skipped);
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 2);
}

TEST_F(ChaosRecoveryTest, EmptyStoreIsNotFound) {
  auto store =
      StreamCheckpointStore::Open(FreshDir("recovery-empty")).value();
  EXPECT_TRUE(store.LoadLastGood().status().IsNotFound());
}

TEST_F(ChaosRecoveryTest, DegradedModeAccountingSurvivesRestart) {
  auto store =
      StreamCheckpointStore::Open(FreshDir("recovery-quality")).value();
  std::optional<StreamingCdiEngine> engine(MakeEngine());

  // vm-0's collector announces more than it delivers, and one of its
  // events arrives malformed.
  engine->ExpectDelivery("vm-0", 5);
  RawEvent good;
  good.name = "slow_io";
  good.time = day_.start + Duration::Minutes(10);
  good.target = "vm-0";
  good.level = Severity::kCritical;
  good.expire_interval = Duration::Hours(1);
  ASSERT_TRUE(engine->Ingest(good).ok());
  RawEvent bad = good;
  bad.name.clear();  // quarantined: kEmptyName
  bad.time = day_.start + Duration::Minutes(11);
  ASSERT_TRUE(engine->Ingest(bad).ok());
  EXPECT_EQ(engine->quarantine().total(), 1u);

  ASSERT_TRUE(store.Save(engine->Checkpoint()).ok());
  engine.reset();
  auto loaded = store.LoadLastGood();
  ASSERT_TRUE(loaded.ok());
  engine.emplace(StreamingCdiEngine::Restore(*loaded, &catalog_, &*weights_,
                                             RestoreOptions())
                     .value());

  // The revived engine still knows vm-0 is impaired: the quarantine count
  // and the delivery shortfall crossed the restart.
  EXPECT_EQ(engine->quarantine().total(), 1u);
  const DailyCdiResult snap = engine->Snapshot().value();
  bool found = false;
  for (const VmCdiRecord& rec : snap.per_vm) {
    if (rec.vm_id != "vm-0") continue;
    found = true;
    EXPECT_TRUE(rec.quality.degraded);
    EXPECT_EQ(rec.quality.events_quarantined, 1u);
    // Announced 5, delivered 2 (one good + one malformed): 3 missing.
    EXPECT_EQ(rec.quality.events_missing, 3u);
  }
  EXPECT_TRUE(found);
  EXPECT_GE(snap.vms_degraded, 1u);
}

class SupervisedLoopTest : public ::testing::Test {
 protected:
  SupervisedLoopTest() : catalog_(EventCatalog::BuiltIn()) {
    FleetSpec spec;
    spec.regions = 1;
    spec.azs_per_region = 1;
    spec.clusters_per_az = 2;
    spec.ncs_per_cluster = 4;
    spec.vms_per_nc = 6;
    fleet_.emplace(Fleet::Build(spec).value());
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"nic_flapping", 30}, {"live_migration", 5}}, 4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
  }

  EventCatalog catalog_;
  std::optional<Fleet> fleet_;
  std::optional<EventWeightModel> weights_;
};

TEST_F(SupervisedLoopTest, SupervisorOptionsAreValidated) {
  Rng rng(1);
  AutomationLoopOptions options;
  options.streaming.emplace().supervisor.emplace();  // no checkpoint_dir
  EXPECT_TRUE(RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                               *weights_, options, &rng)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SupervisedLoopTest, CrashInjectedLoopStillMatchesBatch) {
  const std::string dir = ::testing::TempDir() + "/supervised-loop";
  std::filesystem::remove_all(dir);

  AutomationLoopOptions options;
  options.streaming.emplace().supervisor = {.checkpoint_dir = dir,
                                            .crashes = 2};
  options.incident_probability = 0.3;
  Rng rng(42);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->incidents, 2u);

  // One checkpoint per incident; the supervisor crashed the engine and
  // brought it back every time.
  EXPECT_EQ(result->checkpoints_saved, result->incidents);
  EXPECT_EQ(result->crashes_injected, 2u);
  EXPECT_EQ(result->restores_completed, 2u);

  // Crash-restore did not change the answer: the streaming CDI still
  // equals the batch job over the same day, bit for bit.
  EXPECT_EQ(result->fleet_cdi_streaming.performance,
            result->fleet_cdi.performance);
  EXPECT_EQ(result->fleet_cdi_streaming.unavailability,
            result->fleet_cdi.unavailability);
  EXPECT_EQ(result->fleet_cdi_streaming.control_plane,
            result->fleet_cdi.control_plane);
  EXPECT_EQ(result->fleet_cdi_streaming.service_time,
            result->fleet_cdi.service_time);
}

}  // namespace
}  // namespace cdibot
