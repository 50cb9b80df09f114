// Unit tests of StreamingCdiEngine internals the differential suite does
// not pin directly: watermark/lateness accounting, orphan adoption,
// out-of-window rejection, incremental-recompute bookkeeping, the
// checkpoint round trip through src/storage, and the single state-transfer
// path shared by Checkpoint/Restore and ExtractRange/InstallVms.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cdi/monitor.h"
#include "storage/stream_checkpoint.h"
#include "stream/streaming_engine.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

class StreamEngineTest : public ::testing::Test {
 protected:
  StreamEngineTest() : catalog_(EventCatalog::BuiltIn()) {
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"packet_loss", 60}, {"vcpu_high", 40},
         {"vm_start_failed", 20}},
        4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
    day_ = Interval(T("2026-03-10 00:00"), T("2026-03-11 00:00"));
  }

  StreamingCdiEngine MakeEngine(Duration lateness = Duration::Minutes(5)) {
    StreamingCdiOptions opts;
    opts.window = day_;
    opts.allowed_lateness = lateness;
    opts.num_shards = 4;
    return StreamingCdiEngine::Create(&catalog_, &*weights_, opts).value();
  }

  VmServiceInfo Vm(const std::string& id) const {
    return VmServiceInfo{.vm_id = id,
                         .dims = {{"region", "r0"}},
                         .service_period = day_};
  }

  RawEvent SlowIo(const std::string& vm, int64_t minute) const {
    RawEvent ev;
    ev.name = "slow_io";
    ev.time = day_.start + Duration::Minutes(minute);
    ev.target = vm;
    ev.level = Severity::kCritical;
    ev.expire_interval = Duration::Hours(24);
    return ev;
  }

  /// The state-transfer fixture: registered VMs vm-a..vm-e with events,
  /// an orphan for the unregistered vm-c2, a delivery manifest with a
  /// shortfall on vm-b, a malformed event as vm-c's only arrival, sheds on
  /// vm-b and vm-d, and an event with no target (quarantined, no row).
  void Feed(StreamingCdiEngine& engine) const {
    for (const char* id : {"vm-a", "vm-b", "vm-c", "vm-d", "vm-e"}) {
      ASSERT_TRUE(engine.RegisterVm(Vm(id)).ok());
    }
    for (const char* id : {"vm-a", "vm-b", "vm-d", "vm-e"}) {
      ASSERT_TRUE(engine.Ingest(SlowIo(id, 60)).ok());
      ASSERT_TRUE(engine.Ingest(SlowIo(id, 400)).ok());
    }
    ASSERT_TRUE(engine.Ingest(SlowIo("vm-c2", 90)).ok());
    engine.ExpectDelivery("vm-b", 5);
    RawEvent nameless = SlowIo("vm-c", 30);
    nameless.name.clear();
    ASSERT_TRUE(engine.Ingest(nameless).ok());
    RawEvent untargeted = SlowIo("", 30);
    ASSERT_TRUE(engine.Ingest(untargeted).ok());
    engine.RecordShed("vm-b", 3);
    engine.RecordShed("vm-d", 2);
  }

  /// Per-VM rows with their CDI and data quality, for EXPECT_EQ.
  using Row = std::tuple<std::string, double, double, double, int64_t,
                         uint64_t, uint64_t, uint64_t, bool>;
  static std::vector<Row> Rows(const DailyCdiResult& result) {
    std::vector<Row> rows;
    for (const VmCdiRecord& r : result.per_vm) {
      rows.emplace_back(r.vm_id, r.cdi.unavailability, r.cdi.performance,
                        r.cdi.control_plane, r.cdi.service_time.millis(),
                        r.quality.events_quarantined, r.quality.events_missing,
                        r.quality.events_shed, r.quality.degraded);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  StatusOr<StreamingCdiEngine> SaveLoadRestore(
      const StreamingCdiEngine& engine) {
    // Per-process file: a shared name in TempDir() collides with other test
    // processes doing the same.
    const std::string path = ::testing::TempDir() + "/stream_engine_ckpt_" +
                             std::to_string(::getpid());
    CDIBOT_RETURN_IF_ERROR(SaveStreamCheckpoint(engine.Checkpoint(), path));
    auto loaded = LoadStreamCheckpoint(path);
    std::filesystem::remove(path);
    CDIBOT_RETURN_IF_ERROR(loaded.status());
    return StreamingCdiEngine::Restore(*loaded, &catalog_, &*weights_,
                                       StreamingCdiOptions{.window = day_});
  }

  EventCatalog catalog_;
  std::optional<EventWeightModel> weights_;
  Interval day_;
};

TEST_F(StreamEngineTest, CreateRejectsBadOptions) {
  StreamingCdiOptions opts;  // empty window
  EXPECT_FALSE(
      StreamingCdiEngine::Create(&catalog_, &*weights_, opts).ok());
  opts.window = day_;
  opts.allowed_lateness = Duration::Minutes(-1);
  EXPECT_FALSE(
      StreamingCdiEngine::Create(&catalog_, &*weights_, opts).ok());
  EXPECT_FALSE(StreamingCdiEngine::Create(nullptr, &*weights_,
                                          StreamingCdiOptions{.window = day_})
                   .ok());
}

TEST_F(StreamEngineTest, WatermarkTrailsMaxEventTime) {
  auto engine = MakeEngine(Duration::Minutes(5));
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-1")).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 600)).ok());
  EXPECT_EQ(engine.watermark(),
            day_.start + Duration::Minutes(600) - Duration::Minutes(5));
  // An event behind the watermark counts as late but is still applied.
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 100)).ok());
  EXPECT_EQ(engine.stats().events_late, 1u);
  // The watermark never regresses.
  EXPECT_EQ(engine.watermark(),
            day_.start + Duration::Minutes(595));
  engine.AdvanceWatermarkTo(day_.start + Duration::Minutes(50));
  EXPECT_EQ(engine.watermark(), day_.start + Duration::Minutes(595));
  engine.AdvanceWatermarkTo(day_.end);
  EXPECT_EQ(engine.watermark(), day_.end);
}

TEST_F(StreamEngineTest, LateEventStillRevisesTheVm) {
  auto engine = MakeEngine(Duration::Millis(0));
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-1")).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 1200)).ok());
  const double before = engine.FleetCdi().value().performance;
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 300)).ok());  // late
  const double after = engine.FleetCdi().value().performance;
  EXPECT_EQ(engine.stats().events_late, 1u);
  EXPECT_GT(after, before);
}

TEST_F(StreamEngineTest, OutOfWindowEventsAreDropped) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-1")).ok());
  RawEvent far = SlowIo("vm-1", 0);
  far.time = day_.start - Duration::Days(2);
  ASSERT_TRUE(engine.Ingest(far).ok());
  far.time = day_.end + Duration::Days(2);
  ASSERT_TRUE(engine.Ingest(far).ok());
  EXPECT_EQ(engine.stats().events_out_of_window, 2u);
  EXPECT_DOUBLE_EQ(engine.FleetCdi().value().performance, 0.0);
}

TEST_F(StreamEngineTest, OrphanEventsAdoptedOnRegistration) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-9", 100)).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-9", 101)).ok());
  EXPECT_EQ(engine.stats().events_orphaned, 2u);
  EXPECT_EQ(engine.num_vms(), 0u);
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-9")).ok());
  auto snap = engine.Snapshot().value();
  ASSERT_EQ(snap.per_vm.size(), 1u);
  EXPECT_GT(snap.per_vm[0].cdi.performance, 0.0);
}

TEST_F(StreamEngineTest, OnlyDirtyVmsAreRecomputed) {
  auto engine = MakeEngine();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.RegisterVm(Vm("vm-" + std::to_string(i))).ok());
  }
  (void)engine.FleetCdi().value();
  EXPECT_EQ(engine.stats().vms_recomputed, 10u);
  // A quiet stream: refreshing the fleet CDI recomputes nothing.
  (void)engine.FleetCdi().value();
  EXPECT_EQ(engine.stats().vms_recomputed, 10u);
  // One event dirties exactly one VM.
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-3", 60)).ok());
  (void)engine.FleetCdi().value();
  EXPECT_EQ(engine.stats().vms_recomputed, 11u);
}

TEST_F(StreamEngineTest, ReRegistrationShrinksServiceWindow) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-1")).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 60)).ok());
  const Duration full = engine.Snapshot().value().fleet_service_time;
  EXPECT_EQ(full, Duration::Days(1));
  // VM released at noon: window shrinks, service time follows.
  VmServiceInfo shrunk = Vm("vm-1");
  shrunk.service_period =
      Interval(day_.start, day_.start + Duration::Hours(12));
  ASSERT_TRUE(engine.RegisterVm(shrunk).ok());
  EXPECT_EQ(engine.Snapshot().value().fleet_service_time,
            Duration::Hours(12));
}

TEST_F(StreamEngineTest, CheckpointRoundTripPreservesState) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-1")).ok());
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-2")).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 60)).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 61)).ok());
  ASSERT_TRUE(engine.Ingest(SlowIo("vm-orphan", 70)).ok());
  RawEvent junk = SlowIo("vm-1", 0);
  junk.time = day_.start - Duration::Days(2);
  ASSERT_TRUE(engine.Ingest(junk).ok());
  const VmCdi before = engine.FleetCdi().value();

  // Per-process file: a shared name in TempDir() collides with other test
  // processes doing the same.
  const std::string path = ::testing::TempDir() + "/stream_engine_ckpt_" +
                           std::to_string(::getpid());
  ASSERT_TRUE(SaveStreamCheckpoint(engine.Checkpoint(), path).ok());
  auto loaded = LoadStreamCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->vms.size(), 2u);
  EXPECT_EQ(loaded->events.size(), 2u);
  EXPECT_EQ(loaded->orphan_events.size(), 1u);

  StreamingCdiOptions opts;
  opts.window = day_;
  auto restored =
      StreamingCdiEngine::Restore(*loaded, &catalog_, &*weights_, opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Same watermark, same counters, same fleet CDI.
  EXPECT_EQ(restored->watermark(), engine.watermark());
  EXPECT_EQ(restored->stats().events_ingested,
            engine.stats().events_ingested);
  EXPECT_EQ(restored->stats().events_out_of_window, 1u);
  EXPECT_EQ(restored->stats().events_orphaned, 1u);
  const VmCdi after = restored->FleetCdi().value();
  EXPECT_DOUBLE_EQ(before.performance, after.performance);
  // The restored engine keeps streaming: the orphan's VM shows up late.
  ASSERT_TRUE(restored->RegisterVm(Vm("vm-orphan")).ok());
  EXPECT_EQ(restored->Snapshot().value().per_vm.size(), 3u);
}

TEST_F(StreamEngineTest, ShedSurvivesCheckpointRestore) {
  auto engine = MakeEngine();
  Feed(engine);
  auto restored = SaveLoadRestore(engine);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stats().events_shed, 5u);
  EXPECT_EQ(restored->stats().events_shed, engine.stats().events_shed);
  const DailyCdiResult before = engine.Snapshot().value();
  const DailyCdiResult after = restored->Snapshot().value();
  EXPECT_EQ(Rows(after), Rows(before));
  EXPECT_EQ(after.quality.events_shed, before.quality.events_shed);
  EXPECT_EQ(after.quality.events_missing, before.quality.events_missing);
  EXPECT_EQ(after.quality.events_quarantined,
            before.quality.events_quarantined);
  // A second round trip neither loses nor doubles the accounting.
  auto again = SaveLoadRestore(*restored);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Rows(again->Snapshot().value()), Rows(before));
  EXPECT_EQ(again->stats().events_shed, 5u);
}

TEST_F(StreamEngineTest, CheckpointEqualsWholeRangeExtract) {
  auto kept = MakeEngine();
  auto drained = MakeEngine();
  Feed(kept);
  Feed(drained);
  // Resident outputs exercise the retraction on the extract side.
  ASSERT_TRUE(kept.Snapshot().ok());
  ASSERT_TRUE(drained.Snapshot().ok());
  const StreamCheckpoint ckpt = kept.Checkpoint();
  const StreamCheckpoint frag = drained.ExtractRange("", std::nullopt);
  EXPECT_EQ(ckpt.vms, frag.vms);
  EXPECT_EQ(ckpt.events, frag.events);
  EXPECT_EQ(ckpt.orphan_events, frag.orphan_events);
  EXPECT_EQ(ckpt.target_quality, frag.target_quality);
  EXPECT_EQ(ckpt.watermark, frag.watermark);
  EXPECT_EQ(ckpt.max_event_time, frag.max_event_time);
  EXPECT_EQ(ckpt.vms.size(), 5u);
  EXPECT_EQ(ckpt.orphan_events.size(), 1u);
  // Rows are sorted by target, one per target.
  EXPECT_TRUE(std::is_sorted(
      ckpt.target_quality.begin(), ckpt.target_quality.end(),
      [](const CheckpointTargetQuality& a, const CheckpointTargetQuality& b) {
        return a.target < b.target;
      }));
  // The checkpoint is non-destructive; the extract empties the engine.
  EXPECT_EQ(kept.num_vms(), 5u);
  EXPECT_EQ(drained.num_vms(), 0u);
  EXPECT_TRUE(drained.Checkpoint().target_quality.empty());
  EXPECT_EQ(drained.FleetCdi().value().performance, 0.0);
}

TEST_F(StreamEngineTest, ExtractInstallPreservesUnion) {
  auto source = MakeEngine();
  auto reference = MakeEngine();
  Feed(source);
  Feed(reference);
  ASSERT_TRUE(source.Snapshot().ok());
  auto dest = MakeEngine();
  const StreamCheckpoint frag = source.ExtractRange("vm-b", "vm-d");
  EXPECT_EQ(frag.vms.size(), 2u);  // vm-b, vm-c
  EXPECT_EQ(frag.orphan_events.size(), 1u);  // vm-c2
  ASSERT_TRUE(dest.InstallVms(frag).ok());
  // The orphan's VM registers after the handoff, at its new owner.
  ASSERT_TRUE(dest.RegisterVm(Vm("vm-c2")).ok());
  ASSERT_TRUE(reference.RegisterVm(Vm("vm-c2")).ok());

  const DailyCdiResult left = source.Snapshot().value();
  const DailyCdiResult right = dest.Snapshot().value();
  std::vector<Row> merged = Rows(left);
  const std::vector<Row> moved = Rows(right);
  merged.insert(merged.end(), moved.begin(), moved.end());
  std::sort(merged.begin(), merged.end());
  const DailyCdiResult whole = reference.Snapshot().value();
  EXPECT_EQ(merged, Rows(whole));
  DataQuality quality = left.quality;
  quality.Merge(right.quality);
  EXPECT_EQ(quality.events_shed, whole.quality.events_shed);
  EXPECT_EQ(quality.events_missing, whole.quality.events_missing);
  EXPECT_EQ(quality.events_quarantined, whole.quality.events_quarantined);
  // The extracted VMs' contributions left the source's partials.
  EXPECT_EQ(source.FleetCdi().value().performance, left.fleet.performance);
  EXPECT_EQ(dest.watermark(), source.watermark());
}

TEST_F(StreamEngineTest, ConcurrentCheckpointAndExtractRaceIngest) {
  auto engine = MakeEngine();
  constexpr int kWriters = 3;
  constexpr int kVmsPerWriter = 12;
  constexpr int kEventsPerVm = 8;
  std::atomic<bool> extracted{false};
  StreamCheckpoint frag;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int v = 0; v < kVmsPerWriter; ++v) {
        const std::string id =
            "vm-" + std::to_string(w) + "-" + std::to_string(v);
        for (int e = 0; e < kEventsPerVm; ++e) {
          // Half of each VM's events arrive before it registers.
          if (e == kEventsPerVm / 2) {
            ASSERT_TRUE(engine.RegisterVm(Vm(id)).ok());
          }
          ASSERT_TRUE(engine.Ingest(SlowIo(id, v * kEventsPerVm + e)).ok());
          engine.RecordShed(id);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      (void)engine.Checkpoint();
      ASSERT_TRUE(engine.Snapshot().ok());
      if (i == 10) {
        frag = engine.ExtractRange("vm-1", "vm-2");
        extracted.store(true);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(extracted.load());

  // Every VM, event and shed landed exactly once: on the source, or in the
  // fragment now installed on a second engine.
  auto dest = MakeEngine();
  ASSERT_TRUE(dest.InstallVms(frag).ok());
  size_t vms = 0, events = 0;
  uint64_t shed = 0;
  for (const StreamCheckpoint& ckpt : {engine.Checkpoint(), dest.Checkpoint()}) {
    vms += ckpt.vms.size();
    events += ckpt.events.size() + ckpt.orphan_events.size();
    for (const CheckpointTargetQuality& tq : ckpt.target_quality) {
      shed += tq.shed;
    }
  }
  EXPECT_EQ(vms, size_t{kWriters * kVmsPerWriter});
  EXPECT_EQ(events, size_t{kWriters * kVmsPerWriter * kEventsPerVm});
  EXPECT_EQ(shed, uint64_t{kWriters * kVmsPerWriter * kEventsPerVm});
}

TEST_F(StreamEngineTest, MonitorPreviewDoesNotCommit) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine.RegisterVm(Vm("vm-1")).ok());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(engine.Ingest(SlowIo("vm-1", 300 + i)).ok());
  }
  auto snap = engine.Snapshot().value();

  auto monitor = CdiMonitor::Create({.window = 3, .k = 3.0}).value();
  // Seed a flat history so today's damage is a spike.
  DailyCdiResult quiet;
  quiet.fleet_service_time = Duration::Days(1);
  for (int d = 0; d < 5; ++d) {
    ASSERT_TRUE(
        monitor.IngestDay(day_.start - Duration::Days(5 - d), quiet).ok());
  }
  const size_t days_before = monitor.days_ingested();
  // Previewing many intra-day snapshots flags the spike every time without
  // advancing the detectors.
  for (int i = 0; i < 3; ++i) {
    auto problems = monitor.Preview(day_.start, snap);
    ASSERT_TRUE(problems.ok());
    ASSERT_EQ(problems->size(), 1u);
    EXPECT_EQ((*problems)[0].event_name, "slow_io");
    EXPECT_EQ((*problems)[0].direction, AnomalyDirection::kSpike);
  }
  EXPECT_EQ(monitor.days_ingested(), days_before);
  EXPECT_TRUE(monitor.SeriesFor("slow_io").empty());
  // Committing the day afterwards still detects it.
  auto committed = monitor.IngestDay(day_.start, snap);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->size(), 1u);
}

}  // namespace
}  // namespace cdibot
