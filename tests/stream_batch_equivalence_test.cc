// Differential suite: the streaming engine's snapshot must equal the batch
// DailyCdiJob on the same inputs, for any arrival order. Each seed builds a
// randomized scenario — out-of-order (shuffled) arrivals, VMs with partial
// service windows, mid-day churn (VMs registered late or re-registered with
// a changed window), unknown/duplicate/out-of-window events, stateful
// add/del streams and logged-duration events — feeds the identical event
// set to both engines, and requires the whole result (fleet CDI, per-VM
// and per-event rows, baselines, counters and data quality) and the
// engine's FleetCdi() shard-partial merge to agree bit for bit: the per-VM
// math is the same code, period resolution is arrival-order invariant, and
// the fleet fold is exact.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "cdi/pipeline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/stream_checkpoint.h"
#include "stream/streaming_engine.h"
#include "equivalence_scenario.h"
#include "shard_equivalence_harness.h"

namespace cdibot {
namespace {

using testutil::MakeScenario;
using testutil::Scenario;
using testutil::ShardEquivalenceHarness;

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  EquivalenceTest()
      : catalog_(EventCatalog::BuiltIn()),
        weights_(testutil::BuildCanonicalWeights()) {}

  /// The batch job's result with its rows sorted by id, the order the
  /// engine's snapshot emits them in.
  DailyCdiResult RunBatch(const Scenario& sc, ThreadPool* pool) {
    EventLog log;
    log.AppendBatch(sc.arrivals);
    DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                         .catalog = &catalog_,
                                         .weights = &*weights_,
                                         .pool = pool,
                                         .min_parallel_rows = 2});
    auto result = job.Run(sc.vms, sc.day);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    result->SortRows();
    return std::move(result).value();
  }

  /// The final snapshot, and the engine's FleetCdi() when `fleet_cdi` is
  /// non-null.
  DailyCdiResult RunStream(const Scenario& sc, uint64_t seed, ThreadPool* pool,
                           bool checkpoint_midway,
                           VmCdi* fleet_cdi = nullptr) {
    StreamingCdiOptions opts;
    opts.window = sc.day;
    opts.pool = pool;
    opts.num_shards = 1 + seed % 7;  // vary sharding too
    auto engine =
        StreamingCdiEngine::Create(&catalog_, &*weights_, opts).value();

    std::vector<std::string> late(sc.late_registered);
    for (const VmServiceInfo& vm : sc.vms) {
      if (std::find(late.begin(), late.end(), vm.vm_id) != late.end()) {
        continue;  // registered only mid-stream
      }
      auto it = sc.initial_override.find(vm.vm_id);
      EXPECT_TRUE(
          engine.RegisterVm(it != sc.initial_override.end() ? it->second : vm)
              .ok());
    }

    const size_t half = sc.arrivals.size() / 2;
    for (size_t i = 0; i < sc.arrivals.size(); ++i) {
      EXPECT_TRUE(engine.Ingest(sc.arrivals[i]).ok());
      if (i + 1 == half) {
        // Mid-stream: churn lands (late registrations + window changes),
        // and an intra-day snapshot must not disturb the final result.
        for (const VmServiceInfo& vm : sc.vms) {
          if (sc.initial_override.count(vm.vm_id) > 0 ||
              std::find(late.begin(), late.end(), vm.vm_id) != late.end()) {
            EXPECT_TRUE(engine.RegisterVm(vm).ok());
          }
        }
        EXPECT_TRUE(engine.Snapshot().ok());
        if (checkpoint_midway) {
          // Per-seed/per-process file: ctest runs each seed as its own
          // process, possibly concurrently, and a shared name in
          // TempDir() lets them overwrite each other's checkpoint.
          const std::string path = ::testing::TempDir() +
                                   "/stream_eq_ckpt_" +
                                   std::to_string(seed) + "_" +
                                   std::to_string(::getpid());
          EXPECT_TRUE(SaveStreamCheckpoint(engine.Checkpoint(), path).ok());
          auto loaded = LoadStreamCheckpoint(path);
          std::filesystem::remove(path);
          EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
          auto restored = StreamingCdiEngine::Restore(*loaded, &catalog_,
                                                      &*weights_, opts);
          EXPECT_TRUE(restored.ok()) << restored.status().ToString();
          engine = std::move(*restored);
        }
      }
    }
    if (fleet_cdi != nullptr) {
      auto fleet = engine.FleetCdi();
      EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
      *fleet_cdi = fleet.value_or(VmCdi{});
    }
    auto snap = engine.Snapshot();
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    return std::move(snap).value();
  }

  EventCatalog catalog_;
  std::optional<EventWeightModel> weights_;
};

TEST_P(EquivalenceTest, StreamSnapshotMatchesBatchJob) {
  const Scenario sc = MakeScenario(GetParam());
  ThreadPool pool(4);
  const DailyCdiResult batch = RunBatch(sc, &pool);
  // Every 4th seed also exercises checkpoint/restore mid-stream.
  VmCdi engine_fleet;
  const DailyCdiResult stream =
      RunStream(sc, GetParam(), &pool,
                /*checkpoint_midway=*/GetParam() % 4 == 0, &engine_fleet);

  ShardEquivalenceHarness::ExpectIdentical(batch, stream, "stream vs batch");
  // The engine's shard-partial merge is the same exact fold.
  ShardEquivalenceHarness::ExpectIdenticalCdi(stream.fleet, engine_fleet,
                                              "FleetCdi() vs snapshot");
}

// A wider fleet: eight scenarios side by side (VM ids and event targets
// prefixed per scenario), ~120 VMs and many of them damaged, spread over
// the engine's hash shards. Event times are jittered off the minute grid
// and the weights are not dyadic (7 ticket levels, alphas 0.3/0.7), so
// the per-VM terms T_i * Q_i use their full mantissas instead of summing
// exactly as near-integers: a grouping-sensitive fold shows in the last
// bits, while the exact fold gives FleetCdi(), the snapshot and the batch
// job the same bits.
Scenario WideScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario wide;
  for (uint64_t k = 0; k < 8; ++k) {
    Scenario sc = MakeScenario(seed * 8 + k);
    const std::string prefix = "f" + std::to_string(k) + "-";
    wide.day = sc.day;
    for (VmServiceInfo& vm : sc.vms) {
      vm.vm_id = prefix + vm.vm_id;
      wide.vms.push_back(std::move(vm));
    }
    for (auto& [vm_id, info] : sc.initial_override) {
      info.vm_id = prefix + info.vm_id;
      wide.initial_override.emplace(prefix + vm_id, std::move(info));
    }
    for (const std::string& vm_id : sc.late_registered) {
      wide.late_registered.push_back(prefix + vm_id);
    }
    for (RawEvent& ev : sc.arrivals) {
      ev.target = prefix + ev.target;
      ev.time += Duration::Millis(rng.UniformInt(0, 59'999));
      wide.arrivals.push_back(std::move(ev));
    }
  }
  rng.Shuffle(wide.arrivals);
  return wide;
}

TEST_P(EquivalenceTest, WideFleetCdiMatchesSnapshotAndBatch) {
  const Scenario sc = WideScenario(GetParam());
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"packet_loss", 60}, {"vcpu_high", 40},
       {"vm_start_failed", 20}},
      7);
  weights_.emplace(
      EventWeightModel::Build(
          std::move(ticket).value(),
          {.ticket_levels = 7, .alpha_expert = 0.3, .alpha_ticket = 0.7})
          .value());
  ThreadPool pool(4);
  const DailyCdiResult batch = RunBatch(sc, &pool);
  VmCdi engine_fleet;
  const DailyCdiResult stream =
      RunStream(sc, GetParam(), &pool, /*checkpoint_midway=*/false,
                &engine_fleet);
  ASSERT_EQ(batch.vms_failed, 0u);
  ASSERT_GT(batch.vms_evaluated, 48u);
  ShardEquivalenceHarness::ExpectIdentical(batch, stream,
                                           "wide stream vs batch");
  ShardEquivalenceHarness::ExpectIdenticalCdi(stream.fleet, engine_fleet,
                                              "wide FleetCdi() vs snapshot");
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

// Re-delivering the whole stream a second time must not change the result:
// duplicates hit the resolver's dedup rules identically in both engines.
class DoubleDeliveryStillMatchesBatch
    : public testutil::SeedSubsetTest<EquivalenceTest> {
  using SeedSubsetTest::SeedSubsetTest;
  void TestBody() override;
};
const bool kDoubleDeliveryRegistered = testutil::RegisterSeedSubset<
    EquivalenceTest, DoubleDeliveryStillMatchesBatch>(
    "EquivalenceTest", "DoubleDeliveryStillMatchesBatch", {5, 10, 15, 20});

void DoubleDeliveryStillMatchesBatch::TestBody() {
  Scenario sc = MakeScenario(seed());
  const size_t original = sc.arrivals.size();
  sc.arrivals.reserve(original * 2);
  for (size_t i = 0; i < original; ++i) sc.arrivals.push_back(sc.arrivals[i]);
  const DailyCdiResult batch = RunBatch(sc, nullptr);
  VmCdi engine_fleet;
  const DailyCdiResult stream =
      RunStream(sc, seed(), nullptr, false, &engine_fleet);
  ShardEquivalenceHarness::ExpectIdentical(
      batch, stream, "stream vs batch under double delivery");
  ShardEquivalenceHarness::ExpectIdenticalCdi(
      stream.fleet, engine_fleet, "FleetCdi() under double delivery");
}

}  // namespace
}  // namespace cdibot
