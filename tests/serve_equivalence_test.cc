// Differential suite for the serving layer: a CdiQueryService with the ARC
// result cache and materialized cubes ON must answer every query with
// EXACTLY the same bits as a service with both OFF (which recomputes from a
// fresh source pull every time). 24 adversarial seeds, over both source
// topologies (single-node streaming engine and a sharded fleet), across
// watermark advances, mid-day churn + shard rebalance, and a shard
// kill/recover cycle. Every double is compared with EXPECT_EQ — never
// tolerance-based.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/query.h"
#include "serve/service.h"
#include "shard/coordinator.h"
#include "stream/streaming_engine.h"
#include "equivalence_scenario.h"
#include "shard_equivalence_harness.h"

namespace cdibot {
namespace {

using serve::CdiQuery;
using serve::CdiQueryResponse;
using serve::CdiQueryService;
using serve::CdiQueryServiceOptions;
using serve::Consistency;
using testutil::MakeScenario;
using testutil::Scenario;
using testutil::ShardEquivalenceHarness;

/// Bit-identical response comparison: every double via EXPECT_EQ. The
/// served_from_cache/cube flags are deliberately NOT compared — they are
/// the two arms' whole point of difference.
void ExpectResponseIdentical(const CdiQueryResponse& want,
                             const CdiQueryResponse& got,
                             const std::string& what) {
  EXPECT_EQ(want.fleet.unavailability, got.fleet.unavailability) << what;
  EXPECT_EQ(want.fleet.performance, got.fleet.performance) << what;
  EXPECT_EQ(want.fleet.control_plane, got.fleet.control_plane) << what;
  EXPECT_EQ(want.fleet.service_time, got.fleet.service_time) << what;

  EXPECT_EQ(want.fleet_baseline.interruption_count,
            got.fleet_baseline.interruption_count)
      << what;
  EXPECT_EQ(want.fleet_baseline.downtime, got.fleet_baseline.downtime)
      << what;
  EXPECT_EQ(want.fleet_baseline.downtime_percentage,
            got.fleet_baseline.downtime_percentage)
      << what;
  EXPECT_EQ(want.fleet_baseline.annual_interruption_rate,
            got.fleet_baseline.annual_interruption_rate)
      << what;
  EXPECT_EQ(want.fleet_baseline.mtbf, got.fleet_baseline.mtbf) << what;
  EXPECT_EQ(want.fleet_baseline.mttr, got.fleet_baseline.mttr) << what;

  ASSERT_EQ(want.drilldown.groups.size(), got.drilldown.groups.size())
      << what;
  for (size_t i = 0; i < want.drilldown.groups.size(); ++i) {
    const DrilldownGroup& w = want.drilldown.groups[i];
    const DrilldownGroup& g = got.drilldown.groups[i];
    EXPECT_EQ(w.values, g.values) << what << " group " << i;
    EXPECT_EQ(w.key, g.key) << what << " group " << i;
    EXPECT_EQ(w.vm_count, g.vm_count) << what << " " << w.key;
    EXPECT_EQ(w.cdi.unavailability, g.cdi.unavailability)
        << what << " " << w.key;
    EXPECT_EQ(w.cdi.performance, g.cdi.performance) << what << " " << w.key;
    EXPECT_EQ(w.cdi.control_plane, g.cdi.control_plane)
        << what << " " << w.key;
    EXPECT_EQ(w.cdi.service_time, g.cdi.service_time) << what << " " << w.key;
    EXPECT_EQ(w.quality.events_quarantined, g.quality.events_quarantined)
        << what << " " << w.key;
    EXPECT_EQ(w.quality.events_missing, g.quality.events_missing)
        << what << " " << w.key;
    EXPECT_EQ(w.quality.events_shed, g.quality.events_shed)
        << what << " " << w.key;
    EXPECT_EQ(w.quality.degraded, g.quality.degraded) << what << " " << w.key;
  }
  EXPECT_EQ(want.drilldown.records_scanned, got.drilldown.records_scanned)
      << what;
  EXPECT_EQ(want.drilldown.records_filtered, got.drilldown.records_filtered)
      << what;

  EXPECT_EQ(want.quality.events_quarantined, got.quality.events_quarantined)
      << what;
  EXPECT_EQ(want.quality.events_missing, got.quality.events_missing) << what;
  EXPECT_EQ(want.quality.events_shed, got.quality.events_shed) << what;
  EXPECT_EQ(want.quality.degraded, got.quality.degraded) << what;
  EXPECT_EQ(want.vms_deferred, got.vms_deferred) << what;
  EXPECT_EQ(want.as_of_watermark, got.as_of_watermark) << what;

  ASSERT_EQ(want.detail != nullptr, got.detail != nullptr) << what;
  if (want.detail != nullptr && got.detail != nullptr) {
    ShardEquivalenceHarness::ExpectIdentical(*want.detail, *got.detail,
                                             what + " detail");
  }
}

/// The query battery: the shapes a dashboard + ad-hoc mix actually sends.
/// kStaleOk uses a bound wider than the day so the cube may always answer
/// — the differential pins that even maximally-stale cube/cache answers
/// match a fresh recompute while the watermark is unchanged.
std::vector<CdiQuery> QueryBattery() {
  std::vector<CdiQuery> battery;
  {
    CdiQuery q;  // fleet-only dashboard read
    q.consistency = Consistency::kCached;
    battery.push_back(q);
  }
  {
    CdiQuery q;  // one-dimension drill-down
    q.consistency = Consistency::kCached;
    q.group_by = {"az"};
    battery.push_back(q);
  }
  {
    CdiQuery q;  // composite drill-down, bounded staleness
    q.consistency = Consistency::kStaleOk;
    q.max_staleness = Duration::Hours(48);
    q.group_by = {"region", "az"};
    battery.push_back(q);
  }
  {
    CdiQuery q;  // filtered drill-down
    q.consistency = Consistency::kCached;
    q.group_by = {"az"};
    q.filter = {{"region", "r0"}};
    battery.push_back(q);
  }
  {
    CdiQuery q;  // legacy Snapshot() re-route shape
    q.consistency = Consistency::kFresh;
    q.include_detail = true;
    battery.push_back(q);
  }
  return battery;
}

/// Runs the battery against both arms. The reference (cache/cubes off)
/// answers first. The cached arm then answers three ways, all of which
/// must match the reference bit for bit: a forced kFresh pass (pull
/// through the cube, which also overwrites any entry left stale by VM
/// churn — registration changes do not advance the event-time watermark,
/// so bounded-stale answers across churn are *allowed* to differ and are
/// deliberately not compared), then the query's own consistency mode
/// (cache or cube path), then a repeat (a guaranteed cache hit).
void RunBattery(CdiQueryService& reference, CdiQueryService& cached,
                const std::string& stage) {
  // Settle the source's watermark clock first: the first pull after an
  // ingest may advance the reported watermark (a sharded gather flushes
  // pending work), and both arms must stamp as_of from the same clock.
  {
    CdiQuery settle;
    settle.consistency = Consistency::kFresh;
    auto s = reference.Query(settle);
    ASSERT_TRUE(s.ok()) << stage << " settle: " << s.status().ToString();
  }
  const std::vector<CdiQuery> battery = QueryBattery();
  for (size_t i = 0; i < battery.size(); ++i) {
    const CdiQuery& q = battery[i];
    const std::string what = stage + " query " + std::to_string(i);
    auto want = reference.Query(q);
    ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
    CdiQuery fresh = q;
    fresh.consistency = Consistency::kFresh;
    auto warmed = cached.Query(fresh);
    ASSERT_TRUE(warmed.ok()) << what << ": " << warmed.status().ToString();
    ExpectResponseIdentical(*want, *warmed, what + " fresh pass");
    for (int pass = 0; pass < 2; ++pass) {
      auto got = cached.Query(q);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      ExpectResponseIdentical(*want, *got,
                              what + " pass " + std::to_string(pass));
    }
  }
}

CdiQueryServiceOptions CachedArm(const std::string& prefix) {
  return {.cache_entries = 64, .materialize_cubes = true,
          .metric_prefix = prefix};
}

CdiQueryServiceOptions ReferenceArm(const std::string& prefix) {
  return {.cache_entries = 0, .materialize_cubes = false,
          .metric_prefix = prefix};
}

class ServeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeEquivalenceTest, EngineCacheOnMatchesCacheOff) {
  const uint64_t seed = GetParam();
  const Scenario sc = MakeScenario(seed);
  ShardEquivalenceHarness harness;

  StreamingCdiOptions opts;
  opts.window = sc.day;
  auto engine_or = StreamingCdiEngine::Create(&harness.catalog(),
                                              &harness.weights(), opts);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  StreamingCdiEngine engine = std::move(engine_or).value();
  for (const VmServiceInfo& vm : sc.vms) {
    if (ShardEquivalenceHarness::IsLate(sc, vm.vm_id)) continue;
    auto it = sc.initial_override.find(vm.vm_id);
    ASSERT_TRUE(
        engine.RegisterVm(it != sc.initial_override.end() ? it->second : vm)
            .ok());
  }

  serve::EngineSource ref_source(&engine);
  serve::EngineSource cached_source(&engine);
  CdiQueryService reference(&ref_source, ReferenceArm("serve_eq.eng_ref"));
  CdiQueryService cached(&cached_source, CachedArm("serve_eq.eng_on"));

  const size_t half = sc.arrivals.size() / 2;
  for (size_t i = 0; i < sc.arrivals.size(); ++i) {
    ASSERT_TRUE(engine.Ingest(sc.arrivals[i]).ok());
    if (i + 1 == half) {
      // Mid-day battery, then churn (late registrations + window changes)
      // with the cache warm: the post-churn battery proves watermark-based
      // invalidation, not time, keeps the cached arm honest.
      RunBattery(reference, cached, "seed " + std::to_string(seed) +
                                        " engine mid-day");
      ShardEquivalenceHarness::ApplyChurn(sc, [&](const VmServiceInfo& vm) {
        ASSERT_TRUE(engine.RegisterVm(vm).ok());
      });
    }
  }
  RunBattery(reference, cached,
             "seed " + std::to_string(seed) + " engine end-of-day");
  // Nothing ingested since: the cached arm must now be serving repeats
  // without pulling, and still matched the reference above.
  if (sc.arrivals.size() > 1) {
    EXPECT_GT(cached.stats().cache_hits + cached.stats().cube_answers, 0u);
  }
}

TEST_P(ServeEquivalenceTest, ShardedCacheOnMatchesCacheOffAcrossRebalance) {
  const uint64_t seed = GetParam();
  const Scenario sc = MakeScenario(seed);
  ShardEquivalenceHarness harness;
  const size_t num_shards = 2 + seed % 3;

  shard::ShardTopologyOptions topo;
  topo.num_shards = num_shards;
  topo.engine.window = sc.day;
  auto coord_or = shard::ShardCoordinator::Create(
      &harness.catalog(), &harness.weights(), std::move(topo));
  ASSERT_TRUE(coord_or.ok()) << coord_or.status().ToString();
  std::unique_ptr<shard::ShardCoordinator> coord = std::move(coord_or).value();

  std::vector<VmServiceInfo> initial;
  for (const VmServiceInfo& vm : sc.vms) {
    if (ShardEquivalenceHarness::IsLate(sc, vm.vm_id)) continue;
    auto it = sc.initial_override.find(vm.vm_id);
    initial.push_back(it != sc.initial_override.end() ? it->second : vm);
  }
  ASSERT_TRUE(coord->RegisterVms(initial).ok());

  serve::CoordinatorSource ref_source(coord.get());
  serve::CoordinatorSource cached_source(coord.get());
  CdiQueryService reference(&ref_source, ReferenceArm("serve_eq.shard_ref"));
  CdiQueryService cached(&cached_source, CachedArm("serve_eq.shard_on"));

  const size_t total = sc.arrivals.size();
  const size_t half = total / 2;
  const size_t three_quarter = total * 3 / 4;
  const size_t victim = seed % num_shards;
  for (size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(coord->Ingest(sc.arrivals[i]).ok());
    if (i + 1 == half) {
      RunBattery(reference, cached, "seed " + std::to_string(seed) +
                                        " sharded pre-rebalance");
      ShardEquivalenceHarness::ApplyChurn(sc, [&](const VmServiceInfo& vm) {
        ASSERT_TRUE(coord->RegisterVm(vm).ok());
      });
      // Mid-day recut under live traffic: the serving layer's answers must
      // be indistinguishable across the handoff.
      ASSERT_TRUE(coord->Rebalance().ok());
      RunBattery(reference, cached, "seed " + std::to_string(seed) +
                                        " sharded post-rebalance");
    }
    if (i + 1 == three_quarter && half != three_quarter) {
      // Chaos: kill a shard and recover it. The facade arms are only
      // compared after recovery — during the outage kFresh pulls see a
      // DEGRADED result while kCached may legitimately serve the
      // pre-outage answer (the watermark did not advance), which is the
      // documented consistency semantics, not a bug.
      ASSERT_TRUE(coord->InjectShardFailure(victim).ok());
      ASSERT_TRUE(coord->RecoverShard(victim).ok());
      ASSERT_TRUE(coord->ShardAlive(victim));
    }
  }
  RunBattery(reference, cached,
             "seed " + std::to_string(seed) + " sharded end-of-day");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace cdibot
