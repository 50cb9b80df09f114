#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/trace.h"
#include "sim/cloudbot_loop.h"
#include "strict_json.h"

// Baked in by tests/CMakeLists.txt; points at the built shard_worker.
#ifndef SHARD_WORKER_BIN
#define SHARD_WORKER_BIN ""
#endif

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

// Bit-exact equality of two fleet CDIs: the topologies share one exact,
// order-free fleet fold, so "close" would hide a real divergence.
void ExpectSameCdi(const VmCdi& want, const VmCdi& got, const char* what) {
  EXPECT_EQ(want.unavailability, got.unavailability) << what;
  EXPECT_EQ(want.performance, got.performance) << what;
  EXPECT_EQ(want.control_plane, got.control_plane) << what;
  EXPECT_EQ(want.service_time, got.service_time) << what;
}

// The kInit weight recipe matching the fixture's EventWeightModel: the
// workers' BuildWeightModel runs the identical arithmetic, so the CDI
// doubles agree exactly across the process boundary.
shard::WeightSpec FixtureWeightSpec() {
  shard::WeightSpec spec;
  spec.ticket_counts = {
      {"slow_io", 100}, {"nic_flapping", 30}, {"live_migration", 5}};
  spec.ticket_levels = 4;
  return spec;
}

class CloudBotLoopTest : public ::testing::Test {
 protected:
  CloudBotLoopTest() : catalog_(EventCatalog::BuiltIn()) {
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

TEST_F(CloudBotLoopTest, Validation) {
  Rng rng(1);
  AutomationLoopOptions options;
  options.tick = Duration::Zero();
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_TRUE(RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                               *weights_, options, &rng)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AutomationLoopOptions{}.Validate().ok());
}

// A rejected run returns before it touches the global tracer, whichever
// state the caller left it in.
TEST_F(CloudBotLoopTest, RejectedRunLeavesTracerAsItFoundIt) {
  AutomationLoopOptions options;
  options.obs.trace_json_path = ::testing::TempDir() + "/rejected_trace.json";
  options.streaming.emplace().supervisor.emplace();  // no checkpoint_dir
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool was_enabled = tracer.enabled();
  for (const bool start_enabled : {false, true}) {
    if (start_enabled) {
      tracer.Enable();
    } else {
      tracer.Disable();
    }
    Rng rng(1);
    EXPECT_TRUE(RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, options, &rng)
                    .status()
                    .IsInvalidArgument());
    EXPECT_EQ(tracer.enabled(), start_enabled);
  }
  if (was_enabled) {
    tracer.Enable();
  } else {
    tracer.Disable();
  }
}

TEST_F(CloudBotLoopTest, AutomationReducesCdi) {
  AutomationLoopOptions on;
  on.automation_enabled = true;
  AutomationLoopOptions off = on;
  off.automation_enabled = false;

  // Same seed: the planned incidents are identical in both worlds.
  Rng rng_on(42), rng_off(42);
  auto with = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                               *weights_, on, &rng_on);
  auto without = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                  *weights_, off, &rng_off);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  ASSERT_GT(with->incidents, 0u);
  EXPECT_EQ(with->incidents, without->incidents);

  // With automation the incidents are truncated within ~one tick, so the
  // performance damage collapses.
  EXPECT_GT(with->migrations_executed, 0u);
  EXPECT_EQ(without->migrations_executed, 0u);
  EXPECT_GT(with->damage_avoided, Duration::Zero());
  EXPECT_EQ(without->damage_avoided, Duration::Zero());
  EXPECT_LT(with->fleet_cdi.performance,
            without->fleet_cdi.performance / 5.0);
}

TEST_F(CloudBotLoopTest, RulesMatchEvenWhenAutomationOff) {
  // The engine still observes matches in monitor-only mode (what the paper
  // calls gray releases of rules), it just doesn't act.
  AutomationLoopOptions off;
  off.automation_enabled = false;
  Rng rng(7);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, off, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->incidents, 0u);
  EXPECT_GT(result->rule_matches, 0u);
  EXPECT_EQ(result->migrations_executed, 0u);
}

TEST_F(CloudBotLoopTest, MigrationBrownoutIsChargedToCdi) {
  // Automation is not free: the live migration itself contributes a small
  // performance cost, which the CDI accounts for honestly.
  AutomationLoopOptions on;
  on.incident_probability = 0.5;  // many incidents -> measurable brown-outs
  Rng rng(11);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, on, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->migrations_executed, 0u);
  EXPECT_GT(result->fleet_cdi.performance, 0.0);
}

TEST_F(CloudBotLoopTest, FullFleetBlocksMigrations) {
  // Every NC packed to capacity: matched migrations have no destination,
  // so automation cannot help and the damage equals the natural course.
  FleetSpec packed;
  packed.regions = 1;
  packed.azs_per_region = 1;
  packed.clusters_per_az = 1;
  packed.ncs_per_cluster = 4;
  packed.vms_per_nc = 13;  // 13 * 8 = 104 cores: dedicated hosts are full
  packed.hybrid_fraction = 0.0;
  const Fleet full_fleet = Fleet::Build(packed).value();
  // Dedicated NCs are full (13 x 8 = 104); shared NCs hold 13 x 4 = 52 of
  // 104, but dedicated VMs cannot land there and shared VMs fit — so make
  // every incident hit a dedicated VM by checking the outcome instead.
  AutomationLoopOptions on;
  on.automation_enabled = true;
  on.incident_probability = 0.3;
  Rng rng(21);
  auto result = RunAutomationDay(full_fleet, T("2024-01-01 00:00"), catalog_,
                                 *weights_, on, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->incidents, 0u);
  // Dedicated-VM incidents fail placement; shared-VM incidents migrate.
  EXPECT_GT(result->placements_failed, 0u);
}

TEST_F(CloudBotLoopTest, ShardedModeMatchesStreamingBitExactly) {
  AutomationLoopOptions options;
  options.incident_probability = 0.4;  // enough events to make ties matter
  options.streaming.emplace();
  options.sharded = {.shards = 3, .rebalance_midday = true};
  Rng rng(11);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->incidents, 0u);
  // The streaming side answers from its engine's shard-partial merge, the
  // sharded side re-folds the gathered rows, the batch job folds its own
  // rows: the fleet fold is exact, so all three are bit-identical, not
  // merely close.
  ExpectSameCdi(result->fleet_cdi, result->fleet_cdi_streaming, "streaming");
  ExpectSameCdi(result->fleet_cdi, result->fleet_cdi_sharded, "sharded");
  EXPECT_EQ(result->shard_stats.num_shards, 3u);
  EXPECT_EQ(result->shard_stats.shards_alive, 3u);
  EXPECT_EQ(result->shard_stats.rebalances, 1u);
  EXPECT_GT(result->shard_stats.events_routed, 0u);
}

// Multi-process mode: the same simulated day, but the shard workers are
// real child processes behind Unix-domain sockets, rebuilding their weight
// model from the WeightSpec recipe in kInit. Still bit-identical.
TEST_F(CloudBotLoopTest, MultiProcessShardedModeMatchesStreamingBitExactly) {
  const std::string binary = SHARD_WORKER_BIN;
  ASSERT_FALSE(binary.empty()) << "SHARD_WORKER_BIN not baked in";
  AutomationLoopOptions options;
  options.incident_probability = 0.4;
  options.streaming.emplace();
  options.sharded = {.shards = 2,
                     .transport = shard::ShardTransportMode::kSocketProcess,
                     .worker_binary = binary,
                     .weight_spec = FixtureWeightSpec(),
                     .rebalance_midday = true};
  Rng rng(11);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->incidents, 0u);
  ExpectSameCdi(result->fleet_cdi, result->fleet_cdi_streaming, "streaming");
  ExpectSameCdi(result->fleet_cdi, result->fleet_cdi_sharded, "sharded");
  EXPECT_EQ(result->shard_stats.shards_alive, 2u);
  EXPECT_GT(result->shard_stats.events_routed, 0u);
}

// The fleet-observability wiring on the same multi-process day: the run
// ends with an obs pull over the wire, a merged statusz whose fleet
// counters are exact sums of the per-process rows, and one merged Chrome
// trace with a named track per process.
TEST_F(CloudBotLoopTest, MultiProcessFleetStatuszAndMergedTrace) {
  const std::string binary = SHARD_WORKER_BIN;
  ASSERT_FALSE(binary.empty()) << "SHARD_WORKER_BIN not baked in";
  AutomationLoopOptions options;
  options.incident_probability = 0.4;
  options.streaming.emplace();
  options.sharded = {.shards = 2,
                     .transport = shard::ShardTransportMode::kSocketProcess,
                     .worker_binary = binary,
                     .weight_spec = FixtureWeightSpec()};
  options.obs.fleet_statusz = true;
  const std::string trace_path =
      ::testing::TempDir() + "/sim_merged_trace.json";
  options.obs.merged_trace_path = trace_path;
  Rng rng(11);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->incidents, 0u);

  // The statusz JSON is strict JSON, lists all three processes, and its
  // fleet counters equal the sum of their by_process rows exactly.
  testjson::JsonValue statusz;
  std::string error;
  ASSERT_TRUE(
      testjson::ParseStrictJson(result->fleet_statusz_json, &statusz, &error))
      << error;
  const testjson::JsonValue* processes = statusz.Find("processes");
  ASSERT_NE(processes, nullptr);
  std::vector<std::string> names;
  for (const auto& p : processes->array) names.push_back(p.str);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"coordinator", "shard-0",
                                             "shard-1"}));
  const testjson::JsonValue* counters = statusz.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_FALSE(counters->object.empty());
  for (const auto& [name, row] : counters->object) {
    double sum = 0;
    for (const auto& [proc, v] : row.Find("by_process")->object) {
      sum += v.number;
    }
    EXPECT_EQ(row.Find("fleet")->number, sum) << name;
  }
  EXPECT_NE(result->fleet_statusz_text.find("shard-1"), std::string::npos);

  // The merged trace on disk is strict JSON with one process_name
  // metadata track per process.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  testjson::JsonValue trace;
  ASSERT_TRUE(testjson::ParseStrictJson(buf.str(), &trace, &error)) << error;
  std::vector<std::string> tracks;
  for (const auto& ev : trace.Find("traceEvents")->array) {
    const testjson::JsonValue* ph = ev.Find("ph");
    if (ph != nullptr && ph->str == "M") {
      tracks.push_back(ev.Find("args")->Find("name")->str);
    }
  }
  std::sort(tracks.begin(), tracks.end());
  EXPECT_EQ(tracks, (std::vector<std::string>{"coordinator", "shard-0",
                                              "shard-1"}));
}

// Fleet obs over a same-process shard topology would double-count every
// metric (all shards share this registry); the loop must refuse it.
TEST_F(CloudBotLoopTest, FleetStatuszRequiresMultiProcessTransport) {
  AutomationLoopOptions options;
  options.streaming.emplace();
  options.sharded = {.shards = 2};  // default kInProcess transport
  options.obs.fleet_statusz = true;
  Rng rng(3);
  EXPECT_TRUE(RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                               *weights_, options, &rng)
                  .status()
                  .IsInvalidArgument());
  // No sharded fleet at all is refused the same way, for either output.
  AutomationLoopOptions unsharded;
  unsharded.obs.merged_trace_path = ::testing::TempDir() + "/never.json";
  EXPECT_TRUE(unsharded.Validate().IsInvalidArgument());
}

// Every live read the loop makes goes through the serve::CdiQueryService
// facade, a caching layer over the same engines; its answers must equal
// the batch job bit for bit (the serve differential suite pins the cache
// itself). Also drives the heatmap endpoint end to end: the rendered grid
// must survive the strict RFC 8259 parser and carry all three planes.
TEST_F(CloudBotLoopTest, FacadeReadsMatchBatchBitExactly) {
  AutomationLoopOptions options;
  options.incident_probability = 0.4;
  options.streaming.emplace();
  options.sharded = {.shards = 2};
  options.heatmap_group_dim = "cluster";
  options.heatmap_buckets = 12;
  Rng rng(11);
  auto got = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                              *weights_, options, &rng);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_GT(got->incidents, 0u);

  ExpectSameCdi(got->fleet_cdi, got->fleet_cdi_streaming, "streaming");
  ExpectSameCdi(got->fleet_cdi, got->fleet_cdi_sharded, "sharded");
  // One fresh fleet query per topology, each answered by one source pull.
  EXPECT_EQ(got->serve_stats.queries, 2u);
  EXPECT_EQ(got->serve_stats.source_pulls, 2u);

  ASSERT_FALSE(got->heatmap_json.empty());
  testjson::JsonValue grid;
  std::string error;
  ASSERT_TRUE(testjson::ParseStrictJson(got->heatmap_json, &grid, &error))
      << error;
  for (const char* plane : {"unavailability", "performance", "control_plane"}) {
    const testjson::JsonValue* rows = grid.Find(plane);
    ASSERT_NE(rows, nullptr) << plane;
  }

  // Without a group dimension the heatmap endpoint stays off.
  AutomationLoopOptions plain = options;
  plain.heatmap_group_dim.clear();
  Rng rng_plain(11);
  auto without = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                  *weights_, plain, &rng_plain);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_TRUE(without->heatmap_json.empty());
}

TEST_F(CloudBotLoopTest, ZeroIncidentProbabilityIsCleanDay) {
  AutomationLoopOptions options;
  options.incident_probability = 0.0;
  Rng rng(3);
  auto result = RunAutomationDay(*fleet_, T("2024-01-01 00:00"), catalog_,
                                 *weights_, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->incidents, 0u);
  EXPECT_DOUBLE_EQ(result->fleet_cdi.performance, 0.0);
  EXPECT_DOUBLE_EQ(result->fleet_cdi.unavailability, 0.0);
}

}  // namespace
}  // namespace cdibot
