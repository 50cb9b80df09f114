// Unit tests for the query-serving layer (src/serve/): canonical query
// keys, the ARC result cache, the incrementally maintained drill-down
// cube, the heatmap endpoint, and the CdiQueryService facade over a fake
// source and under concurrent readers racing a live engine. The
// bit-identity contract against live engines is pinned separately by
// serve_equivalence_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cdi/drilldown.h"
#include "event/catalog.h"
#include "serve/cube.h"
#include "serve/heatmap.h"
#include "serve/query.h"
#include "serve/result_cache.h"
#include "serve/service.h"
#include "shard_equivalence_harness.h"
#include "storage/event_log.h"
#include "stream/streaming_engine.h"
#include "strict_json.h"

namespace cdibot::serve {
namespace {

TimePoint At(const char* text) { return TimePoint::Parse(text).value(); }

// ---------------------------------------------------------------------------
// CanonicalQueryKey

TEST(CanonicalQueryKeyTest, DistinguishesAnswerShapingFields) {
  CdiQuery base;
  base.group_by = {"region", "az"};
  base.filter = {{"region", "r0"}};

  CdiQuery reordered = base;
  reordered.group_by = {"az", "region"};
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(reordered))
      << "group-by order changes the cube, so it must change the key";

  CdiQuery other_filter = base;
  other_filter.filter = {{"region", "r1"}};
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(other_filter));

  CdiQuery with_detail = base;
  with_detail.include_detail = true;
  EXPECT_NE(CanonicalQueryKey(base), CanonicalQueryKey(with_detail));
}

TEST(CanonicalQueryKeyTest, IgnoresEffortAndFreshnessFields) {
  CdiQuery base;
  base.group_by = {"az"};

  CdiQuery tuned = base;
  tuned.deadline = Deadline::After(Duration::Millis(5));
  tuned.consistency = Consistency::kFresh;
  tuned.max_staleness = Duration::Hours(1);
  EXPECT_EQ(CanonicalQueryKey(base), CanonicalQueryKey(tuned))
      << "deadline/consistency say how hard to try, not what is asked — a "
         "kFresh pull must warm the cache for kCached callers";
}

TEST(CanonicalQueryKeyTest, LengthPrefixingPreventsCollisions) {
  CdiQuery a;
  a.group_by = {"ab", "c"};
  CdiQuery b;
  b.group_by = {"a", "bc"};
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

// ---------------------------------------------------------------------------
// ArcResultCache

ArcResultCache::Entry MakeEntry(double marker, TimePoint as_of) {
  auto response = std::make_shared<CdiQueryResponse>();
  response->fleet.performance = marker;
  return ArcResultCache::Entry{std::move(response), as_of};
}

constexpr auto kAlwaysFresh = [](const ArcResultCache::Entry&) {
  return true;
};

TEST(ArcResultCacheTest, HitReturnsPayloadAndCounts) {
  ArcResultCache cache(4, "serve_test.arc_hit");
  const TimePoint wm = At("2026-03-10 00:00");
  cache.Put("k", MakeEntry(0.25, wm));
  auto entry = cache.Get("k", kAlwaysFresh);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->response->fleet.performance, 0.25);
  EXPECT_EQ(entry->as_of, wm);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST(ArcResultCacheTest, CapacityZeroDisablesEverything) {
  ArcResultCache cache(0, "serve_test.arc_off");
  cache.Put("k", MakeEntry(1.0, At("2026-03-10 00:00")));
  EXPECT_FALSE(cache.Get("k", kAlwaysFresh).has_value());
  EXPECT_EQ(cache.stats().resident, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ArcResultCacheTest, EvictsAtCapacity) {
  ArcResultCache cache(2, "serve_test.arc_evict");
  const TimePoint wm = At("2026-03-10 00:00");
  cache.Put("a", MakeEntry(1.0, wm));
  cache.Put("b", MakeEntry(2.0, wm));
  cache.Put("c", MakeEntry(3.0, wm));
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.resident, 2u);
  EXPECT_GE(stats.evictions, 1u);
  // The newest key is always resident.
  EXPECT_TRUE(cache.Get("c", kAlwaysFresh).has_value());
}

TEST(ArcResultCacheTest, ScanResistanceKeepsHotKeyResident) {
  ArcResultCache cache(4, "serve_test.arc_scan");
  const TimePoint wm = At("2026-03-10 00:00");
  // Make "hot" a frequency citizen: inserted, then hit (T1 -> T2).
  cache.Put("hot", MakeEntry(7.0, wm));
  ASSERT_TRUE(cache.Get("hot", kAlwaysFresh).has_value());
  // One-shot sweep of 8 distinct keys — twice the capacity.
  for (int i = 0; i < 8; ++i) {
    cache.Put("sweep-" + std::to_string(i), MakeEntry(i, wm));
  }
  EXPECT_TRUE(cache.Get("hot", kAlwaysFresh).has_value())
      << "an LRU would have flushed the hot key; ARC's T2 must not";
}

TEST(ArcResultCacheTest, GhostHitAdaptsTarget) {
  ArcResultCache cache(2, "serve_test.arc_ghost");
  const TimePoint wm = At("2026-03-10 00:00");
  // "a" becomes a frequency citizen (T2), so the next capacity overflow
  // demotes the T1 resident "b" to the B1 ghost list instead of dropping
  // it outright (a full all-recency T1 with no ghosts evicts without
  // ghosting — there is no history signal worth keeping there).
  cache.Put("a", MakeEntry(1.0, wm));
  ASSERT_TRUE(cache.Get("a", kAlwaysFresh).has_value());
  cache.Put("b", MakeEntry(2.0, wm));
  cache.Put("c", MakeEntry(3.0, wm));  // evicts "b" to B1
  ASSERT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Get("b", kAlwaysFresh).has_value());
  const size_t target_before = cache.stats().target_t1;
  cache.Put("b", MakeEntry(2.5, wm));  // B1 ghost hit: recency is winning
  const CacheStats stats = cache.stats();
  EXPECT_GE(stats.ghost_hits, 1u);
  EXPECT_GT(stats.target_t1, target_before) << "a B1 hit must grow p";
  // The returning key is resident again, and as a frequency citizen.
  ASSERT_TRUE(cache.Get("b", kAlwaysFresh).has_value());
}

TEST(ArcResultCacheTest, StaleRejectionDemotesAndRecovers) {
  ArcResultCache cache(4, "serve_test.arc_stale");
  const TimePoint wm = At("2026-03-10 00:00");
  cache.Put("k", MakeEntry(1.0, wm));
  auto stale = cache.Get(
      "k", [](const ArcResultCache::Entry&) { return false; });
  EXPECT_FALSE(stale.has_value());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale_rejections, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.resident, 0u) << "the stale entry must be dropped";
  // The demoted key is a ghost now: a fresh-predicate Get still misses.
  EXPECT_FALSE(cache.Get("k", kAlwaysFresh).has_value());
  // Re-Put after recompute works and the key serves again.
  cache.Put("k", MakeEntry(2.0, wm + Duration::Minutes(1)));
  auto entry = cache.Get("k", kAlwaysFresh);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->response->fleet.performance, 2.0);
}

// ---------------------------------------------------------------------------
// DrilldownCube

std::vector<VmCdiRecord> CubeRows() {
  auto row = [](const std::string& id, const std::string& region,
                const std::string& az, double u, double p, double c,
                int64_t service_minutes) {
    VmCdiRecord rec;
    rec.vm_id = id;
    rec.dims = {{"region", region}, {"az", az}};
    rec.cdi.unavailability = u;
    rec.cdi.performance = p;
    rec.cdi.control_plane = c;
    rec.cdi.service_time = Duration::Minutes(service_minutes);
    return rec;
  };
  // Awkward doubles on purpose: the bit-identity comparison must survive
  // values with no short decimal representation.
  return {row("vm-a", "r0", "z0", 1.0 / 3.0, 2.0 / 7.0, 0.1, 1440),
          row("vm-b", "r0", "z1", 0.0, 1.0 / 9.0, 0.2, 720),
          row("vm-c", "r1", "z0", 1.0 / 11.0, 0.5, 1.0 / 13.0, 960)};
}

/// Wraps rows as the pulled result a query service hands its cube.
std::shared_ptr<const DailyCdiResult> AsDetail(std::vector<VmCdiRecord> rows) {
  auto detail = std::make_shared<DailyCdiResult>();
  detail->per_vm = std::move(rows);
  return detail;
}

void ExpectDrilldownIdentical(const DrilldownResult& want,
                              const DrilldownResult& got,
                              const std::string& what) {
  ASSERT_EQ(want.groups.size(), got.groups.size()) << what;
  for (size_t i = 0; i < want.groups.size(); ++i) {
    const DrilldownGroup& w = want.groups[i];
    const DrilldownGroup& g = got.groups[i];
    EXPECT_EQ(w.values, g.values) << what << " group " << i;
    EXPECT_EQ(w.key, g.key) << what << " group " << i;
    EXPECT_EQ(w.vm_count, g.vm_count) << what << " " << w.key;
    EXPECT_EQ(w.cdi.unavailability, g.cdi.unavailability) << what << " "
                                                          << w.key;
    EXPECT_EQ(w.cdi.performance, g.cdi.performance) << what << " " << w.key;
    EXPECT_EQ(w.cdi.control_plane, g.cdi.control_plane) << what << " "
                                                        << w.key;
    EXPECT_EQ(w.cdi.service_time, g.cdi.service_time) << what << " " << w.key;
    EXPECT_EQ(w.quality.degraded, g.quality.degraded) << what << " " << w.key;
  }
  EXPECT_EQ(want.records_scanned, got.records_scanned) << what;
  EXPECT_EQ(want.records_filtered, got.records_filtered) << what;
}

TEST(DrilldownCubeTest, RequiresLoadedSnapshot) {
  DrilldownCube cube("serve_test.cube_unloaded");
  auto result = cube.Answer(DrilldownQuery{.dimensions = {"region"}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DrilldownCubeTest, PropagatesQueryValidation) {
  DrilldownCube cube("serve_test.cube_invalid");
  cube.Refresh(AsDetail(CubeRows()), At("2026-03-10 00:00"));
  EXPECT_EQ(cube.Answer(DrilldownQuery{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      cube.Answer(DrilldownQuery{.dimensions = {"region", "region"}})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(cube.Answer(DrilldownQuery{.dimensions = {""}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DrilldownCubeTest, AnswerBitIdenticalToRunDrilldown) {
  DrilldownCube cube("serve_test.cube_bits");
  const std::vector<VmCdiRecord> rows = CubeRows();
  cube.Refresh(AsDetail(rows), At("2026-03-10 00:00"));
  const DrilldownQuery queries[] = {
      {.dimensions = {"region"}},
      {.dimensions = {"region", "az"}},
      {.dimensions = {"az"}, .filter = {{"region", "r0"}}},
      {.dimensions = {"missing_dim"}},
  };
  for (const DrilldownQuery& q : queries) {
    auto from_cube = cube.Answer(q);
    auto reference = RunDrilldown(rows, q);
    ASSERT_TRUE(from_cube.ok()) << from_cube.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectDrilldownIdentical(*reference, *from_cube, "cube vs RunDrilldown");
  }
}

TEST(DrilldownCubeTest, RefreshReusesUnchangedGroups) {
  DrilldownCube cube("serve_test.cube_reuse");
  std::vector<VmCdiRecord> rows = CubeRows();
  cube.Refresh(AsDetail(rows), At("2026-03-10 00:00"));
  const DrilldownQuery query{.dimensions = {"region"}};
  ASSERT_TRUE(cube.Answer(query).ok());
  const CubeStats first = cube.stats();
  EXPECT_EQ(first.groups_recomputed, 2u);  // r0 and r1
  EXPECT_EQ(first.groups_reused, 0u);

  // Identical rows: every group's fold must be reused, none recomputed.
  cube.Refresh(AsDetail(rows), At("2026-03-10 00:05"));
  ASSERT_TRUE(cube.Answer(query).ok());
  const CubeStats second = cube.stats();
  EXPECT_EQ(second.groups_reused, 2u);
  EXPECT_EQ(second.groups_recomputed, 2u);

  // One changed row: only its group refolds, the quiet one is reused.
  rows[2].cdi.performance = 0.75;  // vm-c, the sole member of r1
  cube.Refresh(AsDetail(rows), At("2026-03-10 00:10"));
  auto answer = cube.Answer(query);
  ASSERT_TRUE(answer.ok());
  const CubeStats third = cube.stats();
  EXPECT_EQ(third.groups_reused, 3u);       // +1: r0 survived the change
  EXPECT_EQ(third.groups_recomputed, 3u);   // +1: r1 refolded
  auto reference = RunDrilldown(rows, query);
  ASSERT_TRUE(reference.ok());
  ExpectDrilldownIdentical(*reference, *answer, "post-change refresh");
}

TEST(DrilldownCubeTest, NegativeZeroIsAChange) {
  DrilldownCube cube("serve_test.cube_negzero");
  std::vector<VmCdiRecord> rows = CubeRows();
  rows[1].cdi.unavailability = 0.0;
  cube.Refresh(AsDetail(rows), At("2026-03-10 00:00"));
  const DrilldownQuery query{.dimensions = {"az"}};
  ASSERT_TRUE(cube.Answer(query).ok());
  const uint64_t recomputed = cube.stats().groups_recomputed;
  rows[1].cdi.unavailability = -0.0;  // == under operator==, different bits
  cube.Refresh(AsDetail(rows), At("2026-03-10 00:05"));
  ASSERT_TRUE(cube.Answer(query).ok());
  EXPECT_GT(cube.stats().groups_recomputed, recomputed)
      << "bitwise reuse test must treat -0.0 as a change";
}

TEST(DrilldownCubeTest, RefreshSharesTheSnapshotAndReleasesThePrevious) {
  DrilldownCube cube("serve_test.cube_share");
  const std::shared_ptr<const DailyCdiResult> first = AsDetail(CubeRows());
  cube.Refresh(first, At("2026-03-10 00:00"));
  EXPECT_EQ(cube.detail(), first) << "the cube must not copy the rows";
  ASSERT_TRUE(cube.Answer(DrilldownQuery{.dimensions = {"region"}}).ok());

  const std::weak_ptr<const DailyCdiResult> released = first;
  cube.Refresh(AsDetail(CubeRows()), At("2026-03-10 00:05"));
  EXPECT_EQ(released.use_count(), 1) << "only the test still holds it";
  EXPECT_EQ(cube.stats().groups_reused, 2u);
}

// ---------------------------------------------------------------------------
// Heatmap

TEST(HeatmapTest, ValidatesSpec) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  EventLog log;
  const TimePoint start = At("2026-03-10 00:00");
  const Interval day(start, start + Duration::Hours(24));
  const EventSpan span = log.QueryAll(day);

  HeatmapSpec empty_window;
  empty_window.window = Interval(start, start);
  EXPECT_EQ(BuildHeatmap(span, catalog, {}, empty_window).status().code(),
            StatusCode::kInvalidArgument);

  HeatmapSpec zero_buckets{.window = day, .buckets = 0};
  EXPECT_EQ(BuildHeatmap(span, catalog, {}, zero_buckets).status().code(),
            StatusCode::kInvalidArgument);

  HeatmapSpec too_many{.window = day, .buckets = 4097};
  EXPECT_EQ(BuildHeatmap(span, catalog, {}, too_many).status().code(),
            StatusCode::kInvalidArgument);

  HeatmapSpec no_dim{.window = day, .buckets = 24, .group_dim = ""};
  EXPECT_EQ(BuildHeatmap(span, catalog, {}, no_dim).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HeatmapTest, DamageMinutesMath) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const TimePoint start = At("2026-03-10 00:00");
  // 12 one-hour buckets over the first half of the day.
  const Interval window(start, start + Duration::Hours(12));

  EventLog log;
  auto put = [&log, start](const std::string& name, const std::string& target,
                           int64_t minute,
                           std::map<std::string, std::string> attrs = {}) {
    RawEvent ev;
    ev.name = name;
    ev.target = target;
    ev.time = start + Duration::Minutes(minute);
    ev.attrs = std::move(attrs);
    log.Append(ev);
  };
  // slow_io: performance, 1-minute window -> [30, 31) in bucket 0.
  put("slow_io", "vm-a", 30);
  // vm_crash: unavailability, 1-minute window -> bucket 0.
  put("vm_crash", "vm-a", 30);
  // api_error: control plane, 1-minute window -> minute 90, bucket 1.
  put("api_error", "vm-a", 90);
  // vm_reboot is kLoggedDuration: the event stamps the END of impact. With
  // the catalog default of 2 minutes, a stamp at minute 61 means impact
  // [59, 61) — one minute in bucket 0 and one in bucket 1.
  put("vm_reboot", "vm-b", 61);
  // Explicit duration_ms overrides the default: 60s ending at minute 120
  // is [119, 120), entirely in bucket 1.
  put("vm_reboot", "vm-b", 120, {{"duration_ms", "60000"}});
  // Unknown name: counted, contributes nothing.
  put("bogus_event", "vm-a", 30);
  // Unmapped target: lands in the "" row.
  put("slow_io", "vm-x", 30);
  // Outside the 12h window: invisible to the heatmap.
  put("vm_crash", "vm-a", 13 * 60);

  const std::map<std::string, Placement> dims = {
      {"vm-a", {{"region", "rA"}, {"az", "rA-az0"}}},
      {"vm-b", {{"region", "rB"}}},
  };
  HeatmapSpec spec{.window = window, .buckets = 12, .group_dim = "region"};
  auto grid_or = BuildHeatmap(log.QueryAll(window), catalog, dims, spec);
  ASSERT_TRUE(grid_or.ok()) << grid_or.status().ToString();
  const HeatmapGrid& grid = *grid_or;

  ASSERT_EQ(grid.row_keys, (std::vector<std::string>{"", "rA", "rB"}));
  EXPECT_EQ(grid.buckets, 12u);
  EXPECT_EQ(grid.bucket_width_ms, Duration::Hours(1).millis());
  EXPECT_EQ(grid.targets_unmapped, 1u);
  EXPECT_EQ(grid.events_unknown, 1u);

  auto cell = [&grid](const std::vector<double>& plane, size_t row,
                      size_t bucket) {
    return plane[grid.CellIndex(row, bucket)];
  };
  // Row 1 = rA.
  EXPECT_EQ(cell(grid.performance, 1, 0), 1.0);
  EXPECT_EQ(cell(grid.unavailability, 1, 0), 1.0);
  EXPECT_EQ(cell(grid.control_plane, 1, 1), 1.0);
  // Row 2 = rB: the default-duration reboot straddles the bucket edge, the
  // explicit-duration one lands in bucket 1 -> 1.0 + (1.0 + 1.0).
  EXPECT_EQ(cell(grid.unavailability, 2, 0), 1.0);
  EXPECT_EQ(cell(grid.unavailability, 2, 1), 2.0);
  // Row 0 = "" (unmapped vm-x).
  EXPECT_EQ(cell(grid.performance, 0, 0), 1.0);
  // Nothing leaked into later buckets.
  for (size_t b = 2; b < grid.buckets; ++b) {
    for (size_t r = 0; r < grid.rows(); ++r) {
      EXPECT_EQ(cell(grid.unavailability, r, b), 0.0) << r << "," << b;
      EXPECT_EQ(cell(grid.performance, r, b), 0.0) << r << "," << b;
      EXPECT_EQ(cell(grid.control_plane, r, b), 0.0) << r << "," << b;
    }
  }
}

TEST(HeatmapTest, JsonIsStrictAndComplete) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const TimePoint start = At("2026-03-10 00:00");
  const Interval day(start, start + Duration::Hours(24));
  EventLog log;
  RawEvent ev;
  ev.name = "slow_io";
  ev.target = "vm-a";
  ev.time = start + Duration::Minutes(10);
  log.Append(ev);

  const std::map<std::string, Placement> dims = {
      {"vm-a", {{"region", "r\"quoted\""}}}};
  HeatmapSpec spec{.window = day, .buckets = 24, .group_dim = "region"};
  auto grid = BuildHeatmap(log.QueryAll(day), catalog, dims, spec);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();

  const std::string json = RenderHeatmapJson(spec, *grid);
  testjson::JsonValue doc;
  std::string error;
  ASSERT_TRUE(testjson::ParseStrictJson(json, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  const testjson::JsonValue* rows = doc.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_EQ(rows->array[0].str, "r\"quoted\"");
  for (const char* plane : {"unavailability", "performance", "control_plane"}) {
    const testjson::JsonValue* p = doc.Find(plane);
    ASSERT_NE(p, nullptr) << plane;
    ASSERT_TRUE(p->is_array()) << plane;
    ASSERT_EQ(p->array.size(), 1u) << plane;
    EXPECT_EQ(p->array[0].array.size(), 24u) << plane;
  }
  const testjson::JsonValue* spec_echo = doc.Find("spec");
  ASSERT_NE(spec_echo, nullptr);
  EXPECT_EQ(spec_echo->Find("group_dim")->str, "region");
  EXPECT_EQ(doc.Find("targets_unmapped")->number, 0.0);
  EXPECT_EQ(doc.Find("events_unknown")->number, 0.0);
}

// ---------------------------------------------------------------------------
// CdiQueryService over a fake source

/// A CdiReadSource the test controls completely: settable watermark, a
/// canned result and a pull counter.
class FakeSource : public CdiReadSource {
 public:
  FakeSource() {
    wm_ = At("2026-03-10 12:00");
    result_.fleet.unavailability = 1.0 / 3.0;
    result_.fleet.performance = 2.0 / 7.0;
    result_.fleet.control_plane = 0.125;
    result_.fleet.service_time = Duration::Minutes(4 * 1440);
    result_.fleet_baseline.interruption_count = 3;
    result_.fleet_baseline.downtime_percentage = 1.0 / 17.0;
    result_.vms_deferred = 0;
    auto row = [](const std::string& id, const std::string& region,
                  const std::string& az, double p) {
      VmCdiRecord rec;
      rec.vm_id = id;
      rec.dims = {{"region", region}, {"az", az}};
      rec.cdi.performance = p;
      rec.cdi.service_time = Duration::Minutes(1440);
      return rec;
    };
    result_.per_vm = {row("vm-a", "r0", "z0", 1.0 / 3.0),
                      row("vm-b", "r0", "z1", 0.25),
                      row("vm-c", "r1", "z0", 1.0 / 7.0),
                      row("vm-d", "r1", "z1", 0.5)};
    result_.vms_evaluated = result_.per_vm.size();
  }

  std::string_view name() const override { return "fake"; }

  TimePoint watermark() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return wm_;
  }

  StatusOr<DailyCdiResult> Pull(const Deadline& deadline) override {
    (void)deadline;
    std::lock_guard<std::mutex> lock(mu_);
    ++pulls_;
    DailyCdiResult copy = result_;
    return copy;
  }

  StatusOr<VmCdi> QuickFleetCdi() override {
    return Status::Internal("the service must answer from Pull");
  }

  void AdvanceWatermark(Duration by) {
    std::lock_guard<std::mutex> lock(mu_);
    wm_ += by;
  }

  size_t pulls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pulls_;
  }
  DailyCdiResult result() const {
    std::lock_guard<std::mutex> lock(mu_);
    return result_;
  }

 private:
  mutable std::mutex mu_;
  size_t pulls_ = 0;
  TimePoint wm_;
  DailyCdiResult result_;
};

TEST(CdiQueryServiceTest, RejectsMalformedQueries) {
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_bad"});
  CdiQuery dup;
  dup.group_by = {"region", "region"};
  EXPECT_EQ(service.Query(dup).status().code(), StatusCode::kInvalidArgument);
  CdiQuery empty_dim;
  empty_dim.group_by = {""};
  EXPECT_EQ(service.Query(empty_dim).status().code(),
            StatusCode::kInvalidArgument);
  CdiQuery empty_filter;
  empty_filter.filter = {{"", "x"}};
  EXPECT_EQ(service.Query(empty_filter).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(source.pulls(), 0u) << "invalid queries must not reach the source";
}

TEST(CdiQueryServiceTest, FreshAlwaysPulls) {
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_fresh"});
  CdiQuery q;
  q.consistency = Consistency::kFresh;
  q.group_by = {"az"};
  for (int i = 0; i < 2; ++i) {
    auto response = service.Query(q);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->served_from_cache);
    EXPECT_FALSE(response->served_from_cube);
    EXPECT_EQ(response->staleness, Duration::Zero());
  }
  EXPECT_EQ(source.pulls(), 2u);
  EXPECT_EQ(service.stats().source_pulls, 2u);
}

TEST(CdiQueryServiceTest, CachedHitsUntilWatermarkAdvances) {
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_cached"});
  CdiQuery q;
  q.consistency = Consistency::kCached;
  q.group_by = {"az"};

  auto first = service.Query(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->served_from_cache);
  EXPECT_EQ(source.pulls(), 1u);

  auto second = service.Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->served_from_cache);
  EXPECT_EQ(source.pulls(), 1u) << "cache hit must not touch the source";
  EXPECT_EQ(service.stats().cache_hits, 1u);
  // The cached answer is the same bits.
  EXPECT_EQ(first->fleet.unavailability, second->fleet.unavailability);
  EXPECT_EQ(first->fleet.performance, second->fleet.performance);
  ASSERT_EQ(first->drilldown.groups.size(), second->drilldown.groups.size());
  for (size_t i = 0; i < first->drilldown.groups.size(); ++i) {
    EXPECT_EQ(first->drilldown.groups[i].cdi.performance,
              second->drilldown.groups[i].cdi.performance);
  }

  // Watermark advance invalidates: the next kCached query re-pulls.
  source.AdvanceWatermark(Duration::Minutes(1));
  auto third = service.Query(q);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->served_from_cache);
  EXPECT_EQ(source.pulls(), 2u);
  EXPECT_GE(service.cache_stats().stale_rejections, 1u);
}

TEST(CdiQueryServiceTest, StaleOkServesFromCubeWithinBound) {
  FakeSource source;
  // Cache off, cubes on: isolates the cube consistency path.
  CdiQueryService service(&source, {.cache_entries = 0,
                                    .materialize_cubes = true,
                                    .metric_prefix = "serve_test.svc_stale"});
  CdiQuery warm;
  warm.consistency = Consistency::kFresh;
  warm.group_by = {"region"};
  ASSERT_TRUE(service.Query(warm).ok());
  ASSERT_EQ(source.pulls(), 1u);

  source.AdvanceWatermark(Duration::Minutes(2));
  CdiQuery q;
  q.consistency = Consistency::kStaleOk;
  q.max_staleness = Duration::Minutes(5);
  q.group_by = {"region"};
  auto bounded = service.Query(q);
  ASSERT_TRUE(bounded.ok());
  EXPECT_TRUE(bounded->served_from_cube);
  EXPECT_EQ(bounded->staleness, Duration::Minutes(2));
  EXPECT_EQ(source.pulls(), 1u) << "lag within the bound must not pull";
  EXPECT_EQ(service.stats().cube_answers, 1u);

  source.AdvanceWatermark(Duration::Minutes(10));
  auto beyond = service.Query(q);
  ASSERT_TRUE(beyond.ok());
  EXPECT_FALSE(beyond->served_from_cube);
  EXPECT_EQ(source.pulls(), 2u) << "lag beyond the bound must re-pull";
}

TEST(CdiQueryServiceTest, FleetOnlyQueryAnswersFromThePull) {
  // One fleet value per source: a fleet-only query returns the pulled
  // result's fleet, the same bits as the engines' FleetCdi(), and never
  // takes a second path (the fake's QuickFleetCdi fails).
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_fleet"});
  CdiQuery q;
  q.consistency = Consistency::kFresh;
  auto fresh = service.Query(q);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->fleet.performance, source.result().fleet.performance);
  q.consistency = Consistency::kCached;
  auto cached = service.Query(q);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached->served_from_cache);
  EXPECT_EQ(cached->fleet.performance, fresh->fleet.performance);
  EXPECT_EQ(source.pulls(), 1u);
}

TEST(CdiQueryServiceTest, ExpiredDeadlineIsRejectedBeforeServing) {
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_dl"});
  CdiQuery q;
  q.deadline = Deadline::After(Duration::Zero());
  auto response = service.Query(q);
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().deadline_rejections, 1u);
  EXPECT_EQ(source.pulls(), 0u);
}

TEST(CdiQueryServiceTest, CacheHitSharesDetailPayload) {
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_detail"});
  CdiQuery q;
  q.consistency = Consistency::kCached;
  q.include_detail = true;
  auto first = service.Query(q);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->detail, nullptr);
  auto second = service.Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->served_from_cache);
  EXPECT_EQ(first->detail.get(), second->detail.get())
      << "a cache hit hands out the same immutable payload";
  EXPECT_EQ(first->detail->per_vm.size(), source.result().per_vm.size());
}

TEST(CdiQueryServiceTest, CubesOffMatchesCubesOnBitwise) {
  FakeSource source;
  CdiQueryService on(&source, {.cache_entries = 8,
                               .materialize_cubes = true,
                               .metric_prefix = "serve_test.svc_on"});
  CdiQueryService off(&source, {.cache_entries = 0,
                                .materialize_cubes = false,
                                .metric_prefix = "serve_test.svc_off"});
  CdiQuery q;
  q.consistency = Consistency::kCached;
  q.group_by = {"region", "az"};
  auto a = on.Query(q);
  auto b = off.Query(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->fleet.unavailability, b->fleet.unavailability);
  EXPECT_EQ(a->fleet.performance, b->fleet.performance);
  EXPECT_EQ(a->fleet.control_plane, b->fleet.control_plane);
  ASSERT_EQ(a->drilldown.groups.size(), b->drilldown.groups.size());
  for (size_t i = 0; i < a->drilldown.groups.size(); ++i) {
    EXPECT_EQ(a->drilldown.groups[i].key, b->drilldown.groups[i].key);
    EXPECT_EQ(a->drilldown.groups[i].cdi.performance,
              b->drilldown.groups[i].cdi.performance);
    EXPECT_EQ(a->drilldown.groups[i].cdi.service_time,
              b->drilldown.groups[i].cdi.service_time);
  }
}

TEST(CdiQueryServiceTest, ResponseJsonIsStrict) {
  FakeSource source;
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_json"});
  CdiQuery q;
  q.consistency = Consistency::kCached;
  q.group_by = {"region"};
  q.filter = {{"az", "z\"0"}};
  q.include_detail = true;
  auto response = service.Query(q);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const std::string json = RenderResponseJson(q, *response);
  testjson::JsonValue doc;
  std::string error;
  ASSERT_TRUE(testjson::ParseStrictJson(json, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  const testjson::JsonValue* query_echo = doc.Find("query");
  ASSERT_NE(query_echo, nullptr);
  EXPECT_EQ(query_echo->Find("consistency")->str, "cached");
  const testjson::JsonValue* fleet = doc.Find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_TRUE(fleet->Find("cdi_u")->is_number());
  const testjson::JsonValue* groups = doc.Find("groups");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(groups->array.size(), response->drilldown.groups.size());
  const testjson::JsonValue* detail = doc.Find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(detail->Find("per_vm_rows")->number,
            static_cast<double>(response->detail->per_vm.size()));
  EXPECT_EQ(doc.Find("served_from_cache")->kind,
            testjson::JsonValue::Kind::kBool);
}

// ---------------------------------------------------------------------------
// CdiQueryService under concurrent readers and a live writer

TEST(CdiQueryServiceConcurrentTest, ReadersRacingIngestStayOkAndMonotonic) {
  const testutil::Scenario sc = testutil::MakeScenario(11);
  testutil::ShardEquivalenceHarness harness;
  StreamingCdiOptions opts;
  opts.window = sc.day;
  auto engine_or = StreamingCdiEngine::Create(&harness.catalog(),
                                              &harness.weights(), opts);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  StreamingCdiEngine engine = std::move(engine_or).value();
  for (const VmServiceInfo& vm : sc.vms) {
    ASSERT_TRUE(engine.RegisterVm(vm).ok());
  }
  EngineSource source(&engine);
  CdiQueryService service(&source, {.metric_prefix = "serve_test.svc_conc"});

  constexpr int kReaders = 3;
  constexpr int kMinQueries = 20;
  // Every thread waits at this barrier so the writer's whole day races
  // the readers instead of finishing before they start.
  std::atomic<int> arrived{0};
  auto start_together = [&arrived] {
    arrived.fetch_add(1);
    while (arrived.load() < kReaders + 1) std::this_thread::yield();
  };

  // The writer ingests the day and pushes the watermark forward while the
  // readers query; it finishes by closing the day.
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    start_together();
    for (size_t i = 0; i < sc.arrivals.size(); ++i) {
      EXPECT_TRUE(engine.Ingest(sc.arrivals[i]).ok());
      if (i % 8 == 7) engine.AdvanceWatermarkTo(sc.arrivals[i].time);
    }
    engine.AdvanceWatermarkTo(sc.day.end);
    writing.store(false, std::memory_order_release);
  });

  // kFresh and kCached answers are stamped with the watermark read at the
  // start of the query, and the engine's watermark never regresses, so
  // within one reader as_of_watermark must never go backwards.
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      start_together();
      TimePoint last;
      for (int i = 0;
           i < kMinQueries || writing.load(std::memory_order_acquire); ++i) {
        CdiQuery q;
        switch ((t + i) % 3) {
          case 0:
            q.consistency = Consistency::kFresh;
            break;
          case 1:
            q.consistency = Consistency::kCached;
            q.group_by = {"az"};
            break;
          default:
            q.consistency = Consistency::kCached;
            q.group_by = {"region", "az"};
            break;
        }
        auto response = service.Query(q);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        if (i > 0) {
          EXPECT_GE(response->as_of_watermark, last)
              << "reader " << t << " query " << i;
        }
        last = response->as_of_watermark;
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  CdiQuery fleet;
  fleet.consistency = Consistency::kFresh;
  auto final_answer = service.Query(fleet);
  ASSERT_TRUE(final_answer.ok()) << final_answer.status().ToString();
  auto snapshot = engine.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(final_answer->fleet.unavailability, snapshot->fleet.unavailability);
  EXPECT_EQ(final_answer->fleet.performance, snapshot->fleet.performance);
  EXPECT_EQ(final_answer->fleet.control_plane, snapshot->fleet.control_plane);
  EXPECT_EQ(final_answer->fleet.service_time, snapshot->fleet.service_time);
  EXPECT_EQ(final_answer->as_of_watermark, engine.watermark());
}

}  // namespace
}  // namespace cdibot::serve
