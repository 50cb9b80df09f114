// Unit tests for the shard map and coordinator, plus the TSan-targeted
// *Concurrent* suite (gathers racing ingest, rebalance, shard failure and
// recovery, and the heartbeat prober racing caller RPCs). The concurrent
// tests are written to race if the coordinator's locking does: gathers
// take the topology lock shared while rebalance / failure / recovery take
// it exclusive, and each shard channel is serialized by a per-handle
// mutex. scripts/check.sh runs the *Concurrent* filter under TSan as the
// referee.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "shard/coordinator.h"
#include "shard/message.h"
#include "shard/shard_map.h"
#include "weights/event_weights.h"

namespace cdibot::shard {
namespace {

// --- ShardMap --------------------------------------------------------------

std::vector<std::string> Ids(int n) {
  std::vector<std::string> ids;
  for (int i = 0; i < n; ++i) {
    std::string id = "vm-";
    if (i < 10) id += "0";
    id += std::to_string(i);
    ids.push_back(std::move(id));
  }
  return ids;
}

TEST(ShardMapTest, EverythingMapsToShardZeroUntilAssigned) {
  ShardMap map(3);
  EXPECT_EQ(map.OwnerOf(""), 0u);
  EXPECT_EQ(map.OwnerOf("vm-5"), 0u);
  EXPECT_EQ(map.OwnerOf("zzz"), 0u);
}

TEST(ShardMapTest, BalancedCutsContiguousNearEqualRuns) {
  const auto ids = Ids(12);
  const ShardMap map = ShardMap::Balanced(ids, 4);
  size_t prev = 0;
  std::vector<size_t> counts(4, 0);
  for (const std::string& id : ids) {
    const size_t owner = map.OwnerOf(id);
    ASSERT_LT(owner, 4u);
    ASSERT_GE(owner, prev) << "ownership must be non-decreasing over sorted "
                              "ids (contiguous ranges)";
    prev = owner;
    ++counts[owner];
  }
  for (size_t c : counts) EXPECT_EQ(c, 3u);
}

TEST(ShardMapTest, BalancedIsDeterministic) {
  const auto ids = Ids(17);
  const ShardMap a = ShardMap::Balanced(ids, 5);
  const ShardMap b = ShardMap::Balanced(ids, 5);
  for (const std::string& id : ids) {
    EXPECT_EQ(a.OwnerOf(id), b.OwnerOf(id)) << id;
  }
}

TEST(ShardMapTest, BalancedWithFewerIdsThanShards) {
  const auto ids = Ids(2);
  const ShardMap map = ShardMap::Balanced(ids, 5);
  // Every id still has exactly one owner in range.
  for (const std::string& id : ids) EXPECT_LT(map.OwnerOf(id), 5u);
}

TEST(ShardMapTest, AssignSplitsAtHalfOpenBoundaries) {
  ShardMap map = ShardMap::Balanced(Ids(12), 3);
  map.Assign({.lo = "vm-04", .hi = "vm-06"}, 2);
  EXPECT_EQ(map.OwnerOf("vm-04"), 2u);  // lo inclusive
  EXPECT_EQ(map.OwnerOf("vm-05"), 2u);
  EXPECT_NE(map.OwnerOf("vm-06"), 2u);  // hi exclusive
  EXPECT_EQ(map.OwnerOf("vm-03"), 0u);  // untouched below
}

TEST(ShardMapTest, AssignUnboundedTail) {
  ShardMap map = ShardMap::Balanced(Ids(6), 2);
  map.Assign({.lo = "vm-04", .hi = std::nullopt}, 0);
  EXPECT_EQ(map.OwnerOf("vm-04"), 0u);
  EXPECT_EQ(map.OwnerOf("zzzz"), 0u);
}

TEST(ShardMapTest, DiffMovesTransformFromIntoTo) {
  const auto ids = Ids(20);
  ShardMap from = ShardMap::Balanced(ids, 4);
  ShardMap to = ShardMap::Balanced(ids, 3);
  const auto moves = ShardMap::Diff(from, to);
  for (const ShardMap::Move& m : moves) {
    EXPECT_EQ(from.OwnerOf(m.range.lo), m.from);
    EXPECT_EQ(to.OwnerOf(m.range.lo), m.to);
    from.Assign(m.range, m.to);
  }
  for (const std::string& id : ids) {
    EXPECT_EQ(from.OwnerOf(id), to.OwnerOf(id)) << id;
  }
  // Probe boundaries between ids too, not only the ids themselves.
  EXPECT_EQ(from.OwnerOf("vm-05x"), to.OwnerOf("vm-05x"));
  EXPECT_EQ(from.OwnerOf(""), to.OwnerOf(""));
}

TEST(ShardMapTest, DiffOfIdenticalMapsIsEmpty) {
  const ShardMap map = ShardMap::Balanced(Ids(9), 3);
  EXPECT_TRUE(ShardMap::Diff(map, map).empty());
}

// --- Wire decode -----------------------------------------------------------

VmCdiRecord VmRow(const std::string& id, Placement dims) {
  VmCdiRecord row;
  row.vm_id = id;
  row.dims = std::move(dims);
  return row;
}

EventCdiRecord EventRow(const std::string& id, const std::string& name,
                        Placement dims) {
  EventCdiRecord row;
  row.vm_id = id;
  row.event_name = name;
  row.damage_minutes = 1.0;
  row.dims = std::move(dims);
  return row;
}

TEST(ShardWireTest, DecodedEventRowsShareTheirVmRowPlacement) {
  ShardSnapshot sent;
  DailyCdiResult& rows = sent.result;
  rows.per_vm = {VmRow("vm-a", {{"region", "r0"}, {"nc", "nc1"}}),
                 VmRow("vm-b", {{"region", "r0"}, {"nc", "nc2"}}),
                 VmRow("vm-c", {{"region", "r1"}}), VmRow("vm-d", {})};
  // Every event row carries its own, separately built map, as rows decoded
  // from a worker did before sharing; vm-c's event row disagrees with its
  // VM row and must keep its own dims.
  rows.per_event = {
      EventRow("vm-a", "slow_io", {{"region", "r0"}, {"nc", "nc1"}}),
      EventRow("vm-a", "vcpu_high", {{"region", "r0"}, {"nc", "nc1"}}),
      EventRow("vm-b", "slow_io", {{"region", "r0"}, {"nc", "nc2"}}),
      EventRow("vm-c", "slow_io", {{"region", "r2"}}),
      EventRow("vm-d", "slow_io", {})};
  WireWriter w;
  EncodeSnapshot(w, sent);
  const std::string frame = std::move(w).Take();
  WireReader r(frame);
  const ShardSnapshot got = DecodeSnapshot(r);
  ASSERT_TRUE(r.ok());
  const DailyCdiResult& back = got.result;
  ASSERT_EQ(back.per_vm.size(), 4u);
  ASSERT_EQ(back.per_event.size(), 5u);

  for (size_t i = 0; i < back.per_event.size(); ++i) {
    EXPECT_EQ(back.per_event[i].dims, rows.per_event[i].dims) << i;
  }
  EXPECT_EQ(&back.per_event[0].dims.map(), &back.per_vm[0].dims.map());
  EXPECT_EQ(&back.per_event[1].dims.map(), &back.per_vm[0].dims.map());
  EXPECT_EQ(&back.per_event[2].dims.map(), &back.per_vm[1].dims.map());
  EXPECT_NE(&back.per_event[3].dims.map(), &back.per_vm[2].dims.map());
  EXPECT_TRUE(back.per_event[4].dims.empty());

  // The bytes do not depend on sharing: re-encoding the decoded snapshot
  // reproduces the frame.
  WireWriter again;
  EncodeSnapshot(again, got);
  EXPECT_EQ(std::move(again).Take(), frame);
}

// --- Coordinator -----------------------------------------------------------

class ShardCoordinatorTest : public ::testing::Test {
 protected:
  ShardCoordinatorTest() : catalog_(EventCatalog::BuiltIn()) {
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"packet_loss", 60}, {"vcpu_high", 40},
         {"vm_start_failed", 20}},
        4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
    day_ = Interval(TimePoint::Parse("2026-03-10 00:00").value(),
                    TimePoint::Parse("2026-03-11 00:00").value());
  }

  std::unique_ptr<ShardCoordinator> MakeFleet(
      size_t shards, int vms, ShardTopologyOptions topo = {}) {
    topo.num_shards = shards;
    topo.engine.window = day_;
    auto coord = ShardCoordinator::Create(&catalog_, &*weights_, topo);
    EXPECT_TRUE(coord.ok()) << coord.status().ToString();
    std::vector<VmServiceInfo> fleet;
    for (const std::string& id : Ids(vms)) {
      VmServiceInfo vm;
      vm.vm_id = id;
      vm.service_period = day_;
      fleet.push_back(std::move(vm));
    }
    EXPECT_TRUE((*coord)->RegisterVms(fleet).ok());
    return std::move(*coord);
  }

  RawEvent Event(const std::string& target, int64_t minute,
                 const char* name = "slow_io") {
    RawEvent ev;
    ev.name = name;
    ev.time = day_.start + Duration::Minutes(minute);
    ev.target = target;
    ev.level = Severity::kCritical;
    ev.expire_interval = Duration::Hours(1);
    return ev;
  }

  EventCatalog catalog_;
  std::optional<EventWeightModel> weights_;
  Interval day_;
};

TEST_F(ShardCoordinatorTest, GatherDegradesOnDeadShardAndRecovers) {
  auto coord = MakeFleet(3, 9);
  for (int m = 0; m < 30; ++m) {
    ASSERT_TRUE(coord->Ingest(Event(Ids(9)[m % 9], 60 + m)).ok());
  }
  auto before = coord->Snapshot();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->quality.degraded);
  EXPECT_EQ(before->vms_evaluated, 9u);

  ASSERT_TRUE(coord->InjectShardFailure(1).ok());
  EXPECT_FALSE(coord->ShardAlive(1));
  auto degraded = coord->Snapshot();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->quality.degraded);
  EXPECT_GT(degraded->vms_deferred, 0u);
  EXPECT_LT(degraded->vms_evaluated, 9u);

  ASSERT_TRUE(coord->RecoverShard(1).ok());
  EXPECT_TRUE(coord->ShardAlive(1));
  auto after = coord->Snapshot();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->quality.degraded);
  // Recovery is bit-identical: checkpoint + outbox replay restore the
  // exact pre-failure state.
  EXPECT_EQ(before->fleet.unavailability, after->fleet.unavailability);
  EXPECT_EQ(before->fleet.performance, after->fleet.performance);
  EXPECT_EQ(before->fleet.control_plane, after->fleet.control_plane);

  const ShardFleetStats stats = coord->stats();
  EXPECT_EQ(stats.shard_failures, 1u);
  EXPECT_EQ(stats.shards_recovered, 1u);
  EXPECT_EQ(stats.shards_alive, 3u);
  EXPECT_GE(stats.degraded_gathers, 1u);
}

TEST_F(ShardCoordinatorTest, GatheredRowsHoldOneMapPerVm) {
  ShardTopologyOptions topo;
  topo.num_shards = 2;
  topo.engine.window = day_;
  auto coord_or = ShardCoordinator::Create(&catalog_, &*weights_, topo);
  ASSERT_TRUE(coord_or.ok()) << coord_or.status().ToString();
  ShardCoordinator& coord = **coord_or;
  std::vector<VmServiceInfo> fleet;
  for (const std::string& id : Ids(6)) {
    fleet.push_back(VmServiceInfo{
        .vm_id = id,
        .dims = {{"region", "r0"}, {"nc", "nc-" + id}},
        .service_period = day_});
  }
  ASSERT_TRUE(coord.RegisterVms(fleet).ok());
  for (int m = 0; m < 12; ++m) {
    const std::string& target = fleet[m % 6].vm_id;
    ASSERT_TRUE(coord.Ingest(Event(target, 60 + m)).ok());
    ASSERT_TRUE(coord.Ingest(Event(target, 90 + m, "packet_loss")).ok());
  }
  auto gathered = coord.Snapshot();
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  ASSERT_EQ(gathered->per_vm.size(), 6u);
  ASSERT_GE(gathered->per_event.size(), 12u);
  for (const EventCdiRecord& ev : gathered->per_event) {
    auto vm = std::find_if(
        gathered->per_vm.begin(), gathered->per_vm.end(),
        [&](const VmCdiRecord& row) { return row.vm_id == ev.vm_id; });
    ASSERT_NE(vm, gathered->per_vm.end()) << ev.vm_id;
    EXPECT_EQ(ev.dims.at("nc"), "nc-" + ev.vm_id);
    EXPECT_EQ(&ev.dims.map(), &vm->dims.map())
        << ev.vm_id << "/" << ev.event_name;
  }
}

TEST_F(ShardCoordinatorTest, SnapshotFailsOnlyWhenNoShardResponds) {
  auto coord = MakeFleet(2, 4);
  ASSERT_TRUE(coord->InjectShardFailure(0).ok());
  EXPECT_TRUE(coord->Snapshot().ok());  // one survivor: degraded, not dead
  ASSERT_TRUE(coord->InjectShardFailure(1).ok());
  const auto dead = coord->Snapshot();
  EXPECT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
}

TEST_F(ShardCoordinatorTest, EventsBufferedDuringOutageDeliverAfterRecovery) {
  auto coord = MakeFleet(2, 4);
  const std::string victim_vm = Ids(4)[0];
  const size_t owner = coord->Map().OwnerOf(victim_vm);
  ASSERT_TRUE(coord->InjectShardFailure(owner).ok());
  // Routed to the dead owner: buffered coordinator-side, not lost.
  ASSERT_TRUE(coord->Ingest(Event(victim_vm, 120)).ok());
  ASSERT_TRUE(coord->RecoverShard(owner).ok());
  auto snap = coord->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE(snap->quality.degraded);
  bool found = false;
  for (const auto& rec : snap->per_event) {
    found |= rec.vm_id == victim_vm;
  }
  EXPECT_TRUE(found) << "event ingested during the outage must surface "
                        "after recovery";
}

TEST_F(ShardCoordinatorTest, WatermarkIsMinAcrossShardsAndPinsOnFailure) {
  auto coord = MakeFleet(3, 6);
  const TimePoint t1 = day_.start + Duration::Hours(6);
  ASSERT_TRUE(coord->AdvanceWatermarkTo(t1).ok());
  EXPECT_EQ(coord->Watermark(), t1);

  ASSERT_TRUE(coord->InjectShardFailure(2).ok());
  const TimePoint t2 = day_.start + Duration::Hours(12);
  ASSERT_TRUE(coord->AdvanceWatermarkTo(t2).ok());
  // The dead shard pins the global min at its last reported value.
  EXPECT_EQ(coord->Watermark(), t1);

  ASSERT_TRUE(coord->RecoverShard(2).ok());
  // Recovery re-advances to the highest requested target.
  EXPECT_EQ(coord->Watermark(), t2);
}

TEST_F(ShardCoordinatorTest, RebalanceKeepsSnapshotStable) {
  auto coord = MakeFleet(4, 16);
  for (int m = 0; m < 64; ++m) {
    ASSERT_TRUE(coord->Ingest(Event(Ids(16)[m % 16], m)).ok());
  }
  auto before = coord->Snapshot();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(coord->Rebalance().ok());
  auto after = coord->Snapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->fleet.unavailability, after->fleet.unavailability);
  EXPECT_EQ(before->fleet.performance, after->fleet.performance);
  EXPECT_EQ(before->fleet.control_plane, after->fleet.control_plane);
  EXPECT_EQ(before->per_vm.size(), after->per_vm.size());
}

TEST_F(ShardCoordinatorTest, LateRegistrationRoutesByExistingMap) {
  auto coord = MakeFleet(2, 4);
  VmServiceInfo late;
  late.vm_id = "vm-99";
  late.service_period = day_;
  ASSERT_TRUE(coord->RegisterVm(late).ok());
  ASSERT_TRUE(coord->Ingest(Event("vm-99", 200)).ok());
  auto snap = coord->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->vms_evaluated, 5u);
}

// --- TSan-targeted concurrent suite ---------------------------------------
//
// Run under scripts/check.sh's CDIBOT_TSAN stage with
// --gtest_filter='*Concurrent*'. Iteration counts are deliberately small:
// TSan catches ordering violations on any interleaving it observes, and
// these loops force gathers, ingest, rebalance, failure and recovery to
// overlap continuously.

TEST_F(ShardCoordinatorTest, ConcurrentGathersRaceIngestAndRebalance) {
  auto coord = MakeFleet(4, 16);
  const auto ids = Ids(16);
  std::atomic<bool> stop{false};
  std::atomic<int> gather_errors{0};

  std::vector<std::thread> gatherers;
  for (int g = 0; g < 3; ++g) {
    gatherers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = coord->Snapshot();
        if (!snap.ok()) gather_errors.fetch_add(1);
      }
    });
  }
  std::thread ingester([&] {
    int m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)coord->Ingest(Event(ids[static_cast<size_t>(m) % ids.size()],
                                m % (24 * 60)));
      ++m;
    }
  });
  std::thread watermarker([&] {
    int h = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)coord->AdvanceWatermarkTo(day_.start + Duration::Minutes(h % 1440));
      (void)coord->Watermark();
      ++h;
    }
  });
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(coord->Rebalance().ok());
  }
  stop.store(true);
  for (auto& t : gatherers) t.join();
  ingester.join();
  watermarker.join();
  // All shards alive throughout: every gather must have succeeded.
  EXPECT_EQ(gather_errors.load(), 0);
  EXPECT_EQ(coord->stats().rebalances, 8u);
}

TEST_F(ShardCoordinatorTest, ConcurrentGathersRaceFailureAndRecovery) {
  auto coord = MakeFleet(4, 12);
  const auto ids = Ids(12);
  for (int m = 0; m < 24; ++m) {
    ASSERT_TRUE(coord->Ingest(Event(ids[static_cast<size_t>(m) % 12], m)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> hard_errors{0};

  std::vector<std::thread> gatherers;
  for (int g = 0; g < 3; ++g) {
    gatherers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = coord->Snapshot();
        // With at most one shard of four down, gathers degrade but never
        // fail; a failure here means the coordinator lost more state than
        // the injected fault.
        if (!snap.ok()) hard_errors.fetch_add(1);
      }
    });
  }
  std::thread ingester([&] {
    int m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)coord->Ingest(
          Event(ids[static_cast<size_t>(m) % ids.size()], m % 1440));
      ++m;
    }
  });
  for (int round = 0; round < 6; ++round) {
    const size_t victim = static_cast<size_t>(round) % 4;
    ASSERT_TRUE(coord->InjectShardFailure(victim).ok());
    ASSERT_TRUE(coord->RecoverShard(victim).ok());
  }
  stop.store(true);
  for (auto& t : gatherers) t.join();
  ingester.join();
  EXPECT_EQ(hard_errors.load(), 0);
  const ShardFleetStats stats = coord->stats();
  EXPECT_EQ(stats.shard_failures, 6u);
  EXPECT_EQ(stats.shards_recovered, 6u);
  EXPECT_EQ(stats.shards_alive, 4u);
  // The fleet must end consistent: a settled snapshot sees every VM.
  auto final_snap = coord->Snapshot();
  ASSERT_TRUE(final_snap.ok());
  EXPECT_EQ(final_snap->vms_evaluated, 12u);
  EXPECT_FALSE(final_snap->quality.degraded);
}

TEST_F(ShardCoordinatorTest, ConcurrentRegistrationRacesGathers) {
  auto coord = MakeFleet(3, 6);
  std::atomic<bool> stop{false};
  std::vector<std::thread> gatherers;
  for (int g = 0; g < 2; ++g) {
    gatherers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)coord->Snapshot();
        (void)coord->FleetCdi();
      }
    });
  }
  for (int i = 0; i < 24; ++i) {
    VmServiceInfo vm;
    vm.vm_id = "late-" + std::to_string(100 + i);
    vm.service_period = day_;
    ASSERT_TRUE(coord->RegisterVm(vm).ok());
    ASSERT_TRUE(coord->Ingest(Event(vm.vm_id, i * 10)).ok());
  }
  stop.store(true);
  for (auto& t : gatherers) t.join();
  auto snap = coord->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->vms_evaluated, 30u);
}

/// Coordinator-side transport that, while `*partitioned` is set, fails
/// every receive: requests still reach the worker, but no answer gets back.
class PartitionableTransport final : public Transport {
 public:
  PartitionableTransport(std::unique_ptr<Transport> inner,
                         std::shared_ptr<std::atomic<bool>> partitioned)
      : inner_(std::move(inner)), partitioned_(std::move(partitioned)) {}

  Status Send(std::string frame) override {
    return inner_->Send(std::move(frame));
  }
  StatusOr<std::string> Recv(const Deadline& deadline) override {
    if (partitioned_->load()) return Status::Unavailable("partitioned");
    return inner_->Recv(deadline);
  }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }
  size_t inbound_depth() const override { return inner_->inbound_depth(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::shared_ptr<std::atomic<bool>> partitioned_;
};

/// Polls `done` every millisecond for up to ten seconds.
template <typename Pred>
bool Eventually(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The heartbeat prober over real sockets: it pings idle shards, shares each
// shard's handle lock with caller RPCs (under TSan this races the probe
// thread against gathers and ingest), and counts a failed probe, dropping
// only the connection. The worker thread outlives the drop, so the next
// call redials and resumes the session with the fleet's answer unchanged.
TEST_F(ShardCoordinatorTest, ConcurrentHeartbeatsProbeIdleShardsAndRecover) {
  auto partitioned = std::make_shared<std::atomic<bool>>(false);
  ShardTopologyOptions topo;
  topo.transport = ShardTransportMode::kSocketThread;
  topo.session.heartbeat_interval = Duration::Millis(5);
  topo.transport_decorator = [partitioned](
                                 std::unique_ptr<SocketTransport> conn,
                                 size_t /*shard*/) {
    return std::unique_ptr<Transport>(
        new PartitionableTransport(std::move(conn), partitioned));
  };
  auto coord = MakeFleet(2, 8, std::move(topo));
  const auto ids = Ids(8);

  // Idle fleet: the prober alone drives heartbeats up.
  ASSERT_TRUE(Eventually([&] { return coord->stats().heartbeats >= 4; }));

  // Caller traffic racing the prober for the handle locks.
  const uint64_t beats_before = coord->stats().heartbeats;
  std::atomic<int> gather_errors{0};
  std::thread gatherer([&] {
    for (int i = 0; i < 32; ++i) {
      if (!coord->Snapshot().ok()) gather_errors.fetch_add(1);
    }
  });
  for (size_t m = 0; m < 64; ++m) {
    ASSERT_TRUE(
        coord->Ingest(Event(ids[m % ids.size()], static_cast<int64_t>(m) * 7))
            .ok());
  }
  ASSERT_TRUE(coord->Flush().ok());
  gatherer.join();
  EXPECT_EQ(gather_errors.load(), 0);
  ASSERT_TRUE(
      Eventually([&] { return coord->stats().heartbeats > beats_before; }));
  auto before = coord->Snapshot();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // A probe whose answer never arrives is a heartbeat failure, and only
  // that: the connection is dropped, the shard stays alive.
  partitioned->store(true);
  ASSERT_TRUE(
      Eventually([&] { return coord->stats().heartbeat_failures > 0; }));
  partitioned->store(false);
  EXPECT_EQ(coord->stats().shard_failures, 0u);
  EXPECT_TRUE(coord->ShardAlive(0));
  EXPECT_TRUE(coord->ShardAlive(1));

  auto after = coord->Snapshot();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(coord->stats().reconnects, 0u);
  EXPECT_EQ(after->fleet.unavailability, before->fleet.unavailability);
  EXPECT_EQ(after->fleet.performance, before->fleet.performance);
  EXPECT_EQ(after->fleet.control_plane, before->fleet.control_plane);
  EXPECT_EQ(after->vms_evaluated, before->vms_evaluated);
}

}  // namespace
}  // namespace cdibot::shard
