// Shared fixture logic for the sharded-equivalence differential suites: a
// ShardCoordinator over N workers — whatever the transport — must produce
// BIT-IDENTICAL results to a single-node engine fed the same registrations
// and events in the same order. The fleet CDI fold is exact and order-free
// on every topology and the baseline merges as raw integer sums, so every
// comparison is EXPECT_EQ on doubles, never tolerance-based.
//
// shard_equivalence_test.cc runs this over the in-process transport;
// shard_socket_equivalence_test.cc runs it over real Unix-domain sockets
// (worker threads and kill-9-able worker processes) with and without the
// network chaos layer.
#ifndef CDIBOT_TESTS_SHARD_EQUIVALENCE_HARNESS_H_
#define CDIBOT_TESTS_SHARD_EQUIVALENCE_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdi/pipeline.h"
#include "shard/coordinator.h"
#include "stream/streaming_engine.h"
#include "equivalence_scenario.h"

namespace cdibot::testutil {

/// The canonical weight recipe all equivalence suites share. As a
/// WeightSpec it also crosses the wire in kInit, and BuildWeightModel()
/// runs the exact same FromCounts/Build path as BuildWeights(), so a
/// process worker's model is bit-identical to the coordinator's.
inline shard::WeightSpec CanonicalWeightSpec() {
  shard::WeightSpec spec;
  spec.ticket_counts = {{"slow_io", 100},
                        {"packet_loss", 60},
                        {"vcpu_high", 40},
                        {"vm_start_failed", 20}};
  spec.ticket_levels = 4;
  return spec;
}

inline EventWeightModel BuildCanonicalWeights() {
  return shard::BuildWeightModel(CanonicalWeightSpec()).value();
}

/// Per-run knobs for RunSharded.
struct ShardRunOptions {
  /// Kill shard (seed % num_shards) at the three-quarter mark, assert the
  /// degraded gather, then recover it.
  bool inject_failure = false;
  /// Applied to the topology options after the defaults (transport mode,
  /// session tuning, chaos decorator, worker binary...).
  std::function<void(shard::ShardTopologyOptions&)> configure{};
};

class ShardEquivalenceHarness {
 public:
  ShardEquivalenceHarness()
      : catalog_(EventCatalog::BuiltIn()), weights_(BuildCanonicalWeights()) {}

  const EventCatalog& catalog() const { return catalog_; }
  const EventWeightModel& weights() const { return weights_; }

  /// The single-node reference: same registration/churn/event sequence the
  /// sharded run gets, one engine.
  DailyCdiResult RunSingleNode(const Scenario& sc) {
    StreamingCdiOptions opts;
    opts.window = sc.day;
    auto engine =
        StreamingCdiEngine::Create(&catalog_, &weights_, opts).value();
    for (const VmServiceInfo& vm : sc.vms) {
      if (IsLate(sc, vm.vm_id)) continue;
      auto it = sc.initial_override.find(vm.vm_id);
      EXPECT_TRUE(
          engine.RegisterVm(it != sc.initial_override.end() ? it->second : vm)
              .ok());
    }
    const size_t half = sc.arrivals.size() / 2;
    for (size_t i = 0; i < sc.arrivals.size(); ++i) {
      EXPECT_TRUE(engine.Ingest(sc.arrivals[i]).ok());
      if (i + 1 == half) {
        ApplyChurn(sc, [&](const VmServiceInfo& vm) {
          EXPECT_TRUE(engine.RegisterVm(vm).ok());
        });
        EXPECT_TRUE(engine.Snapshot().ok());  // must not disturb the final
      }
    }
    auto snap = engine.Snapshot();
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    return std::move(snap).value();
  }

  /// The sharded run: identical sequence through the coordinator, plus a
  /// mid-day rebalance right after churn; with inject_failure, shard
  /// (seed % num_shards) is killed at the three-quarter mark, its absence
  /// must surface as a degraded gather, and it is then recovered.
  DailyCdiResult RunSharded(const Scenario& sc, size_t num_shards,
                            uint64_t seed, const ShardRunOptions& run = {}) {
    shard::ShardTopologyOptions topo;
    topo.num_shards = num_shards;
    topo.engine.window = sc.day;
    if (run.configure) run.configure(topo);
    auto coord_or =
        shard::ShardCoordinator::Create(&catalog_, &weights_, std::move(topo));
    EXPECT_TRUE(coord_or.ok()) << coord_or.status().ToString();
    std::unique_ptr<shard::ShardCoordinator> coord =
        std::move(coord_or).value();

    std::vector<VmServiceInfo> initial;
    for (const VmServiceInfo& vm : sc.vms) {
      if (IsLate(sc, vm.vm_id)) continue;
      auto it = sc.initial_override.find(vm.vm_id);
      initial.push_back(it != sc.initial_override.end() ? it->second : vm);
    }
    EXPECT_TRUE(coord->RegisterVms(initial).ok());

    const size_t total = sc.arrivals.size();
    const size_t half = total / 2;
    const size_t three_quarter = total * 3 / 4;
    const size_t victim = seed % num_shards;
    for (size_t i = 0; i < total; ++i) {
      EXPECT_TRUE(coord->Ingest(sc.arrivals[i]).ok());
      if (i + 1 == half) {
        ApplyChurn(sc, [&](const VmServiceInfo& vm) {
          EXPECT_TRUE(coord->RegisterVm(vm).ok());
        });
        EXPECT_TRUE(coord->Snapshot().ok());  // intra-day gather
        // Rebalance with half the day still to stream: the recut includes
        // the late registrations, so ranges really move.
        EXPECT_TRUE(coord->Rebalance().ok());
      }
      if (run.inject_failure && i + 1 == three_quarter &&
          half != three_quarter) {
        EXPECT_TRUE(coord->InjectShardFailure(victim).ok());
        EXPECT_FALSE(coord->ShardAlive(victim));
        // The degraded gather: the dead shard's VMs are deferred, the
        // quality flag is set, the numbers for everyone else still flow.
        const size_t owned = OwnedBy(*coord, sc, victim);
        auto degraded = coord->Snapshot();
        if (num_shards == 1) {
          // Nobody left to answer.
          EXPECT_FALSE(degraded.ok());
        } else {
          EXPECT_TRUE(degraded.ok()) << degraded.status().ToString();
          if (degraded.ok()) {
            EXPECT_TRUE(degraded->quality.degraded);
            EXPECT_EQ(degraded->vms_deferred, owned);
          }
        }
        EXPECT_TRUE(coord->RecoverShard(victim).ok());
        EXPECT_TRUE(coord->ShardAlive(victim));
      }
    }
    auto snap = coord->Snapshot();
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    const shard::ShardFleetStats stats = coord->stats();
    EXPECT_EQ(stats.num_shards, num_shards);
    EXPECT_EQ(stats.shards_alive, num_shards);
    EXPECT_EQ(stats.rebalances, total / 2 > 0 ? 1u : 0u);
    return std::move(snap).value();
  }

  static bool IsLate(const Scenario& sc, const std::string& id) {
    return std::find(sc.late_registered.begin(), sc.late_registered.end(),
                     id) != sc.late_registered.end();
  }

  template <typename Fn>
  static void ApplyChurn(const Scenario& sc, Fn register_vm) {
    for (const VmServiceInfo& vm : sc.vms) {
      if (sc.initial_override.count(vm.vm_id) > 0 || IsLate(sc, vm.vm_id)) {
        register_vm(vm);
      }
    }
  }

  static size_t OwnedBy(const shard::ShardCoordinator& coord,
                        const Scenario& sc, size_t shard) {
    const shard::ShardMap map = coord.Map();
    size_t owned = 0;
    for (const VmServiceInfo& vm : sc.vms) {
      if (map.OwnerOf(vm.vm_id) == shard) ++owned;
    }
    return owned;
  }

  /// Bit-identical comparison of one CDI triple and its service time.
  static void ExpectIdenticalCdi(const VmCdi& want, const VmCdi& got,
                                 const std::string& what) {
    EXPECT_EQ(want.unavailability, got.unavailability) << what;
    EXPECT_EQ(want.performance, got.performance) << what;
    EXPECT_EQ(want.control_plane, got.control_plane) << what;
    EXPECT_EQ(want.service_time, got.service_time) << what;
  }

  /// Bit-identical comparison: every double compared with EXPECT_EQ.
  static void ExpectIdentical(const DailyCdiResult& want,
                              const DailyCdiResult& got,
                              const std::string& what) {
    ExpectIdenticalCdi(want.fleet, got.fleet, what + " fleet");
    EXPECT_EQ(want.fleet_service_time, got.fleet_service_time) << what;

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

    EXPECT_EQ(want.vms_evaluated, got.vms_evaluated) << what;
    EXPECT_EQ(want.vms_skipped, got.vms_skipped) << what;
    EXPECT_EQ(want.vms_failed, got.vms_failed) << what;
    EXPECT_EQ(want.vms_deferred, got.vms_deferred) << what;
    EXPECT_EQ(want.vms_degraded, got.vms_degraded) << what;
    EXPECT_EQ(want.quality.events_quarantined, got.quality.events_quarantined)
        << what;
    EXPECT_EQ(want.quality.events_missing, got.quality.events_missing)
        << what;
    EXPECT_EQ(want.quality.events_shed, got.quality.events_shed) << what;
    EXPECT_EQ(want.quality.degraded, got.quality.degraded) << what;
    EXPECT_EQ(want.resolve_stats.resolved, got.resolve_stats.resolved)
        << what;
    EXPECT_EQ(want.resolve_stats.unknown_dropped,
              got.resolve_stats.unknown_dropped)
        << what;
    EXPECT_EQ(want.resolve_stats.duplicate_details_dropped,
              got.resolve_stats.duplicate_details_dropped)
        << what;
    EXPECT_EQ(want.resolve_stats.dangling_end_dropped,
              got.resolve_stats.dangling_end_dropped)
        << what;
    EXPECT_EQ(want.resolve_stats.unpaired_start_closed,
              got.resolve_stats.unpaired_start_closed)
        << what;

    // Per-VM rows: both sides emit sorted-by-vm_id, so the rows must match
    // positionally and exactly — ids, dims, all three indicators, service
    // time, and the data-quality annotation.
    ASSERT_EQ(want.per_vm.size(), got.per_vm.size()) << what;
    for (size_t i = 0; i < want.per_vm.size(); ++i) {
      const VmCdiRecord& w = want.per_vm[i];
      const VmCdiRecord& g = got.per_vm[i];
      EXPECT_EQ(w.vm_id, g.vm_id) << what << " row " << i;
      EXPECT_EQ(w.dims, g.dims) << what << " " << w.vm_id;
      ExpectIdenticalCdi(w.cdi, g.cdi, what + " " + w.vm_id);
      EXPECT_EQ(w.quality.events_quarantined, g.quality.events_quarantined)
          << what << " " << w.vm_id;
      EXPECT_EQ(w.quality.events_missing, g.quality.events_missing)
          << what << " " << w.vm_id;
      EXPECT_EQ(w.quality.degraded, g.quality.degraded)
          << what << " " << w.vm_id;
    }

    // Per-event drill-down rows, ditto (sorted by vm_id then event name).
    ASSERT_EQ(want.per_event.size(), got.per_event.size()) << what;
    for (size_t i = 0; i < want.per_event.size(); ++i) {
      const EventCdiRecord& w = want.per_event[i];
      const EventCdiRecord& g = got.per_event[i];
      EXPECT_EQ(w.vm_id, g.vm_id) << what << " event row " << i;
      EXPECT_EQ(w.event_name, g.event_name) << what << " event row " << i;
      EXPECT_EQ(w.category, g.category) << what << " event row " << i;
      EXPECT_EQ(w.damage_minutes, g.damage_minutes)
          << what << " " << w.vm_id << "/" << w.event_name;
      EXPECT_EQ(w.service_time, g.service_time)
          << what << " " << w.vm_id << "/" << w.event_name;
    }
  }

 private:
  EventCatalog catalog_;
  EventWeightModel weights_;
};

}  // namespace cdibot::testutil

#endif  // CDIBOT_TESTS_SHARD_EQUIVALENCE_HARNESS_H_
