// Sharded-equivalence differential suite over REAL transports: worker
// threads behind Unix-domain sockets, and shard_worker child processes the
// kernel can kill -9 — with and without the network chaos layer mangling
// the wire. Whatever the transport and however hostile the network, the
// final gather must be BIT-IDENTICAL to a single-node engine fed the same
// inputs (EXPECT_EQ on every double): the CRC trailer detects corruption,
// the session layer redials and resumes, the worker's dedup makes every
// retry exact, and recovery replays checkpoint + outbox to the same state.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "net_chaos.h"
#include "shard_equivalence_harness.h"

namespace cdibot {
namespace {

using testutil::CanonicalWeightSpec;
using testutil::MakeScenario;
using testutil::Scenario;
using testutil::ShardEquivalenceHarness;

constexpr size_t kShardCounts[] = {1, 2, 4, 7};

// Baked in by tests/CMakeLists.txt; points at the built shard_worker.
#ifndef SHARD_WORKER_BIN
#define SHARD_WORKER_BIN ""
#endif

/// Session tuning for lossy-network runs: a short per-attempt timeout so a
/// swallowed response becomes a quick retry of the same request id, a short
/// connect timeout so a dropped handshake frame redials fast, and a deep
/// attempt budget so even the hostile plan converges.
shard::ShardSessionOptions ChaosSession() {
  shard::ShardSessionOptions session;
  session.call_timeout = Duration::Millis(250);
  session.connect_timeout = Duration::Millis(500);
  session.max_call_attempts = 16;
  return session;
}

void UseSocketThreads(shard::ShardTopologyOptions& topo) {
  topo.transport = shard::ShardTransportMode::kSocketThread;
}

void UseWorkerProcesses(shard::ShardTopologyOptions& topo) {
  topo.transport = shard::ShardTransportMode::kSocketProcess;
  topo.worker_binary = SHARD_WORKER_BIN;
  topo.weight_spec = CanonicalWeightSpec();
}

class SocketShardEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ShardEquivalenceHarness harness_;
};

// Socket-thread workers, clean network: pure transport-substitution check.
// Any framing or session bug shows up as a wrong double here.
TEST_P(SocketShardEquivalenceTest, SocketThreadsBitIdenticalToSingleNode) {
  const Scenario sc = MakeScenario(GetParam());
  const DailyCdiResult reference = harness_.RunSingleNode(sc);
  for (const size_t n : kShardCounts) {
    const DailyCdiResult sharded = harness_.RunSharded(
        sc, n, GetParam(), {.configure = UseSocketThreads});
    ShardEquivalenceHarness::ExpectIdentical(
        reference, sharded, "socket-thread shards=" + std::to_string(n));
  }
}

// Multi-process workers (real child processes, real kill -9): the full
// acceptance gauntlet. Every run has the hostile network plan active (torn
// frames + flipped bits + resets + duplicates + delays + asymmetric
// partition) AND kills one worker with SIGKILL at the three-quarter mark,
// asserting the degraded gather and then bit-identical recovery.
TEST_P(SocketShardEquivalenceTest, ProcessWorkersKill9UnderHostileNetwork) {
  const Scenario sc = MakeScenario(GetParam());
  const DailyCdiResult reference = harness_.RunSingleNode(sc);
  for (const size_t n : kShardCounts) {
    testutil::ShardRunOptions run;
    run.inject_failure = true;
    run.configure = [&](shard::ShardTopologyOptions& topo) {
      UseWorkerProcesses(topo);
      topo.session = ChaosSession();
      topo.transport_decorator = chaos::MakeChaosDecorator(
          chaos::NetFaultPlan::HostileNetwork(GetParam() * 977 + n));
    };
    const DailyCdiResult sharded = harness_.RunSharded(sc, n, GetParam(), run);
    ShardEquivalenceHarness::ExpectIdentical(
        reference, sharded,
        "process+chaos+kill9 shards=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SocketShardEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

// Socket threads under the per-family chaos plans: each fault family alone,
// still bit-identical. (Thread mode keeps this cheap enough to run per
// family; the hostile superset runs against real processes above.)
class FaultFamiliesPreserveBitIdentity
    : public testutil::SeedSubsetTest<SocketShardEquivalenceTest> {
  using SeedSubsetTest::SeedSubsetTest;
  void TestBody() override;
};
const bool kFaultFamiliesRegistered = testutil::RegisterSeedSubset<
    SocketShardEquivalenceTest, FaultFamiliesPreserveBitIdentity>(
    "SocketShardEquivalenceTest", "FaultFamiliesPreserveBitIdentity",
    {1, 5, 9, 13, 17, 21});

void FaultFamiliesPreserveBitIdentity::TestBody() {
  const Scenario sc = MakeScenario(seed());
  const DailyCdiResult reference = harness_.RunSingleNode(sc);
  const chaos::NetFaultPlan plans[] = {
      chaos::NetFaultPlan::TornFrames(seed()),
      chaos::NetFaultPlan::FlippedBits(seed()),
      chaos::NetFaultPlan::Resets(seed()),
      chaos::NetFaultPlan::FlakyDelivery(seed()),
      chaos::NetFaultPlan::Partition(seed()),
  };
  for (const chaos::NetFaultPlan& plan : plans) {
    testutil::ShardRunOptions run;
    run.configure = [&](shard::ShardTopologyOptions& topo) {
      UseSocketThreads(topo);
      topo.session = ChaosSession();
      topo.transport_decorator = chaos::MakeChaosDecorator(plan);
    };
    const DailyCdiResult sharded = harness_.RunSharded(sc, 4, seed(), run);
    ShardEquivalenceHarness::ExpectIdentical(reference, sharded,
                                             "plan=" + plan.name);
  }
}

// The coordinator's transport stats must reflect the chaos: reconnects and
// session rebuilds happen, and a SIGKILLed worker forces at least one full
// restore.
class SessionStatsRecordTheTurbulence
    : public testutil::SeedSubsetTest<SocketShardEquivalenceTest> {
  using SeedSubsetTest::SeedSubsetTest;
  void TestBody() override;
};
const bool kSessionStatsRegistered = testutil::RegisterSeedSubset<
    SocketShardEquivalenceTest, SessionStatsRecordTheTurbulence>(
    "SocketShardEquivalenceTest", "SessionStatsRecordTheTurbulence", {4});

void SessionStatsRecordTheTurbulence::TestBody() {
  const Scenario sc = MakeScenario(seed());
  shard::ShardTopologyOptions topo;
  topo.num_shards = 2;
  topo.engine.window = sc.day;
  UseWorkerProcesses(topo);
  topo.session = ChaosSession();
  topo.transport_decorator = chaos::MakeChaosDecorator(
      chaos::NetFaultPlan::HostileNetwork(seed()));
  auto coord_or = shard::ShardCoordinator::Create(
      &harness_.catalog(), &harness_.weights(), std::move(topo));
  ASSERT_TRUE(coord_or.ok()) << coord_or.status().ToString();
  auto coord = std::move(coord_or).value();

  std::vector<VmServiceInfo> initial;
  for (const VmServiceInfo& vm : sc.vms) {
    if (ShardEquivalenceHarness::IsLate(sc, vm.vm_id)) continue;
    initial.push_back(vm);
  }
  ASSERT_TRUE(coord->RegisterVms(initial).ok());
  for (const RawEvent& ev : sc.arrivals) {
    ASSERT_TRUE(coord->Ingest(ev).ok());
  }
  ASSERT_TRUE(coord->InjectShardFailure(0).ok());
  ASSERT_TRUE(coord->RecoverShard(0).ok());
  ASSERT_TRUE(coord->Snapshot().ok());

  const shard::ShardFleetStats stats = coord->stats();
  EXPECT_EQ(stats.shards_alive, 2u);
  EXPECT_EQ(stats.shard_failures, 1u);
  EXPECT_EQ(stats.shards_recovered, 1u);
  // The SIGKILL respawn alone guarantees one reconnect + one restore.
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.sessions_restored, 1u);
}

}  // namespace
}  // namespace cdibot
