// Sharded-equivalence differential suite over the in-process transport: a
// ShardCoordinator over N worker threads must produce BIT-IDENTICAL results
// to a single-node engine fed the same registrations and events in the same
// order — for every shard count, across a mid-day rebalance, and across a
// mid-day shard failure/recovery cycle. The harness (and the socket-
// transport variants) live in shard_equivalence_harness.h.
#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "storage/event_log.h"
#include "shard_equivalence_harness.h"

namespace cdibot {
namespace {

using testutil::MakeScenario;
using testutil::Scenario;
using testutil::ShardEquivalenceHarness;

constexpr size_t kShardCounts[] = {1, 2, 4, 7};

class ShardEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ShardEquivalenceHarness harness_;
};

TEST_P(ShardEquivalenceTest, ShardedGatherIsBitIdenticalToSingleNode) {
  const Scenario sc = MakeScenario(GetParam());
  const DailyCdiResult reference = harness_.RunSingleNode(sc);
  for (const size_t n : kShardCounts) {
    const DailyCdiResult sharded = harness_.RunSharded(sc, n, GetParam());
    ShardEquivalenceHarness::ExpectIdentical(reference, sharded,
                                             "shards=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

// Mid-day shard crash + recovery: the degraded gather is flagged, never
// wrong, and after checkpoint-plus-outbox recovery the final snapshot is
// still bit-identical to the single-node run.
class FailureAndRecoveryPreserveBitIdentity
    : public testutil::SeedSubsetTest<ShardEquivalenceTest> {
  using SeedSubsetTest::SeedSubsetTest;
  void TestBody() override;
};
const bool kFailureAndRecoveryRegistered = testutil::RegisterSeedSubset<
    ShardEquivalenceTest, FailureAndRecoveryPreserveBitIdentity>(
    "ShardEquivalenceTest", "FailureAndRecoveryPreserveBitIdentity",
    {4, 8, 12, 16, 20, 24});

void FailureAndRecoveryPreserveBitIdentity::TestBody() {
  const Scenario sc = MakeScenario(seed());
  const DailyCdiResult reference = harness_.RunSingleNode(sc);
  for (const size_t n : kShardCounts) {
    const DailyCdiResult sharded =
        harness_.RunSharded(sc, n, seed(), {.inject_failure = true});
    ShardEquivalenceHarness::ExpectIdentical(
        reference, sharded, "failure shards=" + std::to_string(n));
  }
}

// The batch job agrees bit-for-bit too: batch, stream, and sharded all
// assemble through DailyCdiResultBuilder over per-VM values produced by
// the same per-VM code on the same inputs.
class ShardedFleetMatchesBatchExactly
    : public testutil::SeedSubsetTest<ShardEquivalenceTest> {
  using SeedSubsetTest::SeedSubsetTest;
  void TestBody() override;
};
const bool kFleetMatchesBatchRegistered = testutil::RegisterSeedSubset<
    ShardEquivalenceTest, ShardedFleetMatchesBatchExactly>(
    "ShardEquivalenceTest", "ShardedFleetMatchesBatchExactly",
    {3, 6, 9, 12, 15, 18, 21, 24});

void ShardedFleetMatchesBatchExactly::TestBody() {
  const Scenario sc = MakeScenario(seed());
  EventLog log;
  log.AppendBatch(sc.arrivals);
  ThreadPool pool(4);
  DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                       .catalog = &harness_.catalog(),
                                       .weights = &harness_.weights(),
                                       .pool = &pool,
                                       .min_parallel_rows = 2});
  auto batch = job.Run(sc.vms, sc.day);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  batch->SortRows();
  const DailyCdiResult sharded = harness_.RunSharded(sc, 4, seed());
  ShardEquivalenceHarness::ExpectIdentical(*batch, sharded,
                                           "sharded vs batch");
}

}  // namespace
}  // namespace cdibot
