// Golden-value regression for Table IV ("Example of CDI Calculation"):
// the paper's worked example, pinned to its EXACT closed-form values under
// ctest — not the 3-decimal printed precision of the paper's table. Any
// change to Algorithm 1's boundary sweep or Eq. 4's aggregation that moves
// these numbers is a regression, caught here rather than in a bench binary
// someone has to remember to run.
#include <gtest/gtest.h>

#include "cdi/aggregate.h"
#include "cdi/indicator.h"
#include "cdi/pipeline.h"
#include "common/wire.h"
#include "event_test_util.h"
#include "shard/message.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

WeightedEventView Ev(const char* name, const char* start, const char* end,
                     double w) {
  return testutil::Weighted(Interval(T(start), T(end)), w,
                            StabilityCategory::kPerformance, name);
}

// Exact closed forms of the table's rows:
//   VM1: two back-to-back 2-min packet_loss @0.3 in a 60-min window
//        -> 0.3 * 4 / 60            = 0.02
//   VM2: one 5-min vcpu_high @0.6 in a 1440-min window
//        -> 0.6 * 5 / 1440          = 1/480        (paper prints 0.002)
//   VM3: slow_io 08:08-08:12 @0.5 overlapped by vcpu_high 08:10-08:15
//        @0.6 in a 1000-min window; max-overlap damage
//        -> (0.5*2 + 0.6*5) / 1000  = 0.004
//   Fleet (Eq. 4): (60*0.02 + 1440/480 + 1000*0.004) / 2500
//        -> 8.2 / 2500              = 0.00328      (paper prints 0.003)
constexpr double kVm1 = 0.02;
constexpr double kVm2 = 3.0 / 1440.0;
constexpr double kVm3 = 0.004;
constexpr double kFleet = 8.2 / 2500.0;
constexpr double kTol = 1e-12;

TEST(Table4GoldenTest, WorkedExampleExactValues) {
  const auto vm1 = ComputeCdi(
      {Ev("packet_loss", "2024-01-01 10:08", "2024-01-01 10:10", 0.3),
       Ev("packet_loss", "2024-01-01 10:10", "2024-01-01 10:12", 0.3)},
      Interval(T("2024-01-01 10:00"), T("2024-01-01 11:00")));
  ASSERT_TRUE(vm1.ok());
  EXPECT_NEAR(vm1.value(), kVm1, kTol);

  const auto vm2 = ComputeCdi(
      {Ev("vcpu_high", "2024-01-01 13:25", "2024-01-01 13:30", 0.6)},
      Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")));
  ASSERT_TRUE(vm2.ok());
  EXPECT_NEAR(vm2.value(), kVm2, kTol);

  const auto vm3 = ComputeCdi(
      {Ev("slow_io", "2024-01-01 08:08", "2024-01-01 08:10", 0.5),
       Ev("slow_io", "2024-01-01 08:10", "2024-01-01 08:12", 0.5),
       Ev("vcpu_high", "2024-01-01 08:10", "2024-01-01 08:15", 0.6)},
      Interval(T("2024-01-01 08:00"),
               T("2024-01-01 08:00") + Duration::Minutes(1000)));
  ASSERT_TRUE(vm3.ok());
  EXPECT_NEAR(vm3.value(), kVm3, kTol);

  CdiAccumulator fleet;
  fleet.Add(Duration::Minutes(60), vm1.value());
  fleet.Add(Duration::Minutes(1440), vm2.value());
  fleet.Add(Duration::Minutes(1000), vm3.value());
  EXPECT_NEAR(fleet.Value(), kFleet, kTol);
  EXPECT_EQ(fleet.total_service_time(), Duration::Minutes(2500));
}

// The same fleet row through the mergeable-partial path the streaming
// engine uses: partials split any way must land on the identical value.
TEST(Table4GoldenTest, FleetRowViaMergeablePartials) {
  auto vm = [](double cdi, int64_t minutes) {
    VmCdi v;
    v.unavailability = cdi;
    v.performance = cdi;
    v.control_plane = cdi;
    v.service_time = Duration::Minutes(minutes);
    return v;
  };
  const VmCdi vm1 = vm(kVm1, 60), vm2 = vm(kVm2, 1440), vm3 = vm(kVm3, 1000);

  FleetCdiPartial left, right;
  left.AddVm(vm1);
  right.AddVm(vm2);
  right.AddVm(vm3);
  left.Merge(right);
  // The exact sum rounds once, onto the closed form's double.
  EXPECT_EQ(left.Finalize().performance, kFleet);

  // Retract + re-add (the streaming revision path) is exact.
  FleetCdiPartial churn;
  churn.AddVm(vm1);
  churn.AddVm(vm2);
  churn.AddVm(vm(0.9, 1000));  // wrong provisional value for VM3...
  churn.RemoveVm(vm(0.9, 1000));  // ...retracted on revision
  churn.AddVm(vm3);
  EXPECT_EQ(churn.Finalize().performance, left.Finalize().performance);

  // One pass in another order (the batch job's) lands on the same bits.
  FleetCdiPartial direct;
  direct.AddVm(vm3);
  direct.AddVm(vm1);
  direct.AddVm(vm2);
  EXPECT_EQ(direct.Finalize().performance, left.Finalize().performance);
  EXPECT_EQ(direct.Finalize().service_time, Duration::Minutes(2500));
}

// The worked example under the sharded topology: the three VM rows are
// split across 1, 2, and 3 shards, each shard's contribution round-trips
// through the coordinator's wire snapshot encoding (doubles bit-cast), and
// the gathered partials merge through DailyCdiResultBuilder, the
// coordinator's assembler. Every split must land on the paper's exact
// fleet value — and on the SAME bits as every other split.
TEST(Table4GoldenTest, ShardedGatherPinsWorkedExample) {
  auto row = [](const char* id, double cdi, int64_t minutes) {
    VmCdiRecord rec;
    rec.vm_id = id;
    rec.cdi.unavailability = cdi;
    rec.cdi.performance = cdi;
    rec.cdi.control_plane = cdi;
    rec.cdi.service_time = Duration::Minutes(minutes);
    return rec;
  };
  const std::vector<VmCdiRecord> rows = {row("vm1", kVm1, 60),
                                         row("vm2", kVm2, 1440),
                                         row("vm3", kVm3, 1000)};
  // Shard splits of the fleet: indices of `rows` per shard. The 2-shard
  // split deliberately breaks ascending-id grouping (vm3 with vm1).
  const std::vector<std::vector<std::vector<size_t>>> splits = {
      {{0, 1, 2}},          // 1 shard
      {{0, 2}, {1}},        // 2 shards
      {{2}, {0}, {1}},      // 3 shards, scrambled order
  };
  // One shard's gather contribution: encode as a wire snapshot, ship,
  // decode, merge — the exact coordinator gather data path.
  auto merge_via_wire = [&rows](const std::vector<size_t>& idx,
                                DailyCdiResultBuilder* builder) {
    shard::ShardSnapshot snap;
    for (size_t i : idx) snap.result.per_vm.push_back(rows[i]);
    WireWriter w;
    shard::EncodeSnapshot(w, snap);
    const std::string frame = std::move(w).Take();
    WireReader r{std::string_view(frame)};
    shard::ShardSnapshot decoded = shard::DecodeSnapshot(r);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(decoded.result.per_vm.size(), idx.size());
    builder->Merge(std::move(decoded.result));
  };
  std::vector<VmCdi> fleets;
  for (const auto& split : splits) {
    DailyCdiResultBuilder builder;
    for (const auto& shard_rows : split) {
      merge_via_wire(shard_rows, &builder);
    }
    fleets.push_back(std::move(builder).Finish().fleet);
  }
  for (const VmCdi& fleet : fleets) {
    EXPECT_EQ(fleet.performance, kFleet);
    EXPECT_EQ(fleet.unavailability, kFleet);
    EXPECT_EQ(fleet.service_time, Duration::Minutes(2500));
    // Bit-identical across shard splits, not merely within tolerance.
    EXPECT_EQ(fleet.performance, fleets[0].performance);
    EXPECT_EQ(fleet.unavailability, fleets[0].unavailability);
    EXPECT_EQ(fleet.control_plane, fleets[0].control_plane);
  }
}

}  // namespace
}  // namespace cdibot
