// Property tests for the mergeable partials the shard gather rests on.
//
// Every guarantee here is exact (EXPECT_EQ on every double):
//  * FleetCdiPartial sums each term T_i * Q_i into an integer
//    superaccumulator, so its merge is associative, commutative and
//    identity-respecting, and Remove retracts exactly — any shard split,
//    permutation or add/remove history of the same terms finalizes to the
//    same bits, across magnitudes from subnormal to 1e300, across the lazy
//    carry pass, and with non-finite terms. The fuzz cases randomize shard
//    splits exactly the way a ShardCoordinator would.
//  * UnavailabilityPartial is all-integer (episode count + two millisecond
//    durations), so the same holds for it, and FromRaw round-trips it
//    across a wire encoding.
//  * DailyCdiResultBuilder, the one assembler every topology feeds, merges
//    partial results into the same bits and counters as one pass over
//    all VMs, however the VMs are split and whatever the merge order.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cdi/aggregate.h"
#include "cdi/baselines.h"
#include "cdi/pipeline.h"
#include "common/rng.h"
#include "common/time.h"

namespace cdibot {
namespace {

struct Term {
  std::string vm_id;
  VmCdi cdi;
};

/// A CDI value anywhere from subnormal to 1e300: a fold that depended on
/// grouping would differ in far more than the last ulp.
double WideValue(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return rng.NextDouble() * 1e-310;  // subnormal
    case 1:
      return rng.NextDouble() * 1e300;
    case 2:
      return rng.NextDouble() *
             std::pow(10.0, static_cast<double>(rng.UniformInt(-300, 300)));
    default:
      return rng.NextDouble();
  }
}

std::vector<Term> RandomFleet(Rng& rng) {
  const int n = static_cast<int>(rng.UniformInt(1, 40));
  std::vector<Term> fleet;
  fleet.reserve(n);
  for (int i = 0; i < n; ++i) {
    Term t;
    t.vm_id = "vm-" + std::to_string(i);
    t.cdi.unavailability = WideValue(rng);
    t.cdi.performance = WideValue(rng);
    t.cdi.control_plane = rng.NextDouble();
    t.cdi.service_time =
        Duration::Minutes(rng.UniformInt(1, 24 * 60));
    fleet.push_back(std::move(t));
  }
  return fleet;
}

/// Splits the fleet into `shards` contiguous runs of a random permutation —
/// the adversarial version of what a ShardCoordinator does.
std::vector<std::vector<Term>> RandomSplit(const std::vector<Term>& fleet,
                                           size_t shards, Rng& rng) {
  std::vector<Term> shuffled = fleet;
  rng.Shuffle(shuffled);
  std::vector<std::vector<Term>> parts(shards);
  for (const Term& t : shuffled) {
    parts[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(shards) - 1))].push_back(t);
  }
  return parts;
}

FleetCdiPartial FoldOf(const std::vector<Term>& terms) {
  FleetCdiPartial fold;
  for (const Term& t : terms) fold.AddVm(t.cdi);
  return fold;
}

void ExpectSameBits(const VmCdi& want, const VmCdi& got,
                    const std::string& what) {
  EXPECT_EQ(want.unavailability, got.unavailability) << what;
  EXPECT_EQ(want.performance, got.performance) << what;
  EXPECT_EQ(want.control_plane, got.control_plane) << what;
  EXPECT_EQ(want.service_time, got.service_time) << what;
}

// --- FleetCdiPartial: exactly associative, commutative, retractable -------

TEST(FleetCdiPartialMergeTest, IdentityElement) {
  const FleetCdiPartial empty;
  EXPECT_TRUE(empty.empty());
  ExpectSameBits(VmCdi{}, empty.Finalize(), "empty fold");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed + 10);
    const FleetCdiPartial a = FoldOf(RandomFleet(rng));
    FleetCdiPartial left = a;
    left.Merge(FleetCdiPartial());  // a * e == a
    FleetCdiPartial right;
    right.Merge(a);  // e * a == a
    const std::string what = std::to_string(seed);
    ExpectSameBits(a.Finalize(), left.Finalize(), "a*e " + what);
    ExpectSameBits(a.Finalize(), right.Finalize(), "e*a " + what);
  }
}

TEST(FleetCdiPartialMergeTest, CommutativeExactly) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const auto parts = RandomSplit(RandomFleet(rng), 2, rng);
    const FleetCdiPartial a = FoldOf(parts[0]), b = FoldOf(parts[1]);
    FleetCdiPartial ab = a, ba = b;
    ab.Merge(b);
    ba.Merge(a);
    ExpectSameBits(ab.Finalize(), ba.Finalize(), std::to_string(seed));
  }
}

TEST(FleetCdiPartialMergeTest, AssociativeExactly) {
  // (a*b)*c == a*(b*c) == one pass over the union in another order, bit
  // for bit: the merge is integer addition.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed + 100);
    const std::vector<Term> fleet = RandomFleet(rng);
    const auto parts = RandomSplit(fleet, 3, rng);
    const FleetCdiPartial a = FoldOf(parts[0]), b = FoldOf(parts[1]),
                          c = FoldOf(parts[2]);
    FleetCdiPartial ab_c = a;
    ab_c.Merge(b);
    ab_c.Merge(c);
    FleetCdiPartial bc = b;
    bc.Merge(c);
    FleetCdiPartial a_bc = a;
    a_bc.Merge(bc);
    const std::string what = std::to_string(seed);
    ExpectSameBits(ab_c.Finalize(), a_bc.Finalize(), what);
    ExpectSameBits(FoldOf(fleet).Finalize(), a_bc.Finalize(), what);
  }
}

TEST(FleetCdiPartialMergeTest, RetractionIsExact) {
  // The streaming revision path: provisional terms arrive interleaved with
  // the real ones and are retracted, some at once and the rest at the end
  // in another order. What is left is exactly the real ones' fold.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed + 200);
    const std::vector<Term> fleet = RandomFleet(rng);
    const std::vector<Term> provisional = RandomFleet(rng);
    std::vector<std::pair<const Term*, bool>> arrivals;
    for (const Term& t : fleet) arrivals.emplace_back(&t, false);
    for (const Term& t : provisional) arrivals.emplace_back(&t, true);
    rng.Shuffle(arrivals);
    FleetCdiPartial churn;
    std::vector<const Term*> pending;
    for (const auto& [t, is_provisional] : arrivals) {
      churn.AddVm(t->cdi);
      if (!is_provisional) continue;
      if (rng.Bernoulli(0.5)) {
        churn.RemoveVm(t->cdi);
      } else {
        pending.push_back(t);
      }
    }
    rng.Shuffle(pending);
    for (const Term* t : pending) churn.RemoveVm(t->cdi);
    const std::string what = std::to_string(seed);
    ExpectSameBits(FoldOf(fleet).Finalize(), churn.Finalize(), what);

    for (const Term& t : fleet) churn.RemoveVm(t.cdi);
    EXPECT_TRUE(churn.empty()) << what;
    ExpectSameBits(VmCdi{}, churn.Finalize(), what + " emptied");
  }
}

TEST(CdiAccumulatorExactTest, RoundsTheExactSumOnce) {
  const Duration ms = Duration::Millis(1);
  // Cancellation: a double sum in this order loses the 3 to 1e300.
  CdiAccumulator cancel;
  cancel.Add(ms, 1e300);
  cancel.Add(ms, 3.0);
  cancel.Add(ms, -1e300);
  EXPECT_EQ(cancel.Value(), 1.0);

  // Two half-ulps of 1.0: a left fold rounds each away, the exact sum
  // keeps them.
  CdiAccumulator halves;
  halves.Add(ms, 1.0);
  halves.Add(ms, 0x1p-53);
  halves.Add(ms, 0x1p-53);
  EXPECT_EQ(halves.Value(), (1.0 + 0x1p-52) / 3.0);

  // Subnormal terms sum exactly.
  const double tiny = std::numeric_limits<double>::denorm_min();
  CdiAccumulator subnormal;
  subnormal.Add(ms, tiny);
  subnormal.Add(ms, 3 * tiny);
  EXPECT_EQ(subnormal.Value(), 2 * tiny);

  // The top digits: 2 * DBL_MAX overflows, and retracting one term brings
  // the exact sum back into range.
  const double max = std::numeric_limits<double>::max();
  CdiAccumulator big;
  big.Add(ms, max);
  big.Add(ms, max);
  EXPECT_EQ(big.Value(), std::numeric_limits<double>::infinity());
  big.Remove(ms, max);
  EXPECT_EQ(big.Value(), max);
  big.Remove(ms, max);
  EXPECT_EQ(big.Value(), 0.0);
}

TEST(CdiAccumulatorExactTest, ExactAcrossCarryPasses) {
  // n equal terms 0.1 * 1 ms: the exact sum rounded once is the one
  // correctly rounded product n * 0.1 — whatever the carry timing, split
  // or merge order.
  const int64_t n = 3 * CdiAccumulator::kCarryInterval + 17;
  const double want = (static_cast<double>(n) * 0.1) / static_cast<double>(n);
  CdiAccumulator whole;
  CdiAccumulator parts[3];
  for (int64_t i = 0; i < n; ++i) {
    whole.Add(Duration::Millis(1), 0.1);
    parts[i % 3].Add(Duration::Millis(1), 0.1);
  }
  EXPECT_EQ(whole.Value(), want);
  CdiAccumulator merged = parts[2];
  merged.Merge(parts[0]);
  merged.Merge(parts[1]);
  EXPECT_EQ(merged.Value(), want);
  EXPECT_EQ(merged.total_service_time(), Duration::Millis(n));

  // Random wide-magnitude terms across several carry passes: every split
  // and merge order agrees with the one-pass fold.
  Rng rng(5);
  std::vector<VmCdi> terms(2 * CdiAccumulator::kCarryInterval + 5);
  for (VmCdi& t : terms) {
    t.unavailability = WideValue(rng);
    t.performance = WideValue(rng);
    t.service_time = Duration::Millis(rng.UniformInt(1, 86'400'000));
  }
  FleetCdiPartial one_pass;
  for (const VmCdi& t : terms) one_pass.AddVm(t);
  rng.Shuffle(terms);
  std::vector<FleetCdiPartial> shards(5);
  for (const VmCdi& t : terms) {
    shards[static_cast<size_t>(rng.UniformInt(0, 4))].AddVm(t);
  }
  FleetCdiPartial gathered;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    gathered.Merge(*it);
  }
  ExpectSameBits(one_pass.Finalize(), gathered.Finalize(), "wide");
}

TEST(CdiAccumulatorExactTest, NonFiniteTermsAreCountedNotIndexed) {
  // Doubles decoded off the shard wire can be anything. A non-finite term
  // makes the value non-finite, as a double sum would, and retracting it
  // restores the finite value exactly.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Duration ms = Duration::Millis(1);
  CdiAccumulator finite;
  finite.Add(ms, 0.25);
  finite.Add(ms, 0.5);

  CdiAccumulator acc = finite;
  acc.Add(ms, inf);
  EXPECT_EQ(acc.Value(), inf);
  acc.Add(ms, -inf);
  EXPECT_TRUE(std::isnan(acc.Value()));
  acc.Remove(ms, inf);
  EXPECT_EQ(acc.Value(), -inf);
  acc.Remove(ms, -inf);
  EXPECT_EQ(acc.Value(), finite.Value());

  CdiAccumulator with_nan = finite;
  with_nan.Add(ms, nan);
  EXPECT_TRUE(std::isnan(with_nan.Value()));
  CdiAccumulator merged;
  merged.Merge(with_nan);
  EXPECT_TRUE(std::isnan(merged.Value()));
  merged.Remove(ms, nan);
  EXPECT_EQ(merged.Value(), finite.Value());

  // A finite value whose product with its service time overflows is an
  // infinite term too, exactly as the double product is.
  CdiAccumulator overflow;
  overflow.Add(Duration::Days(1), std::numeric_limits<double>::max());
  EXPECT_EQ(overflow.Value(), inf);
}

// --- CanonicalCdiFold: the forwarding shell --------------------------------

TEST(CanonicalCdiFoldTest, BitIdenticalUnderAnyPartitionAndPermutation) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const std::vector<Term> fleet = RandomFleet(rng);
    const VmCdi want = FoldOf(fleet).Finalize();
    for (size_t shards : {1u, 2u, 3u, 5u, 8u}) {
      // Rows travel shard-by-shard in arbitrary order; the coordinator
      // feeds the concatenation to one fold.
      CanonicalCdiFold fold;
      for (const auto& part : RandomSplit(fleet, shards, rng)) {
        for (const Term& t : part) fold.Add(t.vm_id, t.cdi);
      }
      ExpectSameBits(want, fold.Finalize(),
                     "seed " + std::to_string(seed) + " shards " +
                         std::to_string(shards));
    }
  }
}

// --- UnavailabilityPartial: exact under every grouping ---------------------

UnavailabilityStats RandomVmBaseline(Rng& rng, Duration* service_out) {
  UnavailabilityStats vm;
  vm.interruption_count = static_cast<size_t>(rng.UniformInt(0, 5));
  vm.downtime = Duration::Millis(rng.UniformInt(0, 3600 * 1000));
  *service_out = Duration::Minutes(rng.UniformInt(1, 24 * 60));
  return vm;
}

TEST(UnavailabilityPartialMergeTest, ExactlyAssociativeCommutativeIdentity) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.UniformInt(1, 30));
    // The reference: one partial over everything, in order.
    UnavailabilityPartial all;
    std::vector<std::pair<UnavailabilityStats, Duration>> vms;
    for (int i = 0; i < n; ++i) {
      Duration service;
      const UnavailabilityStats vm = RandomVmBaseline(rng, &service);
      all.AddVm(vm, service);
      vms.emplace_back(vm, service);
    }
    const UnavailabilityStats want = all.Finalize();

    // Any random grouping into shards, merged in any order, is bit-equal.
    for (size_t shards : {2u, 3u, 7u}) {
      std::vector<UnavailabilityPartial> parts(shards);
      for (auto it = vms.rbegin(); it != vms.rend(); ++it) {  // reversed
        parts[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(shards) - 1))]
            .AddVm(it->first, it->second);
      }
      // Merge right-to-left (the opposite of the natural order).
      UnavailabilityPartial merged;
      for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        merged.Merge(*it);
      }
      const UnavailabilityStats got = merged.Finalize();
      EXPECT_EQ(want.interruption_count, got.interruption_count) << seed;
      EXPECT_EQ(want.downtime, got.downtime) << seed;
      EXPECT_EQ(want.downtime_percentage, got.downtime_percentage) << seed;
      EXPECT_EQ(want.annual_interruption_rate, got.annual_interruption_rate)
          << seed;
      EXPECT_EQ(want.mtbf, got.mtbf) << seed;
      EXPECT_EQ(want.mttr, got.mttr) << seed;
    }

    // Identity element.
    UnavailabilityPartial with_empty = all;
    with_empty.Merge(UnavailabilityPartial());
    EXPECT_EQ(want.downtime_percentage,
              with_empty.Finalize().downtime_percentage);
  }
}

TEST(UnavailabilityPartialMergeTest, FromRawRoundTripsExactly) {
  // The wire form of a shard's baseline is (count, downtime, service): all
  // integers, so reconstruction is lossless and merging reconstructed
  // partials equals merging the originals.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    UnavailabilityPartial a;
    const int n = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < n; ++i) {
      Duration service;
      const UnavailabilityStats vm = RandomVmBaseline(rng, &service);
      a.AddVm(vm, service);
    }
    const UnavailabilityPartial b = UnavailabilityPartial::FromRaw(
        a.raw_interruption_count(), a.raw_downtime(), a.raw_service_total());
    EXPECT_EQ(a.raw_interruption_count(), b.raw_interruption_count());
    EXPECT_EQ(a.raw_downtime(), b.raw_downtime());
    EXPECT_EQ(a.raw_service_total(), b.raw_service_total());
    const UnavailabilityStats want = a.Finalize();
    const UnavailabilityStats got = b.Finalize();
    EXPECT_EQ(want.downtime_percentage, got.downtime_percentage) << seed;
    EXPECT_EQ(want.annual_interruption_rate, got.annual_interruption_rate)
        << seed;
    EXPECT_EQ(want.mtbf, got.mtbf) << seed;
    EXPECT_EQ(want.mttr, got.mttr) << seed;
  }
}

// --- DailyCdiResultBuilder: merge == one pass -------------------------------

/// One VM of a day, in the form each topology hands it to the builder.
struct DayVm {
  enum class Kind { kEvaluated, kFailed, kSkipped, kDeferred } kind;
  /// kEvaluated: the VM's output.
  VmDailyOutput out;
  /// kEvaluated and kFailed: the VM's final quality record.
  DataQuality quality;
  /// kFailed: the VM, its failure reason and partial resolver counters.
  std::string vm_id;
  std::string reason;
  ResolveStats stats;
};

DataQuality RandomQuality(Rng& rng) {
  DataQuality q;
  if (rng.Bernoulli(0.3)) q.events_quarantined = rng.UniformInt(1, 3);
  if (rng.Bernoulli(0.2)) q.events_missing = rng.UniformInt(1, 3);
  if (rng.Bernoulli(0.1)) q.events_shed = rng.UniformInt(1, 3);
  q.Refresh();
  return q;
}

ResolveStats RandomStats(Rng& rng) {
  ResolveStats s;
  s.resolved = rng.UniformInt(0, 50);
  s.unknown_dropped = rng.UniformInt(0, 2);
  s.duplicate_details_dropped = rng.UniformInt(0, 2);
  s.dangling_end_dropped = rng.UniformInt(0, 2);
  s.unpaired_start_closed = rng.UniformInt(0, 2);
  return s;
}

/// A seeded day of VMs of every kind. `reasons` distinct failure reasons are
/// drawn from; more than kMaxVmErrorSamples exercises the sample cap.
std::vector<DayVm> RandomDay(Rng& rng, int reasons) {
  const std::vector<Term> fleet = RandomFleet(rng);
  std::vector<DayVm> day;
  for (const Term& t : fleet) {
    DayVm vm;
    const double kind = rng.NextDouble();
    if (kind < 0.6) {
      vm.kind = DayVm::Kind::kEvaluated;
      vm.quality = RandomQuality(rng);
      vm.out.record = VmCdiRecord{.vm_id = t.vm_id,
                                  .dims = {{"region", "r0"}},
                                  .cdi = t.cdi,
                                  .quality = {}};
      vm.out.baseline.interruption_count = rng.UniformInt(0, 4);
      vm.out.baseline.downtime = Duration::Millis(rng.UniformInt(0, 600000));
      vm.out.resolve_stats = RandomStats(rng);
      for (int e = static_cast<int>(rng.UniformInt(0, 2)); e > 0; --e) {
        vm.out.events.push_back(EventCdiRecord{
            .vm_id = t.vm_id,
            .event_name = "ev" + std::to_string(e),
            .category = StabilityCategory::kPerformance,
            .damage_minutes = rng.NextDouble() * 100,
            .service_time = t.cdi.service_time,
            .dims = {}});
      }
    } else if (kind < 0.8) {
      vm.kind = DayVm::Kind::kFailed;
      vm.vm_id = t.vm_id;
      vm.reason = "INTERNAL: reason " +
                  std::to_string(rng.UniformInt(1, reasons));
      vm.stats = RandomStats(rng);
      vm.quality = RandomQuality(rng);
    } else if (kind < 0.9) {
      vm.kind = DayVm::Kind::kSkipped;
    } else {
      vm.kind = DayVm::Kind::kDeferred;
    }
    day.push_back(std::move(vm));
  }
  return day;
}

void Feed(const DayVm& vm, DailyCdiResultBuilder* builder) {
  switch (vm.kind) {
    case DayVm::Kind::kEvaluated:
      builder->AddVm(vm.out, vm.quality);
      break;
    case DayVm::Kind::kFailed:
      builder->AddFailed(vm.vm_id, vm.reason, vm.stats, vm.quality);
      break;
    case DayVm::Kind::kSkipped:
      builder->AddSkipped();
      break;
    case DayVm::Kind::kDeferred:
      builder->AddDeferred(1);
      break;
  }
}

DailyCdiResult OnePass(const std::vector<DayVm>& day) {
  DailyCdiResultBuilder builder;
  for (const DayVm& vm : day) Feed(vm, &builder);
  return std::move(builder).Finish();
}

std::set<std::string> SampledReasons(const DailyCdiResult& r) {
  std::set<std::string> out;
  for (const std::string& s : r.vm_error_samples) {
    out.insert(s.substr(s.find(": ") + 2));
  }
  return out;
}

/// Everything that must not depend on how the VMs were split or ordered.
void ExpectSameAggregates(const DailyCdiResult& want, const DailyCdiResult& got,
                          const std::string& what) {
  EXPECT_EQ(want.fleet.unavailability, got.fleet.unavailability) << what;
  EXPECT_EQ(want.fleet.performance, got.fleet.performance) << what;
  EXPECT_EQ(want.fleet.control_plane, got.fleet.control_plane) << what;
  EXPECT_EQ(want.fleet.service_time, got.fleet.service_time) << what;
  const UnavailabilityStats& wb = want.fleet_baseline;
  const UnavailabilityStats& gb = got.fleet_baseline;
  EXPECT_EQ(wb.downtime_percentage, gb.downtime_percentage) << what;
  EXPECT_EQ(wb.annual_interruption_rate, gb.annual_interruption_rate) << what;
  EXPECT_EQ(wb.mtbf, gb.mtbf) << what;
  EXPECT_EQ(wb.mttr, gb.mttr) << what;
  EXPECT_EQ(wb.interruption_count, gb.interruption_count) << what;
  EXPECT_EQ(wb.downtime, gb.downtime) << what;
  EXPECT_EQ(want.fleet_service_time, got.fleet_service_time) << what;
  EXPECT_EQ(want.vms_evaluated, got.vms_evaluated) << what;
  EXPECT_EQ(want.vms_skipped, got.vms_skipped) << what;
  EXPECT_EQ(want.vms_failed, got.vms_failed) << what;
  EXPECT_EQ(want.vms_deferred, got.vms_deferred) << what;
  EXPECT_EQ(want.vms_degraded, got.vms_degraded) << what;
  EXPECT_EQ(want.quality.events_quarantined, got.quality.events_quarantined)
      << what;
  EXPECT_EQ(want.quality.events_missing, got.quality.events_missing) << what;
  EXPECT_EQ(want.quality.events_shed, got.quality.events_shed) << what;
  EXPECT_EQ(want.quality.degraded, got.quality.degraded) << what;
  EXPECT_EQ(want.resolve_stats.resolved, got.resolve_stats.resolved) << what;
  EXPECT_EQ(want.resolve_stats.unpaired_start_closed,
            got.resolve_stats.unpaired_start_closed)
      << what;
  EXPECT_EQ(want.per_vm.size(), got.per_vm.size()) << what;
  EXPECT_EQ(want.per_event.size(), got.per_event.size()) << what;
}

TEST(DailyCdiResultBuilderTest, MergedPartialsMatchOnePass) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Every 4th seed draws more distinct failure reasons than samples fit.
    const int reasons = seed % 4 == 0 ? 14 : 4;
    const std::vector<DayVm> day = RandomDay(rng, reasons);
    DailyCdiResult want = OnePass(day);
    want.SortRows();
    for (size_t shards : {1u, 2u, 3u, 7u}) {
      const std::string what =
          "seed " + std::to_string(seed) + " shards " + std::to_string(shards);
      // Random split into partials, each assembled (and finished) by its own
      // builder the way a shard worker's snapshot is, merged in random order.
      std::vector<std::vector<DayVm>> parts(shards);
      for (const DayVm& vm : day) {
        parts[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(shards) - 1))]
            .push_back(vm);
      }
      for (auto& part : parts) rng.Shuffle(part);
      rng.Shuffle(parts);
      DailyCdiResultBuilder merged;
      std::vector<DayVm> merge_order;
      for (const auto& part : parts) {
        merged.Merge(OnePass(part));
        merge_order.insert(merge_order.end(), part.begin(), part.end());
      }
      DailyCdiResult got = std::move(merged).Finish();
      ExpectSameAggregates(want, got, what);

      // Error sampling keeps arrival order: the merge equals one pass over
      // the VMs in the order the partials delivered them.
      const DailyCdiResult sequential = OnePass(merge_order);
      EXPECT_EQ(sequential.first_vm_error.ToString(),
                got.first_vm_error.ToString())
          << what;
      EXPECT_EQ(sequential.vm_error_samples, got.vm_error_samples) << what;
      EXPECT_EQ(want.first_vm_error.ok(), got.first_vm_error.ok()) << what;
      // Up to the cap, the sampled reason set is order-free.
      if (reasons <= static_cast<int>(DailyCdiResult::kMaxVmErrorSamples)) {
        EXPECT_EQ(SampledReasons(want), SampledReasons(got)) << what;
      }

      got.SortRows();
      for (size_t i = 0; i < want.per_vm.size() && i < got.per_vm.size();
           ++i) {
        EXPECT_EQ(want.per_vm[i].vm_id, got.per_vm[i].vm_id) << what;
        EXPECT_EQ(want.per_vm[i].quality.degraded,
                  got.per_vm[i].quality.degraded)
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace cdibot
