// Randomized property tests: differential checks and invariants that hold
// for arbitrary inputs, swept over many seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <map>

#include "cdi/aggregate.h"
#include "common/rng.h"
#include "event/period_resolver.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

// --- Interval algebra -------------------------------------------------------

TEST_P(FuzzTest, IntervalAlgebraLaws) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    auto mk = [&rng]() {
      const int64_t a = rng.UniformInt(0, 1000);
      const int64_t b = rng.UniformInt(0, 1000);
      return Interval(TimePoint::FromMillis(a), TimePoint::FromMillis(b));
    };
    const Interval x = mk(), y = mk(), z = mk();
    // Intersection is commutative (as a set: empty==empty in length terms).
    EXPECT_EQ(x.Intersect(y).length(), y.Intersect(x).length());
    // Clamping is idempotent.
    const Interval once = x.ClampTo(y);
    EXPECT_EQ(once.ClampTo(y).length(), once.length());
    // Intersection is associative in length.
    EXPECT_EQ(x.Intersect(y).Intersect(z).length(),
              x.Intersect(y.Intersect(z)).length());
    // Overlap symmetric and consistent with intersection.
    EXPECT_EQ(x.Overlaps(y), y.Overlaps(x));
    EXPECT_EQ(x.Overlaps(y), !x.Intersect(y).empty());
  }
}

// --- Period resolver invariants ---------------------------------------------

TEST_P(FuzzTest, ResolverInvariantsOnRandomStreams) {
  Rng rng(GetParam() + 1000);
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const PeriodResolver resolver(&catalog);
  const TimePoint day0 = TimePoint::Parse("2024-06-01 00:00").value();
  const Interval bounds(day0, day0 + Duration::Days(1));

  const char* names[] = {"slow_io",           "packet_loss",
                         "qemu_live_upgrade", "ddos_blackhole_add",
                         "ddos_blackhole_del", "not_in_catalog"};
  std::vector<RawEvent> raw;
  const int n = static_cast<int>(rng.UniformInt(0, 120));
  for (int i = 0; i < n; ++i) {
    RawEvent ev;
    ev.name = names[rng.UniformInt(0, 5)];
    ev.time = day0 + Duration::Millis(
                  rng.UniformInt(-3600000, bounds.length().millis()));
    ev.target = rng.Bernoulli(0.5) ? "vm-a" : "vm-b";
    ev.level = static_cast<Severity>(rng.UniformInt(1, 4));
    ev.expire_interval = Duration::Hours(rng.UniformInt(1, 24));
    if (rng.Bernoulli(0.3)) {
      ev.attrs["duration_ms"] =
          std::to_string(rng.UniformInt(100, 600000));
    }
    raw.push_back(std::move(ev));
  }

  ResolveStats stats;
  auto resolved = testutil::ResolveRaw(resolver, raw, bounds, &stats);
  ASSERT_TRUE(resolved.ok());

  size_t unknown_in = 0;
  for (const RawEvent& ev : raw) {
    if (ev.name == std::string("not_in_catalog")) ++unknown_in;
  }
  EXPECT_EQ(stats.unknown_dropped, unknown_in);

  std::map<std::string, std::vector<Interval>> stateful_periods;
  for (const ResolvedEventView& ev : *resolved) {
    // Every period is non-empty and inside the bounds.
    EXPECT_FALSE(ev.period.empty());
    EXPECT_GE(ev.period.start, bounds.start);
    EXPECT_LE(ev.period.end, bounds.end);
    // Names are parent names, never details or unknowns.
    const std::string name(testutil::NameOf(ev.name_id));
    EXPECT_TRUE(catalog.Contains(name));
    EXPECT_NE(name, "ddos_blackhole_add");
    EXPECT_NE(name, "not_in_catalog");
    if (name == "ddos_blackhole") {
      stateful_periods[std::string(testutil::NameOf(ev.target_id))].push_back(
          ev.period);
    }
  }
  // Stateful episodes of one target never overlap (pairing is sequential).
  for (auto& [target, periods] : stateful_periods) {
    std::sort(periods.begin(), periods.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    for (size_t i = 1; i < periods.size(); ++i) {
      EXPECT_LE(periods[i - 1].end, periods[i].start) << target;
    }
  }
  // Counters are consistent: every input is resolved, dropped, or merged
  // into a stateful pair (a resolved pair consumes 2 inputs; an unpaired
  // start consumes 1).
  EXPECT_LE(stats.resolved, raw.size());
}

// Resolution is invariant under arrival-order permutations: the resolver
// canonicalizes internally, so shuffled (or late, out-of-order) delivery of
// the same raw set produces the same periods and the same data-quality
// counters. This is the property the streaming engine's batch-equivalence
// guarantee rests on.
TEST_P(FuzzTest, ResolverIsPermutationInvariant) {
  Rng rng(GetParam() + 4000);
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const PeriodResolver resolver(&catalog);
  const TimePoint day0 = TimePoint::Parse("2024-06-01 00:00").value();
  const Interval bounds(day0, day0 + Duration::Days(1));

  const char* names[] = {"slow_io",           "packet_loss",
                         "qemu_live_upgrade", "ddos_blackhole_add",
                         "ddos_blackhole_del", "not_in_catalog"};
  std::vector<RawEvent> raw;
  const int n = static_cast<int>(rng.UniformInt(2, 120));
  for (int i = 0; i < n; ++i) {
    RawEvent ev;
    ev.name = names[rng.UniformInt(0, 5)];
    // Coarse timestamps on purpose: collisions are likely, so the
    // permutation invariance must hold even for ties.
    ev.time = day0 + Duration::Minutes(rng.UniformInt(-60, 24 * 60));
    ev.target = rng.Bernoulli(0.5) ? "vm-a" : "vm-b";
    ev.level = static_cast<Severity>(rng.UniformInt(1, 4));
    ev.expire_interval = Duration::Hours(rng.UniformInt(1, 24));
    raw.push_back(std::move(ev));
    // Exact duplicates (double delivery) are part of the input space.
    if (rng.Bernoulli(0.15)) raw.push_back(raw.back());
  }

  auto canonical = [](std::vector<ResolvedEventView> events) {
    std::sort(events.begin(), events.end(),
              [](const ResolvedEventView& a, const ResolvedEventView& b) {
                return std::tie(a.target_id, a.name_id, a.period.start,
                                a.period.end) <
                       std::tie(b.target_id, b.name_id, b.period.start,
                                b.period.end);
              });
    return events;
  };

  ResolveStats base_stats;
  auto base = testutil::ResolveRaw(resolver, raw, bounds, &base_stats);
  ASSERT_TRUE(base.ok());
  const auto base_sorted = canonical(*base);

  for (int round = 0; round < 5; ++round) {
    std::vector<RawEvent> shuffled = raw;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(i) - 1))]);
    }
    ResolveStats stats;
    auto resolved = testutil::ResolveRaw(resolver, shuffled, bounds, &stats);
    ASSERT_TRUE(resolved.ok());
    const auto sorted = canonical(*resolved);

    ASSERT_EQ(sorted.size(), base_sorted.size()) << "round " << round;
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i].name_id, base_sorted[i].name_id);
      EXPECT_EQ(sorted[i].target_id, base_sorted[i].target_id);
      EXPECT_EQ(sorted[i].period.start, base_sorted[i].period.start);
      EXPECT_EQ(sorted[i].period.end, base_sorted[i].period.end);
      EXPECT_EQ(sorted[i].level, base_sorted[i].level);
      EXPECT_EQ(sorted[i].category, base_sorted[i].category);
    }
    EXPECT_EQ(stats.resolved, base_stats.resolved);
    EXPECT_EQ(stats.unknown_dropped, base_stats.unknown_dropped);
    EXPECT_EQ(stats.duplicate_details_dropped,
              base_stats.duplicate_details_dropped);
    EXPECT_EQ(stats.dangling_end_dropped, base_stats.dangling_end_dropped);
    EXPECT_EQ(stats.unpaired_start_closed, base_stats.unpaired_start_closed);
  }
}

// Late delivery as a prefix/suffix split: resolving the full set equals
// resolving "everything seen so far plus the stragglers", regardless of
// where the split falls — the recompute-from-buffer model the streaming
// engine uses is therefore exact, never approximate.
TEST_P(FuzzTest, LateDeliverySplitIsExact) {
  Rng rng(GetParam() + 5000);
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const PeriodResolver resolver(&catalog);
  const TimePoint day0 = TimePoint::Parse("2024-06-01 00:00").value();
  const Interval bounds(day0, day0 + Duration::Days(1));

  std::vector<RawEvent> raw;
  const char* names[] = {"slow_io", "ddos_blackhole_add",
                         "ddos_blackhole_del"};
  const int n = static_cast<int>(rng.UniformInt(4, 80));
  for (int i = 0; i < n; ++i) {
    RawEvent ev;
    ev.name = names[rng.UniformInt(0, 2)];
    ev.time = day0 + Duration::Minutes(rng.UniformInt(0, 24 * 60 - 1));
    ev.target = "vm-a";
    ev.level = Severity::kCritical;
    ev.expire_interval = Duration::Hours(2);
    raw.push_back(std::move(ev));
  }

  ResolveStats full_stats;
  auto full = testutil::ResolveRaw(resolver, raw, bounds, &full_stats);
  ASSERT_TRUE(full.ok());

  // "On-time" prefix arrives first, "late" suffix arrives afterwards in
  // reverse order; the union re-resolved must equal the one-shot result.
  const size_t cut = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(raw.size())));
  std::vector<RawEvent> replay(raw.begin(), raw.begin() + cut);
  for (size_t i = raw.size(); i > cut; --i) replay.push_back(raw[i - 1]);
  ResolveStats replay_stats;
  auto replayed = testutil::ResolveRaw(resolver, replay, bounds, &replay_stats);
  ASSERT_TRUE(replayed.ok());

  ASSERT_EQ(replayed->size(), full->size());
  double full_minutes = 0.0, replay_minutes = 0.0;
  for (const ResolvedEventView& ev : *full) {
    full_minutes += ev.period.length().minutes();
  }
  for (const ResolvedEventView& ev : *replayed) {
    replay_minutes += ev.period.length().minutes();
  }
  EXPECT_DOUBLE_EQ(full_minutes, replay_minutes);
  EXPECT_EQ(replay_stats.resolved, full_stats.resolved);
}

// --- Eq. 4 accumulator laws ---------------------------------------------------

TEST_P(FuzzTest, AccumulatorMergeIsSplitInvariant) {
  Rng rng(GetParam() + 3000);
  std::vector<std::pair<Duration, double>> samples;
  const int n = static_cast<int>(rng.UniformInt(1, 60));
  for (int i = 0; i < n; ++i) {
    samples.emplace_back(Duration::Minutes(rng.UniformInt(1, 3000)),
                         rng.Uniform(0.0, 1.0));
  }
  CdiAccumulator whole;
  for (const auto& [svc, q] : samples) whole.Add(svc, q);

  // Split at a random point; merged halves equal the whole.
  const size_t cut = static_cast<size_t>(rng.UniformInt(0, n));
  CdiAccumulator left, right;
  for (size_t i = 0; i < samples.size(); ++i) {
    (i < cut ? left : right).Add(samples[i].first, samples[i].second);
  }
  left.Merge(right);
  EXPECT_NEAR(left.Value(), whole.Value(), 1e-12);
  EXPECT_EQ(left.total_service_time(), whole.total_service_time());

  // Q is a weighted mean: bounded by min/max of inputs.
  double lo = 1.0, hi = 0.0;
  for (const auto& [svc, q] : samples) {
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  EXPECT_GE(whole.Value() + 1e-12, lo);
  EXPECT_LE(whole.Value() - 1e-12, hi);
}

// Retraction law: adding VMs then removing a subset equals building the
// partial from the remaining VMs directly (up to float rounding). This is
// what lets the streaming engine revise a VM in place.
TEST_P(FuzzTest, FleetPartialRetractionMatchesRebuild) {
  Rng rng(GetParam() + 6000);
  std::vector<VmCdi> vms;
  const int n = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < n; ++i) {
    VmCdi vm;
    vm.unavailability = rng.Uniform(0.0, 1.0);
    vm.performance = rng.Uniform(0.0, 1.0);
    vm.control_plane = rng.Uniform(0.0, 1.0);
    vm.service_time = Duration::Minutes(rng.UniformInt(1, 1440));
    vms.push_back(vm);
  }

  FleetCdiPartial churned;
  for (const VmCdi& vm : vms) churned.AddVm(vm);
  std::vector<bool> keep(vms.size(), true);
  for (size_t i = 0; i < vms.size(); ++i) {
    if (rng.Bernoulli(0.4)) {
      churned.RemoveVm(vms[i]);
      keep[i] = false;
    }
  }

  FleetCdiPartial rebuilt;
  for (size_t i = 0; i < vms.size(); ++i) {
    if (keep[i]) rebuilt.AddVm(vms[i]);
  }

  const VmCdi a = churned.Finalize();
  const VmCdi b = rebuilt.Finalize();
  EXPECT_NEAR(a.unavailability, b.unavailability, 1e-9);
  EXPECT_NEAR(a.performance, b.performance, 1e-9);
  EXPECT_NEAR(a.control_plane, b.control_plane, 1e-9);
  EXPECT_EQ(a.service_time, b.service_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace cdibot
