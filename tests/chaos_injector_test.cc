// Unit tests for the chaos layer itself: injector determinism, the fault
// taxonomy, quarantine validation, metric corruption, torn-write text
// corruption, and the injected-I/O-failure / RetryPolicy interplay.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "chaos/quarantine.h"
#include "common/retry.h"
#include "telemetry/metric_series.h"

namespace cdibot {
namespace {

using chaos::ChaosInjector;
using chaos::FaultKind;
using chaos::FaultPlan;
using chaos::InjectedStream;
using chaos::QuarantineReason;
using chaos::ValidateRawEvent;

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

std::vector<RawEvent> CleanStream(int n) {
  std::vector<RawEvent> events;
  for (int i = 0; i < n; ++i) {
    RawEvent ev;
    ev.name = "slow_io";
    ev.time = T("2026-05-20 00:00") + Duration::Minutes(i);
    ev.target = "vm-" + std::to_string(i % 5);
    ev.level = Severity::kCritical;
    ev.expire_interval = Duration::Hours(1);
    events.push_back(std::move(ev));
  }
  return events;
}

TEST(FaultTaxonomyTest, LossyClassification) {
  EXPECT_FALSE(chaos::FaultKindIsLossy(FaultKind::kDuplicate));
  EXPECT_FALSE(chaos::FaultKindIsLossy(FaultKind::kReorder));
  EXPECT_FALSE(chaos::FaultKindIsLossy(FaultKind::kDelay));
  EXPECT_FALSE(chaos::FaultKindIsLossy(FaultKind::kIoFailure));
  EXPECT_TRUE(chaos::FaultKindIsLossy(FaultKind::kDrop));
  EXPECT_TRUE(chaos::FaultKindIsLossy(FaultKind::kDropBatch));
  EXPECT_TRUE(chaos::FaultKindIsLossy(FaultKind::kMalform));
  EXPECT_TRUE(chaos::FaultKindIsLossy(FaultKind::kClockSkew));

  EXPECT_FALSE(chaos::CleanPlan().enabled());
  EXPECT_FALSE(chaos::MixedLosslessPlan(1).lossy());
  EXPECT_TRUE(chaos::MixedLossyPlan(1).lossy());
  EXPECT_FALSE(chaos::FlakyIoPlan(1).lossy());
}

TEST(ChaosInjectorTest, DisabledInjectorIsIdentity) {
  ChaosInjector injector(chaos::CleanPlan());
  EXPECT_FALSE(injector.enabled());
  const std::vector<RawEvent> clean = CleanStream(40);
  const InjectedStream out = injector.ApplyToEvents(clean);
  ASSERT_EQ(out.arrivals.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(out.arrivals[i].name, clean[i].name);
    EXPECT_EQ(out.arrivals[i].time, clean[i].time);
    EXPECT_EQ(out.arrivals[i].target, clean[i].target);
  }
  EXPECT_TRUE(out.affected_targets.empty());
  // The delivery manifest still announces clean per-target counts.
  EXPECT_EQ(out.announced.size(), 5u);
  for (const auto& [target, count] : out.announced) {
    EXPECT_EQ(count, 8u) << target;
  }
}

TEST(ChaosInjectorTest, DuplicationAddsExactCopies) {
  ChaosInjector injector(chaos::DuplicationPlan(3, /*p=*/1.0, /*copies=*/2));
  const InjectedStream out = injector.ApplyToEvents(CleanStream(10));
  EXPECT_EQ(out.arrivals.size(), 30u);  // each event + 2 copies
  EXPECT_EQ(out.stats.duplicates_injected, 20u);
  EXPECT_TRUE(out.affected_targets.empty());  // duplication is lossless
}

TEST(ChaosInjectorTest, DropRemovesAndRecordsAffectedTargets) {
  ChaosInjector injector(chaos::DropPlan(4, /*p=*/1.0));
  const InjectedStream out = injector.ApplyToEvents(CleanStream(10));
  EXPECT_TRUE(out.arrivals.empty());
  EXPECT_EQ(out.stats.events_dropped, 10u);
  EXPECT_EQ(out.affected_targets.size(), 5u);  // all five VMs lost events
}

TEST(ChaosInjectorTest, CollectorOutageDropsContiguousRun) {
  ChaosInjector injector(
      chaos::CollectorOutagePlan(5, /*p=*/0.05, /*burst=*/10));
  const InjectedStream out = injector.ApplyToEvents(CleanStream(200));
  EXPECT_GT(out.stats.batches_dropped, 0u);
  EXPECT_GE(out.stats.events_dropped, out.stats.batches_dropped);
  EXPECT_EQ(out.arrivals.size() + out.stats.events_dropped, 200u);
}

TEST(ChaosInjectorTest, MalformedEventsFailValidation) {
  ChaosInjector injector(chaos::MalformPlan(6, /*p=*/1.0));
  const InjectedStream out = injector.ApplyToEvents(CleanStream(50));
  ASSERT_EQ(out.arrivals.size(), 50u);  // malform corrupts, never removes
  EXPECT_EQ(out.stats.events_malformed, 50u);
  for (const RawEvent& ev : out.arrivals) {
    EXPECT_TRUE(ValidateRawEvent(ev).has_value());
  }
  // Affected targets were recorded BEFORE the target field could be wiped.
  EXPECT_EQ(out.affected_targets.size(), 5u);
}

TEST(ChaosInjectorTest, ReorderDisplacementIsBounded) {
  ChaosInjector injector(chaos::ReorderPlan(7, /*p=*/0.5, /*horizon=*/8));
  const std::vector<RawEvent> clean = CleanStream(100);
  const InjectedStream out = injector.ApplyToEvents(clean);
  ASSERT_EQ(out.arrivals.size(), clean.size());
  EXPECT_GT(out.stats.reorders_applied, 0u);
  // Same multiset of events (reorder is lossless)...
  for (const RawEvent& ev : out.arrivals) {
    EXPECT_FALSE(ValidateRawEvent(ev).has_value());
  }
  // ...and each event moved at most `horizon` positions from its slot.
  for (size_t i = 0; i < out.arrivals.size(); ++i) {
    const int64_t original =
        (out.arrivals[i].time - T("2026-05-20 00:00")).minutes();
    EXPECT_LE(std::llabs(original - static_cast<int64_t>(i)), 8)
        << "event " << i;
  }
}

TEST(ChaosInjectorTest, ClockSkewAltersTimestampsWithinMagnitude) {
  const Duration max_skew = Duration::Minutes(30);
  ChaosInjector injector(chaos::ClockSkewPlan(8, /*p=*/1.0, max_skew));
  const std::vector<RawEvent> clean = CleanStream(50);
  const InjectedStream out = injector.ApplyToEvents(clean);
  ASSERT_EQ(out.arrivals.size(), clean.size());
  EXPECT_EQ(out.stats.clock_skews_applied, 50u);
  for (size_t i = 0; i < clean.size(); ++i) {
    const int64_t shift =
        std::llabs((out.arrivals[i].time - clean[i].time).millis());
    EXPECT_LE(shift, max_skew.millis());
  }
}

TEST(ChaosInjectorTest, MetricCorruptionInjectsNanAndInf) {
  ChaosInjector injector(
      chaos::MetricCorruptionPlan(9, /*nan_p=*/0.5, /*inf_p=*/0.5));
  MetricSeries series;
  series.metric = "cpu_util";
  series.target = "vm-1";
  for (int i = 0; i < 200; ++i) {
    series.points.push_back(
        MetricPoint{T("2026-05-20 00:00") + Duration::Minutes(i), 42.0});
  }
  injector.ApplyToMetricSeries(&series);
  size_t nan_count = 0;
  size_t inf_count = 0;
  for (const MetricPoint& p : series.points) {
    if (std::isnan(p.value)) ++nan_count;
    if (std::isinf(p.value)) ++inf_count;
  }
  EXPECT_GT(nan_count, 0u);
  EXPECT_GT(inf_count, 0u);
  EXPECT_EQ(nan_count + inf_count, injector.stats().metric_points_corrupted);
}

TEST(ChaosInjectorTest, CorruptTextAlwaysChangesNonTrivialInput) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "row-" + std::to_string(i) + ",value\n";
  }
  ChaosInjector injector(chaos::MalformPlan(11));
  for (int round = 0; round < 20; ++round) {
    EXPECT_NE(injector.CorruptText(text), text) << "round " << round;
  }
}

TEST(ChaosInjectorTest, CorruptFileRewritesInPlace) {
  const std::string path = ::testing::TempDir() + "/chaos_corrupt_input.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    for (int i = 0; i < 50; ++i) out << "line " << i << "\n";
  }
  std::ifstream before_in(path);
  const std::string before((std::istreambuf_iterator<char>(before_in)),
                           std::istreambuf_iterator<char>());
  before_in.close();

  ChaosInjector injector(chaos::MalformPlan(12));
  ASSERT_TRUE(injector.CorruptFile(path).ok());
  std::ifstream after_in(path);
  const std::string after((std::istreambuf_iterator<char>(after_in)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(after, before);

  EXPECT_TRUE(injector.CorruptFile(path + ".does-not-exist").IsNotFound());
}

TEST(ChaosInjectorTest, InjectedIoFailureIsRetryable) {
  ChaosInjector always(chaos::FlakyIoPlan(13, /*p=*/1.0));
  const Status st = always.MaybeFailIo("save");
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_TRUE(st.IsRetryable());
  EXPECT_EQ(always.stats().io_failures_injected, 1u);

  ChaosInjector never(chaos::FlakyIoPlan(13, /*p=*/0.0));
  EXPECT_TRUE(never.MaybeFailIo("save").ok());
}

TEST(ChaosInjectorTest, RetryPolicyRidesOutFlakyIo) {
  // p=0.5 flakiness against a 6-attempt budget: the retry loop eventually
  // punches through, and the schedule is reproducible from the seeds.
  ChaosInjector injector(chaos::FlakyIoPlan(14, /*p=*/0.5));
  RetryOptions options;
  options.max_attempts = 6;
  RetryPolicy policy(options, /*jitter_seed=*/1);
  policy.set_sleeper([](Duration) {});
  int real_ios = 0;
  const Status st = policy.Run([&] {
    CDIBOT_RETURN_IF_ERROR(injector.MaybeFailIo("save"));
    ++real_ios;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(real_ios, 1);
  EXPECT_EQ(static_cast<uint64_t>(policy.last_attempts()),
            injector.stats().io_failures_injected + 1);
}

// One table of validation cases, run through both validators: stream
// ingest checks RawEvents, the batch job checks refs into the event log's
// rows, and both must divert exactly the same events for the same reason.
struct ValidationCase {
  const char* label;
  RawEvent event;
  std::optional<QuarantineReason> want;
};

std::vector<ValidationCase> ValidationCases() {
  const RawEvent good = CleanStream(1)[0];
  std::vector<ValidationCase> cases;
  auto add = [&cases, &good](const char* label, auto mutate,
                             std::optional<QuarantineReason> want) {
    RawEvent ev = good;
    mutate(ev);
    cases.push_back(ValidationCase{label, std::move(ev), want});
  };
  add("good", [](RawEvent&) {}, std::nullopt);
  add("logged duration", [](RawEvent& ev) { ev.attrs["duration_ms"] = "2500"; },
      std::nullopt);
  add("duration among extra keys",
      [](RawEvent& ev) { ev.attrs = {{"duration_ms", "42"}, {"k", "v"}}; },
      std::nullopt);
  add("other attrs only", [](RawEvent& ev) { ev.attrs["k"] = "v"; },
      std::nullopt);
  add("zero expire", [](RawEvent& ev) { ev.expire_interval = Duration(); },
      std::nullopt);
  add("no name", [](RawEvent& ev) { ev.name.clear(); },
      QuarantineReason::kEmptyName);
  add("no target", [](RawEvent& ev) { ev.target.clear(); },
      QuarantineReason::kEmptyTarget);
  add("severity 9", [](RawEvent& ev) { ev.level = static_cast<Severity>(9); },
      QuarantineReason::kBadSeverity);
  add("severity 0", [](RawEvent& ev) { ev.level = static_cast<Severity>(0); },
      QuarantineReason::kBadSeverity);
  add("negative expire",
      [](RawEvent& ev) { ev.expire_interval = Duration::Millis(-5); },
      QuarantineReason::kNegativeExpire);
  add("garbage duration",
      [](RawEvent& ev) { ev.attrs["duration_ms"] = "garbage"; },
      QuarantineReason::kBadDurationAttr);
  add("negative duration", [](RawEvent& ev) { ev.attrs["duration_ms"] = "-5"; },
      QuarantineReason::kBadDurationAttr);
  add("bad duration among extra keys",
      [](RawEvent& ev) { ev.attrs = {{"duration_ms", "1x"}, {"k", "v"}}; },
      QuarantineReason::kBadDurationAttr);
  // The first defect wins: name before target before severity.
  add("no name and no target",
      [](RawEvent& ev) {
        ev.name.clear();
        ev.target.clear();
      },
      QuarantineReason::kEmptyName);
  add("bad severity and negative expire",
      [](RawEvent& ev) {
        ev.level = static_cast<Severity>(7);
        ev.expire_interval = Duration::Millis(-1);
      },
      QuarantineReason::kBadSeverity);
  return cases;
}

TEST(QuarantineTest, ValidateRawEventFindsEachDefect) {
  for (const ValidationCase& c : ValidationCases()) {
    EXPECT_EQ(ValidateRawEvent(c.event), c.want) << c.label;
  }
}

TEST(QuarantineTest, ValidateEventViewFindsEachDefect) {
  EventRows rows;
  for (const ValidationCase& c : ValidationCases()) {
    const EventRef ref(&rows, rows.Append(c.event));
    EXPECT_EQ(chaos::ValidateEventView(ref), c.want) << c.label;
    EXPECT_EQ(chaos::ValidateEventView(ref), ValidateRawEvent(c.event))
        << c.label;
  }
}

TEST(QuarantineTest, SinkCountsAndCapsSamples) {
  chaos::QuarantineSink sink;
  RawEvent ev = CleanStream(1)[0];
  ev.name.clear();
  for (int i = 0; i < 40; ++i) {
    ev.target = "vm-" + std::to_string(i % 2);
    sink.Quarantine(ev, QuarantineReason::kEmptyName);
  }
  sink.QuarantineRow("events_x.csv", QuarantineReason::kMalformedRow);

  EXPECT_EQ(sink.total(), 41u);
  EXPECT_EQ(sink.count(QuarantineReason::kEmptyName), 40u);
  EXPECT_EQ(sink.count(QuarantineReason::kMalformedRow), 1u);
  EXPECT_EQ(sink.count_for_target("vm-0"), 20u);
  EXPECT_EQ(sink.count_for_target("vm-1"), 20u);
  EXPECT_EQ(sink.count_for_target("vm-2"), 0u);
  // A poisoned stream cannot exhaust memory: samples cap, counters grow.
  EXPECT_EQ(sink.samples().size(), chaos::QuarantineSink::kMaxSamples);
  EXPECT_NE(sink.Summary().find("empty_name=40"), std::string::npos);

  // Round-trip through the checkpoint representation.
  chaos::QuarantineSink restored;
  restored.MergeCountsByReason(sink.CountsByReason());
  restored.RestoreTargetCount("vm-0", sink.count_for_target("vm-0"));
  EXPECT_EQ(restored.total(), 41u);
  EXPECT_EQ(restored.count(QuarantineReason::kEmptyName), 40u);
  EXPECT_EQ(restored.count_for_target("vm-0"), 20u);
}

}  // namespace
}  // namespace cdibot
