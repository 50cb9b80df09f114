// Exact reproduction of the paper's worked examples (Examples 2-4 and
// Table IV) through the real pipeline: raw events -> period resolution ->
// weights -> Algorithm 1 -> Eq. 4.
#include <gtest/gtest.h>

#include "cdi/aggregate.h"
#include "cdi/indicator.h"
#include "cdi/vm_cdi.h"
#include "event/period_resolver.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

WeightedEventView W(const char* start, const char* end, double weight) {
  return testutil::Weighted(Interval(T(start), T(end)), weight);
}

// Table IV re-built from first principles with the paper's weights.
TEST(PaperExamplesTest, Table4AllRows) {
  // VM 1: 60 min service, two 2-min packet_loss events w = 0.3.
  const Interval s1(T("2024-01-01 10:00"), T("2024-01-01 11:00"));
  const std::vector<WeightedEventView> vm1 = {
      W("2024-01-01 10:08", "2024-01-01 10:10", 0.3),
      W("2024-01-01 10:10", "2024-01-01 10:12", 0.3),
  };
  const double q1 = ComputeCdi(vm1, s1).value();
  EXPECT_DOUBLE_EQ(q1, 0.020);

  // VM 2: 1440 min service, one 5-min vcpu_high w = 0.6.
  const Interval s2(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  const std::vector<WeightedEventView> vm2 = {
      W("2024-01-01 13:25", "2024-01-01 13:30", 0.6),
  };
  const double q2 = ComputeCdi(vm2, s2).value();
  EXPECT_DOUBLE_EQ(q2, 3.0 / 1440.0);

  // VM 3: 1000 min service; slow_io (0.5) x2 overlapped by vcpu_high (0.6).
  const Interval s3(T("2024-01-01 08:00"),
                    T("2024-01-01 08:00") + Duration::Minutes(1000));
  const std::vector<WeightedEventView> vm3 = {
      W("2024-01-01 08:08", "2024-01-01 08:10", 0.5),
      W("2024-01-01 08:10", "2024-01-01 08:12", 0.5),
      W("2024-01-01 08:10", "2024-01-01 08:15", 0.6),
  };
  const double q3 = ComputeCdi(vm3, s3).value();
  EXPECT_DOUBLE_EQ(q3, 0.004);

  // "All" row via Eq. 4.
  CdiAccumulator all;
  all.Add(Duration::Minutes(60), q1);
  all.Add(Duration::Minutes(1440), q2);
  all.Add(Duration::Minutes(1000), q3);
  EXPECT_NEAR(all.Value(), 0.003, 3e-4);
}

// Example 2 driven through the resolver, then Algorithm 1 on the result.
TEST(PaperExamplesTest, Example2ThenAlgorithm1) {
  EventCatalog catalog = EventCatalog::BuiltIn();
  PeriodResolver resolver(&catalog);
  auto mk = [](const char* name, const char* time) {
    RawEvent ev;
    ev.name = name;
    ev.time = TimePoint::Parse(time).value();
    ev.target = "vm-x";
    ev.level = Severity::kFatal;
    ev.expire_interval = Duration::Hours(24);
    return ev;
  };
  auto resolved = testutil::ResolveRaw(resolver, {
      mk("slow_io", "2024-01-01 09:01"),            // e1, 1-minute window
      mk("ddos_blackhole_add", "2024-01-01 10:00"),  // t2
      mk("ddos_blackhole_add", "2024-01-01 10:20"),  // t3, dropped
      mk("ddos_blackhole_del", "2024-01-01 11:00"),  // t4
      mk("ddos_blackhole_del", "2024-01-01 11:30"),  // t5, dropped
  });
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved->size(), 2u);

  // Unavailability weight is 1; slow_io is performance so it does not enter
  // CDI-U. The blackhole lasted 60 of 1440 minutes.
  auto ticket = TicketRankModel::FromCounts({{"slow_io", 1}}, 4);
  auto model = EventWeightModel::Build(std::move(ticket).value(), {}).value();
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto weighted = AttachWeights(*resolved, model);
  ASSERT_TRUE(weighted.ok());
  auto cdi = ComputeVmCdi(*weighted, day);
  ASSERT_TRUE(cdi.ok());
  EXPECT_NEAR(cdi->unavailability, 60.0 / 1440.0, 1e-12);
  EXPECT_GT(cdi->performance, 0.0);
}

// Example 3 through the weight model (w = 0.625) feeding Algorithm 1.
TEST(PaperExamplesTest, Example3WeightDrivesCdi) {
  // 100 events with distinct counts; pick the one above 43% of them.
  std::map<std::string, int64_t> counts;
  for (int i = 0; i < 100; ++i) {
    counts["ev" + std::to_string(1000 + i)] = i;
  }
  auto model =
      EventWeightModel::Build(
          TicketRankModel::FromCounts(counts, 4).value(), {})
          .value();
  const double w = model
                       .WeightFor("ev1043", Severity::kCritical,
                                  StabilityCategory::kPerformance)
                       .value();
  EXPECT_DOUBLE_EQ(w, 0.625);

  // A 10-minute event with this weight in a 100-minute service period.
  const Interval service(T("2024-01-01 00:00"),
                         T("2024-01-01 00:00") + Duration::Minutes(100));
  const ResolvedEventView ev = testutil::Resolved(
      "ev1043", Interval(T("2024-01-01 00:10"), T("2024-01-01 00:20")),
      StabilityCategory::kPerformance, Severity::kCritical, "vm");
  auto weighted = AttachWeights({ev}, model);
  ASSERT_TRUE(weighted.ok());
  auto cdi = ComputeVmCdi(*weighted, service);
  ASSERT_TRUE(cdi.ok());
  EXPECT_DOUBLE_EQ(cdi->performance, 0.0625);
}

}  // namespace
}  // namespace cdibot
