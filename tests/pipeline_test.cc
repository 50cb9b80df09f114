#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "shard_equivalence_harness.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : catalog_(EventCatalog::BuiltIn()) {
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"packet_loss", 60}, {"vcpu_high", 40},
         {"vm_start_failed", 20}},
        4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
    day_ = Interval(T("2024-04-25 00:00"), T("2024-04-26 00:00"));
  }

  // Emits one windowed raw event per minute across `episode`.
  void InjectWindowed(const char* name, const char* vm, TimePoint start,
                      int minutes, Severity level = Severity::kCritical) {
    for (int i = 1; i <= minutes; ++i) {
      RawEvent ev;
      ev.name = name;
      ev.time = start + Duration::Minutes(i);
      ev.target = vm;
      ev.level = level;
      ev.expire_interval = Duration::Hours(24);
      log_.Append(ev);
    }
  }

  DailyCdiJob::Options JobOptions(const EventWeightModel& weights) const {
    return {.log = &log_, .catalog = &catalog_, .weights = &weights};
  }

  std::vector<VmServiceInfo> TwoVms() const {
    return {
        VmServiceInfo{.vm_id = "vm-1",
                      .dims = {{"region", "r0"}, {"az", "r0-az0"}},
                      .service_period = day_},
        VmServiceInfo{.vm_id = "vm-2",
                      .dims = {{"region", "r0"}, {"az", "r0-az1"}},
                      .service_period = day_},
    };
  }

  EventCatalog catalog_;
  std::optional<EventWeightModel> weights_;
  EventLog log_;
  Interval day_;
};

TEST_F(PipelineTest, CleanFleetHasZeroCdi) {
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(TwoVms(), day_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_vm.size(), 2u);
  EXPECT_DOUBLE_EQ(result->fleet.unavailability, 0.0);
  EXPECT_DOUBLE_EQ(result->fleet.performance, 0.0);
  EXPECT_DOUBLE_EQ(result->fleet.control_plane, 0.0);
  EXPECT_EQ(result->fleet_service_time, Duration::Days(2));
  EXPECT_TRUE(result->per_event.empty());
}

TEST_F(PipelineTest, ComputesPerVmAndFleetValues) {
  // vm-1: 144 minutes of slow_io (10% of day, weight 0.875 for critical level
  // 0.75 composed with top ticket rank 1.0).
  InjectWindowed("slow_io", "vm-1", T("2024-04-25 08:00"), 144);
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(TwoVms(), day_);
  ASSERT_TRUE(result.ok());
  const VmCdiRecord* vm1 = nullptr;
  for (const auto& rec : result->per_vm) {
    if (rec.vm_id == "vm-1") vm1 = &rec;
  }
  ASSERT_NE(vm1, nullptr);
  EXPECT_NEAR(vm1->cdi.performance, 0.875 * 0.1, 1e-9);
  // Fleet averages across two equal-service VMs.
  EXPECT_NEAR(result->fleet.performance, 0.875 * 0.1 / 2.0, 1e-9);
  // Event-level table has a slow_io row for vm-1.
  ASSERT_EQ(result->per_event.size(), 1u);
  EXPECT_EQ(result->per_event[0].event_name, "slow_io");
  EXPECT_NEAR(result->per_event[0].damage_minutes, 144 * 0.875, 1e-6);
}

TEST_F(PipelineTest, BaselineSeesOnlyUnavailability) {
  InjectWindowed("vm_crash", "vm-1", T("2024-04-25 10:00"), 72,
                 Severity::kFatal);
  InjectWindowed("slow_io", "vm-2", T("2024-04-25 10:00"), 720);
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(TwoVms(), day_);
  ASSERT_TRUE(result.ok());
  // DP = 72 / 2880 VM-minutes.
  EXPECT_NEAR(result->fleet_baseline.downtime_percentage, 72.0 / 2880.0,
              1e-9);
  EXPECT_EQ(result->fleet_baseline.interruption_count, 1u);
  EXPECT_GT(result->fleet.performance, 0.0);
}

TEST_F(PipelineTest, VmsOutsideWindowAreSkipped) {
  auto vms = TwoVms();
  vms.push_back(VmServiceInfo{
      .vm_id = "vm-old",
      .service_period = Interval(T("2024-04-20 00:00"),
                                 T("2024-04-21 00:00"))});
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(vms, day_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_vm.size(), 2u);
}

TEST_F(PipelineTest, PartialDayServiceClamps) {
  // VM released mid-day: its service time is 12h and an event beyond the
  // release is discarded.
  std::vector<VmServiceInfo> vms = {VmServiceInfo{
      .vm_id = "vm-1",
      .service_period = Interval(T("2024-04-25 00:00"),
                                 T("2024-04-25 12:00"))}};
  InjectWindowed("slow_io", "vm-1", T("2024-04-25 13:00"), 30);
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(vms, day_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_vm.size(), 1u);
  EXPECT_EQ(result->per_vm[0].cdi.service_time, Duration::Hours(12));
  EXPECT_DOUBLE_EQ(result->per_vm[0].cdi.performance, 0.0);
}

TEST_F(PipelineTest, ParallelAndSerialAgree) {
  // A one-level weight model: kInfo performance events weigh in, warning-
  // or-worse ones fail their VM mid-computation (ordinals 2-4 give three
  // distinct reasons), and unavailability events are unweighted.
  auto ticket =
      TicketRankModel::FromCounts({{"slow_io", 100}, {"packet_loss", 60}}, 4);
  const EventWeightModel strict =
      EventWeightModel::Build(std::move(ticket).value(), {.expert_levels = 1})
          .value();
  const Interval gone(T("2024-04-20 00:00"), T("2024-04-21 00:00"));

  // 2,400 VMs: on 4 threads that is 256 chunks of 9-10 VMs, so the
  // skipped (every 11th) and failing (every 7th) VMs straddle many chunk
  // boundaries.
  std::vector<VmServiceInfo> vms;
  std::vector<std::string> want_rows;
  size_t want_skipped = 0;
  size_t want_failed = 0;
  for (int i = 0; i < 2400; ++i) {
    const std::string id = "vm-" + std::to_string(i);
    VmServiceInfo vm{.vm_id = id,
                     .dims = {{"region", "r" + std::to_string(i % 3)},
                              {"az", "az" + std::to_string(i % 5)}},
                     .service_period = day_};
    if (i % 11 == 5) {
      vm.service_period = gone;
      ++want_skipped;
    } else if (i % 7 == 3) {
      InjectWindowed("slow_io", id.c_str(),
                     T("2024-04-25 08:00") + Duration::Minutes(i % 60), 3,
                     static_cast<Severity>(2 + i % 3));
      ++want_failed;
    } else {
      if (i % 13 == 0) {
        vm.service_period = Interval(
            day_.start + Duration::Minutes(i % 720), day_.end);
      }
      InjectWindowed("slow_io", id.c_str(),
                     T("2024-04-25 06:00") + Duration::Minutes(i % 600),
                     1 + i % 17, Severity::kInfo);
      if (i % 3 == 0) {
        InjectWindowed("packet_loss", id.c_str(),
                       T("2024-04-25 14:00") + Duration::Minutes(i % 90),
                       1 + i % 5, Severity::kInfo);
      }
      if (i % 5 == 0) {
        InjectWindowed("vm_crash", id.c_str(), T("2024-04-25 12:00"),
                       1 + i % 9, Severity::kFatal);
      }
      want_rows.push_back(id);
    }
    vms.push_back(std::move(vm));
  }

  DailyCdiJob::Options options = JobOptions(strict);
  auto serial_or = DailyCdiJob(options).Run(vms, day_);
  ASSERT_TRUE(serial_or.ok()) << serial_or.status().ToString();
  const DailyCdiResult& serial = *serial_or;
  EXPECT_EQ(serial.vms_skipped, want_skipped);
  EXPECT_EQ(serial.vms_failed, want_failed);
  EXPECT_EQ(serial.vms_evaluated, want_rows.size());
  EXPECT_EQ(serial.vm_error_samples.size(), 3u);
  // Rows are the evaluated VMs in input order.
  ASSERT_EQ(serial.per_vm.size(), want_rows.size());
  for (size_t i = 0; i < want_rows.size(); ++i) {
    ASSERT_EQ(serial.per_vm[i].vm_id, want_rows[i]) << "row " << i;
  }

  for (const size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    auto pooled = DailyCdiJob(options).Run(vms, day_);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    const std::string what = std::to_string(threads) + " threads";
    // No SortRows(): the rows must already be in the same (input) order.
    testutil::ShardEquivalenceHarness::ExpectIdentical(serial, *pooled, what);
    EXPECT_EQ(serial.first_vm_error.ToString(),
              pooled->first_vm_error.ToString())
        << what;
    EXPECT_EQ(serial.vm_error_samples, pooled->vm_error_samples) << what;
  }
}

TEST_F(PipelineTest, TablesExportExpectedSchemas) {
  InjectWindowed("slow_io", "vm-1", T("2024-04-25 08:00"), 10);
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(TwoVms(), day_);
  ASSERT_TRUE(result.ok());
  const dataflow::Table vm_table = result->ToVmTable();
  EXPECT_EQ(vm_table.num_rows(), 2u);
  EXPECT_TRUE(vm_table.schema().IndexOf("cdi_p").ok());
  EXPECT_TRUE(vm_table.schema().IndexOf("region").ok());
  const dataflow::Table ev_table = result->ToEventTable();
  EXPECT_EQ(ev_table.num_rows(), 1u);
  EXPECT_EQ(ev_table.At(0, "event")->AsString().value(), "slow_io");
}

TEST_F(PipelineTest, EmptyWindowFails) {
  DailyCdiJob job(JobOptions(*weights_));
  const Interval empty(day_.start, day_.start);
  EXPECT_TRUE(job.Run(TwoVms(), empty).status().IsInvalidArgument());
}

TEST_F(PipelineTest, DataQualityCountersAccountForEveryVm) {
  InjectWindowed("slow_io", "vm-1", T("2024-04-25 08:00"), 10);
  auto vms = TwoVms();
  // A VM whose service ended before this day: skipped, not evaluated.
  vms.push_back(VmServiceInfo{
      .vm_id = "vm-gone",
      .dims = {{"region", "r0"}},
      .service_period = Interval(T("2024-04-20 00:00"),
                                 T("2024-04-21 00:00"))});
  DailyCdiJob job(JobOptions(*weights_));
  auto result = job.Run(vms, day_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vms_evaluated, 2u);
  EXPECT_EQ(result->vms_skipped, 1u);
  EXPECT_EQ(result->vms_failed, 0u);
  EXPECT_TRUE(result->first_vm_error.ok());
  // Skipped VMs produce no per-VM row and contribute no service time.
  EXPECT_EQ(result->per_vm.size(), 2u);
  EXPECT_EQ(result->fleet_service_time, Duration::Days(2));
  // Resolver counters survive into the result.
  EXPECT_EQ(result->resolve_stats.resolved, 10u);
}

// A weight model that only knows one expert level: any warning-or-worse
// event passes edge sanitation (its ordinal is a legal Severity) but fails
// weighting mid-computation — exactly the per-VM failure Run must survive.
class PipelineFailureSamplingTest : public PipelineTest {
 protected:
  PipelineFailureSamplingTest() {
    auto ticket = TicketRankModel::FromCounts({{"slow_io", 100}}, 4);
    strict_.emplace(EventWeightModel::Build(std::move(ticket).value(),
                                            {.expert_levels = 1})
                        .value());
  }

  /// Adds a VM whose day contains 5 slow_io events at `level`.
  void AddFailingVm(std::vector<VmServiceInfo>* vms, const std::string& id,
                    Severity level) {
    InjectWindowed("slow_io", id.c_str(), T("2024-04-25 08:00"), 5, level);
    vms->push_back(
        VmServiceInfo{.vm_id = id, .dims = {}, .service_period = day_});
  }

  std::optional<EventWeightModel> strict_;
};

TEST_F(PipelineFailureSamplingTest, OneExemplarPerDistinctReason) {
  std::vector<VmServiceInfo> vms;
  for (int i = 0; i < 20; ++i) {
    // Ordinals 2, 3, 4 produce three distinct failure messages.
    AddFailingVm(&vms, "vm-" + std::to_string(i),
                 static_cast<Severity>(2 + (i % 3)));
  }
  vms.push_back(
      VmServiceInfo{.vm_id = "vm-ok", .dims = {}, .service_period = day_});

  DailyCdiJob job(JobOptions(*strict_));
  auto result = job.Run(vms, day_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vms_failed, 20u);
  EXPECT_EQ(result->vms_evaluated, 1u);
  EXPECT_FALSE(result->first_vm_error.ok());
  // Three distinct reasons -> three exemplars, well under the cap.
  ASSERT_EQ(result->vm_error_samples.size(), 3u);
  ASSERT_LE(result->vm_error_samples.size(),
            DailyCdiResult::kMaxVmErrorSamples);
  std::set<std::string> unique(result->vm_error_samples.begin(),
                               result->vm_error_samples.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const std::string& sample : result->vm_error_samples) {
    EXPECT_NE(sample.find("severity ordinal"), std::string::npos) << sample;
    EXPECT_EQ(sample.rfind("vm vm-", 0), 0u) << sample;
  }
  // Only the healthy VM produced a row.
  EXPECT_EQ(result->per_vm.size(), 1u);
}

TEST_F(PipelineFailureSamplingTest, IdenticalReasonsCollapseToOneSample) {
  std::vector<VmServiceInfo> vms;
  for (int i = 0; i < 30; ++i) {
    AddFailingVm(&vms, "vm-" + std::to_string(i), Severity::kFatal);
  }
  DailyCdiJob job(JobOptions(*strict_));
  auto result = job.Run(vms, day_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vms_failed, 30u);
  // A fleet-wide incident is thousands of identical failures; the operator
  // gets one exemplar, not a flood.
  ASSERT_EQ(result->vm_error_samples.size(), 1u);
  EXPECT_NE(result->vm_error_samples[0].find("severity ordinal 4 outside"),
            std::string::npos);
  // Failed VMs still contribute their resolver counters: 30 VMs x 5 events.
  EXPECT_EQ(result->resolve_stats.resolved, 150u);
}

}  // namespace
}  // namespace cdibot
