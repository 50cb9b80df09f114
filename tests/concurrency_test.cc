// Thread-compatibility checks: the read paths documented as safe for
// concurrent use really are — concurrent daily jobs over one event log,
// concurrent rule matching, and concurrent CDI computations sharing one
// weight model.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "rules/rule_engine.h"
#include "shard_equivalence_harness.h"
#include "sim/scenario.h"
#include "storage/config_store.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

TEST(ConcurrencyTest, ParallelDailyJobsOverOneLogAgree) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(77);
  FaultInjector injector(&catalog, &rng);
  const Fleet fleet = Fleet::Build(FleetSpec{}).value();
  EventLog log;
  const TimePoint day_start = T("2024-02-01 00:00");
  const Interval day(day_start, day_start + Duration::Days(1));
  ASSERT_TRUE(injector
                  .InjectDay(fleet, day_start, BaselineRates().Scaled(8.0),
                             &log)
                  .ok());
  auto ticket = TicketRankModel::FromCounts({{"slow_io", 10}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();

  ThreadPool pool(4);
  DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                       .catalog = &catalog,
                                       .weights = &weights,
                                       .pool = &pool,
                                       .min_parallel_rows = 2});
  const auto vms = fleet.ServiceInfos(day).value();
  auto reference = job.Run(vms, day);
  ASSERT_TRUE(reference.ok());

  // Four threads run the same pooled job at once; every result must equal
  // the reference bit for bit, rows in input order included.
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 5;
  std::vector<std::vector<StatusOr<DailyCdiResult>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th]() {
      for (int i = 0; i < kRunsPerThread; ++i) {
        results[th].push_back(job.Run(vms, day));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int th = 0; th < kThreads; ++th) {
    for (int i = 0; i < kRunsPerThread; ++i) {
      const StatusOr<DailyCdiResult>& got = results[th][i];
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string what =
          "thread " + std::to_string(th) + " run " + std::to_string(i);
      testutil::ShardEquivalenceHarness::ExpectIdentical(*reference, *got,
                                                         what);
      EXPECT_EQ(reference->first_vm_error.ToString(),
                got->first_vm_error.ToString())
          << what;
      EXPECT_EQ(reference->vm_error_samples, got->vm_error_samples) << what;
    }
  }
}

TEST(ConcurrencyTest, ParallelRuleMatching) {
  auto engine = RuleEngine::BuiltIn().value();
  std::vector<RawEvent> events;
  RawEvent a;
  a.name = "slow_io";
  a.time = T("2024-01-01 12:00");
  a.target = "vm-1";
  a.expire_interval = Duration::Hours(1);
  events.push_back(a);
  a.name = "nic_flapping";
  events.push_back(a);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < 8; ++th) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 500; ++i) {
        const auto matches =
            engine.MatchEvents(events, "vm-1", T("2024-01-01 12:01"));
        if (matches.size() != 1 ||
            matches[0].rule_name != "nic_error_cause_slow_io") {
          ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ConfigStoreConcurrentReadWrite) {
  ConfigStore config;
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    for (int i = 0; i < 2000; ++i) {
      config.SetInt("counter", i);
      config.SetDouble("ratio", i * 0.5);
    }
    stop = true;
  });
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int th = 0; th < 4; ++th) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        auto v = config.GetInt("counter");
        if (v.ok() && (v.value() < 0 || v.value() >= 2000)) ++errors;
        (void)config.KeysWithPrefix("co");
      }
    });
  }
  writer.join();
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(config.GetInt("counter").value(), 1999);
}

}  // namespace
}  // namespace cdibot
