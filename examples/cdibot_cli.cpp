// cdibot_cli — a small operational driver over the library:
//
//   cdibot_cli simulate --days N --seed S --out DIR
//       simulate N days of a synthetic fleet, run the daily CDI job, print
//       each day's fleet CDI and its Eq.-4 drill-down by AZ, and write
//       vm_cdi.csv / event_cdi.csv per day into DIR (created if missing)
//   cdibot_cli weights --tickets name=count,name=count,...
//       print the Eq. 1-3 composite weight table for the given last-year
//       ticket counts
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "cdi/pipeline.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "dataflow/csv.h"
#include "sim/scenario.h"

using namespace cdibot;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cdibot_cli simulate [--days N] [--seed S] [--out DIR]\n"
               "  cdibot_cli weights --tickets name=count[,name=count...]\n");
  return 2;
}

int RunSimulate(int argc, char** argv) {
  int days = 3;
  uint64_t seed = 1;
  std::string out = ".";
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--days") && i + 1 < argc) {
      days = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (days < 1) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(seed);
  FaultInjector injector(&catalog, &rng);
  const Fleet fleet = Fleet::Build(FleetSpec{.seed = seed}).value();
  auto weights =
      EventWeightModel::Build(
          TicketRankModel::FromCounts({{"slow_io", 420},
                                       {"packet_loss", 160},
                                       {"vcpu_high", 230},
                                       {"api_error", 90}},
                                      4)
              .value(),
          {})
          .value();
  ThreadPool pool(8);
  const TimePoint start = TimePoint::Parse("2026-01-01 00:00").value();

  for (int d = 0; d < days; ++d) {
    const TimePoint day_start = start + Duration::Days(d);
    const Interval day(day_start, day_start + Duration::Days(1));
    EventLog log;
    auto injected =
        injector.InjectDay(fleet, day_start, BaselineRates().Scaled(8.0),
                           &log);
    if (!injected.ok()) {
      std::fprintf(stderr, "%s\n", injected.status().ToString().c_str());
      return 1;
    }
    DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                         .catalog = &catalog,
                                         .weights = &weights,
                                         .pool = &pool,
                                         .min_parallel_rows = 2});
    auto result = job.Run(fleet.ServiceInfos(day).value(), day);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const std::string date = day_start.ToDateString();
    const std::string vm_path = out + "/vm_cdi_" + date + ".csv";
    const std::string ev_path = out + "/event_cdi_" + date + ".csv";
    Status st = dataflow::WriteCsvFile(result->ToVmTable(), vm_path);
    if (st.ok()) st = dataflow::WriteCsvFile(result->ToEventTable(), ev_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu events -> CDI-U %.6f  CDI-P %.6f  CDI-C %.6f  "
                "(%s, %s)\n",
                date.c_str(), log.size(), result->fleet.unavailability,
                result->fleet.performance, result->fleet.control_plane,
                vm_path.c_str(), ev_path.c_str());
    auto by_az =
        RunDrilldown(result->per_vm, {.dimensions = {"az"}, .filter = {}});
    if (!by_az.ok()) {
      std::fprintf(stderr, "%s\n", by_az.status().ToString().c_str());
      return 1;
    }
    for (const DrilldownGroup& g : by_az->groups) {
      std::printf("  %-12s CDI-U %.6f  CDI-P %.6f  CDI-C %.6f  (%zu VMs)\n",
                  g.key.c_str(), g.cdi.unavailability, g.cdi.performance,
                  g.cdi.control_plane, g.vm_count);
    }
  }
  return 0;
}

int RunWeights(int argc, char** argv) {
  std::map<std::string, int64_t> counts;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--tickets") && i + 1 < argc) {
      for (const std::string& pair : StrSplit(argv[++i], ',')) {
        const auto kv = StrSplit(pair, '=');
        if (kv.size() != 2) return Usage();
        counts[kv[0]] = std::atoll(kv[1].c_str());
      }
    } else {
      return Usage();
    }
  }
  if (counts.empty()) return Usage();
  auto ticket_model = TicketRankModel::FromCounts(counts, 4);
  if (!ticket_model.ok()) {
    std::fprintf(stderr, "%s\n", ticket_model.status().ToString().c_str());
    return 1;
  }
  auto model = EventWeightModel::Build(std::move(ticket_model).value(), {});
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("%-24s %8s %8s %8s %8s\n", "event", "info", "warning",
              "critical", "fatal");
  for (const auto& [name, count] : counts) {
    std::printf("%-24s", name.c_str());
    for (Severity s : {Severity::kInfo, Severity::kWarning,
                       Severity::kCritical, Severity::kFatal}) {
      const auto w =
          model->WeightFor(name, s, StabilityCategory::kPerformance);
      std::printf(" %8.4f", w.ok() ? w.value() : -1.0);
    }
    std::printf("   (tickets: %lld)\n", static_cast<long long>(count));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "simulate") return RunSimulate(argc - 2, argv + 2);
  if (command == "weights") return RunWeights(argc - 2, argv + 2);
  return Usage();
}
