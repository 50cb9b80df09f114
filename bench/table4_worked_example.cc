// Regenerates Table IV ("Example of CDI Calculation") from the library:
// three VMs with packet_loss / vcpu_high / slow_io events, per-VM CDI via
// Algorithm 1 and the fleet row via Eq. 4. Values must match the paper
// exactly (this is the deterministic worked example).
#include <cstdio>
#include <cmath>

#include "cdi/aggregate.h"
#include "cdi/indicator.h"

using namespace cdibot;

namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

WeightedEventView Ev(const char* name, const char* start, const char* end,
                     double w) {
  return WeightedEventView{.period = Interval(T(start), T(end)),
                           .weight = w,
                           .name_id = GlobalInterner().Intern(name),
                           .category = StabilityCategory::kPerformance};
}

struct Row {
  const char* vm;
  double service_minutes;
  std::vector<WeightedEventView> events;
  Interval service;
  double paper_cdi;
};

}  // namespace

int main() {
  std::vector<Row> rows = {
      {"1", 60,
       {Ev("packet_loss", "2024-01-01 10:08", "2024-01-01 10:10", 0.3),
        Ev("packet_loss", "2024-01-01 10:10", "2024-01-01 10:12", 0.3)},
       Interval(T("2024-01-01 10:00"), T("2024-01-01 11:00")), 0.020},
      {"2", 1440,
       {Ev("vcpu_high", "2024-01-01 13:25", "2024-01-01 13:30", 0.6)},
       Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")), 0.002},
      {"3", 1000,
       {Ev("slow_io", "2024-01-01 08:08", "2024-01-01 08:10", 0.5),
        Ev("slow_io", "2024-01-01 08:10", "2024-01-01 08:12", 0.5),
        Ev("vcpu_high", "2024-01-01 08:10", "2024-01-01 08:15", 0.6)},
       Interval(T("2024-01-01 08:00"),
                T("2024-01-01 08:00") + Duration::Minutes(1000)),
       0.004},
  };

  std::printf("TABLE IV: Example of CDI Calculation (measured vs paper)\n");
  std::printf("%-4s %-13s %-28s %-8s %-10s %-8s\n", "VM", "Service Time",
              "Events", "Weights", "measured", "paper");
  CdiAccumulator all;
  bool exact = true;
  for (const Row& row : rows) {
    auto q = ComputeCdi(row.events, row.service);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    all.Add(Duration::Minutes(static_cast<int64_t>(row.service_minutes)),
            q.value());
    std::string names, ws;
    for (const WeightedEventView& ev : row.events) {
      if (!names.empty()) names += ",";
      names += GlobalInterner().NameOf(ev.name_id);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.1f", ev.weight);
      if (!ws.empty()) ws += ",";
      ws += buf;
    }
    std::printf("%-4s %8.0fmin  %-28s %-8s %10.4f %8.3f\n", row.vm,
                row.service_minutes, names.c_str(), ws.c_str(), q.value(),
                row.paper_cdi);
    if (std::abs(q.value() - row.paper_cdi) > 5e-4) exact = false;
  }
  std::printf("%-4s %8.0fmin  %-28s %-8s %10.4f %8.3f\n", "All", 2500.0, "-",
              "-", all.Value(), 0.003);
  if (std::abs(all.Value() - 0.003) > 5e-4) exact = false;

  std::printf("\n%s\n", exact
                            ? "REPRODUCED: all rows match the paper (within "
                              "its printed precision)."
                            : "MISMATCH: see rows above.");
  return exact ? 0 : 1;
}
