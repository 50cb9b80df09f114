// Ablation of Algorithm 1's overlap semantics: the paper takes the MAXIMUM
// weight where events coincide (Sec. IV-D); an additive alternative would
// double-count concurrent symptoms of one root cause. This bench sweeps the
// overlap density of a synthetic workload and prints both variants.
#include <cstdio>

#include "cdi/indicator.h"
#include "common/rng.h"

using namespace cdibot;

int main() {
  const TimePoint day_start = TimePoint::Parse("2026-01-01 00:00").value();
  const Interval day(day_start, day_start + Duration::Days(1));

  std::printf("Overlap-semantics ablation: max-overlap (paper) vs "
              "sum-overlap (capped at 1)\n\n");
  std::printf("%-18s %12s %12s %10s\n", "workload", "max-overlap",
              "sum-overlap", "inflation");

  // `spread` controls how much the events pile onto the same minutes:
  // spread = 1.0 scatters them across the day; spread = 0.02 crams them
  // into a 30-minute storm (one root cause, many symptoms).
  for (double spread : {1.0, 0.5, 0.2, 0.05, 0.02}) {
    Rng rng(7);
    std::vector<WeightedEventView> events;
    const auto window_ms =
        static_cast<int64_t>(spread * static_cast<double>(day.length().millis()));
    for (int i = 0; i < 120; ++i) {
      const auto len = Duration::Minutes(rng.UniformInt(2, 15));
      const int64_t latest = window_ms - len.millis() - 1;
      if (latest <= 0) continue;
      const TimePoint start =
          day_start + Duration::Millis(rng.UniformInt(0, latest));
      events.push_back(
          WeightedEventView{.period = Interval(start, start + len),
                            .weight = rng.Uniform(0.2, 0.8),
                            .name_id = StringInterner::kInvalidId,
                            .category = StabilityCategory::kPerformance});
    }
    const double q_max = ComputeCdi(events, day).value();
    const double q_sum = ComputeCdiSumOverlap(events, day).value();
    char label[32];
    std::snprintf(label, sizeof(label), "spread=%.2f", spread);
    std::printf("%-18s %12.6f %12.6f %9.2fx\n", label, q_max, q_sum,
                q_sum / q_max);
  }

  std::printf(
      "\nReading: when symptoms of one issue overlap (small spread), the "
      "additive\nvariant inflates damage well beyond the max-overlap value, "
      "even though the VM\ncannot be 'more than fully' degraded — the paper's "
      "max semantics keep the\nindicator interpretable as a weighted fraction "
      "of service time.\n");
  return 0;
}
