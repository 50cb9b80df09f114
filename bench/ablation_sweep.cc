// Ablation of the Algorithm-1 implementation: the literal pseudo-code
// materializes a per-minute weight array W[T_s..T_e] (O(minutes + events *
// span)), while the production implementation uses an event-boundary sweep
// (O(n log n), independent of the service-period length). Both compute the
// same value (see indicator_test.cc); this bench quantifies the cost gap
// that justifies the sweep.
#include <benchmark/benchmark.h>

#include "cdi/indicator.h"
#include "common/rng.h"

namespace cdibot {
namespace {

const TimePoint kDayStart = TimePoint::FromMillis(1767225600000);  // 2026-01-01

std::vector<WeightedEventView> MinuteAlignedEvents(size_t n,
                                                   int64_t span_minutes,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedEventView> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t len = rng.UniformInt(1, 45);
    const int64_t start = rng.UniformInt(0, span_minutes - len - 1);
    events.push_back(WeightedEventView{
        .period = Interval(kDayStart + Duration::Minutes(start),
                           kDayStart + Duration::Minutes(start + len)),
        .weight = rng.Uniform(0.1, 1.0),
        .name_id = StringInterner::kInvalidId,
        .category = StabilityCategory::kPerformance});
  }
  return events;
}

void BM_Sweep(benchmark::State& state) {
  const int64_t span = state.range(1);
  const Interval period(kDayStart, kDayStart + Duration::Minutes(span));
  const auto events =
      MinuteAlignedEvents(static_cast<size_t>(state.range(0)), span, 3);
  for (auto _ : state) {
    auto q = ComputeCdi(events, period);
    benchmark::DoNotOptimize(q);
  }
}

void BM_NaiveArray(benchmark::State& state) {
  const int64_t span = state.range(1);
  const Interval period(kDayStart, kDayStart + Duration::Minutes(span));
  const auto events =
      MinuteAlignedEvents(static_cast<size_t>(state.range(0)), span, 3);
  for (auto _ : state) {
    auto q = ComputeCdiNaive(events, period);
    benchmark::DoNotOptimize(q);
  }
}

// (events, service-period minutes): one day, one month, one year.
BENCHMARK(BM_Sweep)->Args({64, 1440})->Args({64, 43200})->Args({64, 525600})
    ->Args({4096, 1440})->Args({4096, 525600});
BENCHMARK(BM_NaiveArray)->Args({64, 1440})->Args({64, 43200})
    ->Args({64, 525600})->Args({4096, 1440})->Args({4096, 525600});

}  // namespace
}  // namespace cdibot

BENCHMARK_MAIN();
