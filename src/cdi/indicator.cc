#include "cdi/indicator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

namespace cdibot {
namespace {

Status ValidateInputs(const std::vector<WeightedEventView>& events,
                      const Interval& service_period) {
  if (service_period.empty()) {
    return Status::InvalidArgument("service period must be non-empty");
  }
  for (const WeightedEventView& ev : events) {
    if (ev.weight < 0.0 || !std::isfinite(ev.weight)) {
      return Status::InvalidArgument("event weight must be finite and >= 0");
    }
  }
  return Status::OK();
}

// Computes integral over the service period of the per-instant maximum
// weight, in milliseconds-weight units.
StatusOr<double> MaxOverlapIntegralMillis(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period) {
  CDIBOT_RETURN_IF_ERROR(ValidateInputs(events, service_period));

  // Clamp and drop empty.
  struct Seg {
    int64_t start;
    int64_t end;
    double weight;
  };
  std::vector<Seg> segs;
  segs.reserve(events.size());
  for (const WeightedEventView& ev : events) {
    const Interval clamped = ev.period.ClampTo(service_period);
    if (clamped.empty() || ev.weight == 0.0) continue;
    segs.push_back(
        {clamped.start.millis(), clamped.end.millis(), ev.weight});
  }
  if (segs.empty()) return 0.0;

  std::sort(segs.begin(), segs.end(),
            [](const Seg& a, const Seg& b) { return a.start < b.start; });

  // Elementary-interval sweep: the boundary points split time into pieces on
  // which the active segment set is constant. A max-heap of (weight, end)
  // with lazy deletion yields the per-piece maximum in O(n log n) total.
  std::vector<int64_t> boundaries;
  boundaries.reserve(segs.size() * 2);
  for (const Seg& s : segs) {
    boundaries.push_back(s.start);
    boundaries.push_back(s.end);
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  std::priority_queue<std::pair<double, int64_t>> heap;  // (weight, end)
  double integral = 0.0;
  size_t next = 0;
  for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const int64_t lo = boundaries[b];
    const int64_t hi = boundaries[b + 1];
    while (next < segs.size() && segs[next].start <= lo) {
      heap.emplace(segs[next].weight, segs[next].end);
      ++next;
    }
    while (!heap.empty() && heap.top().second <= lo) heap.pop();
    if (!heap.empty()) {
      integral += heap.top().first * static_cast<double>(hi - lo);
    }
  }
  return integral;
}

}  // namespace

StatusOr<double> ComputeCdi(const std::vector<WeightedEventView>& events,
                            const Interval& service_period) {
  CDIBOT_ASSIGN_OR_RETURN(const double integral,
                          MaxOverlapIntegralMillis(events, service_period));
  return integral /
         static_cast<double>(service_period.length().millis());
}

StatusOr<double> ComputeDamageMinutes(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period) {
  CDIBOT_ASSIGN_OR_RETURN(const double integral,
                          MaxOverlapIntegralMillis(events, service_period));
  return integral / 60000.0;
}

StatusOr<double> ComputeCdiNaive(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period) {
  CDIBOT_RETURN_IF_ERROR(ValidateInputs(events, service_period));
  constexpr int64_t kSlotMs = 60000;  // one-minute slots, as in the paper
  const int64_t t0 = service_period.start.millis();
  const int64_t t1 = service_period.end.millis();
  const auto slots = static_cast<size_t>((t1 - t0 + kSlotMs - 1) / kSlotMs);
  if (slots > (1u << 26)) {
    return Status::ResourceExhausted(
        "naive CDI array too large; use ComputeCdi");
  }
  // Line 1: W[T_s..T_e] <- 0.
  std::vector<double> w(slots, 0.0);
  // Lines 2-5: per-event max-paint.
  for (const WeightedEventView& ev : events) {
    const Interval clamped = ev.period.ClampTo(service_period);
    if (clamped.empty()) continue;
    const auto first =
        static_cast<size_t>((clamped.start.millis() - t0) / kSlotMs);
    // End-exclusive: a slot is covered if the event overlaps any part of it.
    const auto last = static_cast<size_t>(
        (clamped.end.millis() - t0 + kSlotMs - 1) / kSlotMs);
    for (size_t i = first; i < std::min(last, slots); ++i) {
      w[i] = std::max(w[i], ev.weight);
    }
  }
  // Line 6: Q = (1 / (T_e - T_s)) * sum W[t] * dt.
  double sum = 0.0;
  for (size_t i = 0; i < slots; ++i) {
    const int64_t slot_start = t0 + static_cast<int64_t>(i) * kSlotMs;
    const int64_t slot_end = std::min(t1, slot_start + kSlotMs);
    sum += w[i] * static_cast<double>(slot_end - slot_start);
  }
  return sum / static_cast<double>(t1 - t0);
}

StatusOr<double> ComputeCdiSumOverlap(
    const std::vector<WeightedEventView>& events,
    const Interval& service_period) {
  CDIBOT_RETURN_IF_ERROR(ValidateInputs(events, service_period));
  // Boundary sweep summing active weights, capped at 1.
  struct Edge {
    int64_t t;
    double delta;
  };
  std::vector<Edge> edges;
  edges.reserve(events.size() * 2);
  for (const WeightedEventView& ev : events) {
    const Interval clamped = ev.period.ClampTo(service_period);
    if (clamped.empty() || ev.weight == 0.0) continue;
    edges.push_back({clamped.start.millis(), ev.weight});
    edges.push_back({clamped.end.millis(), -ev.weight});
  }
  if (edges.empty()) return 0.0;
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  double integral = 0.0;
  double level = 0.0;
  int64_t prev = edges.front().t;
  for (const Edge& e : edges) {
    if (e.t > prev) {
      integral += std::min(1.0, level) * static_cast<double>(e.t - prev);
      prev = e.t;
    }
    level += e.delta;
  }
  return integral / static_cast<double>(service_period.length().millis());
}

}  // namespace cdibot
