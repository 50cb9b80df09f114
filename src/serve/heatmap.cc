#include "serve/heatmap.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace cdibot::serve {
namespace {

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendPlane(const HeatmapGrid& grid, const std::vector<double>& plane,
                 std::string* out) {
  *out += '[';
  for (size_t r = 0; r < grid.rows(); ++r) {
    if (r > 0) *out += ',';
    *out += '[';
    for (size_t b = 0; b < grid.buckets; ++b) {
      if (b > 0) *out += ',';
      *out += JsonNumber(plane[grid.CellIndex(r, b)]);
    }
    *out += ']';
  }
  *out += ']';
}

}  // namespace

StatusOr<HeatmapGrid> BuildHeatmap(
    const EventSpan& events, const EventCatalog& catalog,
    const std::map<std::string, Placement>& dims_by_target,
    const HeatmapSpec& spec) {
  if (spec.window.length().millis() <= 0) {
    return Status::InvalidArgument("heatmap window must be non-empty");
  }
  if (spec.buckets == 0 || spec.buckets > 4096) {
    return Status::InvalidArgument("heatmap buckets must be in 1..4096");
  }
  if (spec.group_dim.empty()) {
    return Status::InvalidArgument("heatmap group_dim must be set");
  }

  HeatmapGrid grid;
  grid.buckets = spec.buckets;
  grid.bucket_start_ms = spec.window.start.millis();
  grid.bucket_width_ms = std::max<int64_t>(
      1, spec.window.length().millis() / static_cast<int64_t>(spec.buckets));

  // Pass 1: row keys. Interned target ids make the group lookup a small
  // per-target cache instead of a per-event map walk over the SoA rows.
  std::map<uint32_t, std::string> group_by_target_id;
  auto group_of = [&](const EventRef& ev) -> const std::string& {
    auto it = group_by_target_id.find(ev.target_id());
    if (it == group_by_target_id.end()) {
      std::string group;
      auto dims_it = dims_by_target.find(std::string(ev.target()));
      if (dims_it == dims_by_target.end()) {
        ++grid.targets_unmapped;
      } else {
        auto dim_it = dims_it->second.find(spec.group_dim);
        if (dim_it != dims_it->second.end()) group = dim_it->second;
      }
      it = group_by_target_id.emplace(ev.target_id(), std::move(group)).first;
    }
    return it->second;
  };

  std::map<std::string, size_t> row_index;
  events.ForEach([&](const EventRef& ev) {
    row_index.emplace(group_of(ev), 0);
  });
  grid.row_keys.reserve(row_index.size());
  for (auto& [key, idx] : row_index) {
    idx = grid.row_keys.size();
    grid.row_keys.push_back(key);
  }
  const size_t cells = grid.row_keys.size() * grid.buckets;
  grid.unavailability.assign(cells, 0.0);
  grid.performance.assign(cells, 0.0);
  grid.control_plane.assign(cells, 0.0);

  // Pass 2: spread each event's effective period over the buckets it
  // overlaps, straight from the SoA columns (time_ms / duration_ms /
  // expire_ms; no RawEvent materialization).
  const int64_t window_start = spec.window.start.millis();
  const int64_t window_end = spec.window.end.millis();
  events.ForEach([&](const EventRef& ev) {
    const auto handle = catalog.FindHandleById(ev.name_id());
    if (!handle.has_value()) {
      ++grid.events_unknown;
      return;
    }
    const EventSpec& es = *handle->spec;
    // Effective period: the logged duration when the event carries one,
    // else the spec's resolution default — a damage *proxy* rendered
    // without running the full period resolver.
    int64_t duration_ms = ev.LoggedDurationMsOrNeg();
    if (duration_ms < 0) {
      switch (es.period_kind) {
        case PeriodKind::kLoggedDuration:
          duration_ms = es.default_duration.millis();
          break;
        case PeriodKind::kWindowed:
          duration_ms = es.window.millis();
          break;
        case PeriodKind::kStateful:
          duration_ms = es.window.millis();
          break;
      }
    }
    // kLoggedDuration events stamp the END of the impact; others the start.
    int64_t start_ms = ev.time_ms();
    if (es.period_kind == PeriodKind::kLoggedDuration) {
      start_ms -= duration_ms;
    }
    int64_t end_ms = start_ms + std::max<int64_t>(duration_ms, 0);
    start_ms = std::max(start_ms, window_start);
    end_ms = std::min(end_ms, window_end);
    if (end_ms <= start_ms) return;

    const size_t row = row_index.find(group_of(ev))->second;
    const int64_t first_bucket =
        (start_ms - window_start) / grid.bucket_width_ms;
    const int64_t last_bucket =
        (end_ms - 1 - window_start) / grid.bucket_width_ms;
    std::vector<double>* plane = nullptr;
    switch (es.category) {
      case StabilityCategory::kUnavailability:
        plane = &grid.unavailability;
        break;
      case StabilityCategory::kPerformance:
        plane = &grid.performance;
        break;
      case StabilityCategory::kControlPlane:
        plane = &grid.control_plane;
        break;
    }
    if (plane == nullptr) return;
    for (int64_t b = first_bucket;
         b <= last_bucket && b < static_cast<int64_t>(grid.buckets); ++b) {
      const int64_t bucket_start = window_start + b * grid.bucket_width_ms;
      const int64_t bucket_end = bucket_start + grid.bucket_width_ms;
      const int64_t overlap =
          std::min(end_ms, bucket_end) - std::max(start_ms, bucket_start);
      if (overlap > 0) {
        (*plane)[grid.CellIndex(row, static_cast<size_t>(b))] +=
            static_cast<double>(overlap) / 60000.0;  // minutes
      }
    }
  });
  return grid;
}

std::string RenderHeatmapJson(const HeatmapSpec& spec,
                              const HeatmapGrid& grid) {
  std::string out = "{\"spec\":{\"group_dim\":\"";
  AppendJsonEscaped(spec.group_dim, &out);
  char buf[220];
  std::snprintf(buf, sizeof(buf),
                "\",\"window_start_ms\":%" PRId64 ",\"window_end_ms\":%" PRId64
                ",\"buckets\":%zu},",
                spec.window.start.millis(), spec.window.end.millis(),
                grid.buckets);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"bucket_start_ms\":%" PRId64 ",\"bucket_width_ms\":%" PRId64
                ",",
                grid.bucket_start_ms, grid.bucket_width_ms);
  out += buf;
  out += "\"rows\":[";
  for (size_t r = 0; r < grid.rows(); ++r) {
    if (r > 0) out += ',';
    out += '"';
    AppendJsonEscaped(grid.row_keys[r], &out);
    out += '"';
  }
  out += "],\"unavailability\":";
  AppendPlane(grid, grid.unavailability, &out);
  out += ",\"performance\":";
  AppendPlane(grid, grid.performance, &out);
  out += ",\"control_plane\":";
  AppendPlane(grid, grid.control_plane, &out);
  std::snprintf(buf, sizeof(buf),
                ",\"targets_unmapped\":%zu,\"events_unknown\":%zu}",
                grid.targets_unmapped, grid.events_unknown);
  out += buf;
  return out;
}

}  // namespace cdibot::serve
