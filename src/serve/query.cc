#include "serve/query.h"

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
  // JSON has no literal for NaN/Inf; render non-finite values as null
  // rather than corrupting the document.
  if (!std::isfinite(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendCdi(const VmCdi& cdi, std::string* out) {
  *out += "{\"cdi_u\":" + JsonNumber(cdi.unavailability);
  *out += ",\"cdi_p\":" + JsonNumber(cdi.performance);
  *out += ",\"cdi_c\":" + JsonNumber(cdi.control_plane);
  *out += ",\"service_minutes\":" + JsonNumber(cdi.service_time.minutes());
  *out += '}';
}

void AppendQuality(const DataQuality& q, std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"quarantined\":%" PRIu64 ",\"missing\":%" PRIu64
                ",\"shed\":%" PRIu64 ",\"degraded\":%s}",
                q.events_quarantined, q.events_missing, q.events_shed,
                q.degraded ? "true" : "false");
  *out += buf;
}

}  // namespace

std::string_view ConsistencyToString(Consistency c) {
  switch (c) {
    case Consistency::kFresh:
      return "fresh";
    case Consistency::kCached:
      return "cached";
    case Consistency::kStaleOk:
      return "stale-ok";
  }
  return "unknown";
}

std::string CanonicalQueryKey(const CdiQuery& query) {
  // Field markers keep distinct queries from colliding after
  // concatenation; values are length-prefixed for the same reason (a
  // filter value containing '|' must not masquerade as a field break).
  std::string key;
  key += "f:";
  for (const auto& [dim, value] : query.filter) {
    key += std::to_string(dim.size()) + '.' + dim;
    key += std::to_string(value.size()) + '.' + value;
  }
  key += "|g:";
  for (const std::string& dim : query.group_by) {
    key += std::to_string(dim.size()) + '.' + dim;
  }
  key += query.include_detail ? "|d1" : "|d0";
  return key;
}

std::string RenderResponseJson(const CdiQuery& query,
                               const CdiQueryResponse& response) {
  std::string out = "{\"query\":{";
  out += "\"consistency\":\"";
  out += ConsistencyToString(query.consistency);
  out += "\",\"filter\":{";
  bool first = true;
  for (const auto& [dim, value] : query.filter) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(dim, &out);
    out += "\":\"";
    AppendJsonEscaped(value, &out);
    out += '"';
  }
  out += "},\"group_by\":[";
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    AppendJsonEscaped(query.group_by[i], &out);
    out += '"';
  }
  out += "]},\"fleet\":";
  AppendCdi(response.fleet, &out);
  out += ",\"fleet_baseline\":{\"downtime_percentage\":" +
         JsonNumber(response.fleet_baseline.downtime_percentage);
  out += ",\"annual_interruption_rate\":" +
         JsonNumber(response.fleet_baseline.annual_interruption_rate);
  out += ",\"interruptions\":" +
         std::to_string(response.fleet_baseline.interruption_count);
  out += "},\"groups\":[";
  for (size_t i = 0; i < response.drilldown.groups.size(); ++i) {
    const DrilldownGroup& g = response.drilldown.groups[i];
    if (i > 0) out += ',';
    out += "{\"key\":\"";
    AppendJsonEscaped(g.key, &out);
    out += "\",\"values\":[";
    for (size_t v = 0; v < g.values.size(); ++v) {
      if (v > 0) out += ',';
      out += '"';
      AppendJsonEscaped(g.values[v], &out);
      out += '"';
    }
    out += "],\"vm_count\":" + std::to_string(g.vm_count);
    out += ",\"cdi\":";
    AppendCdi(g.cdi, &out);
    out += ",\"quality\":";
    AppendQuality(g.quality, &out);
    out += '}';
  }
  out += "],\"quality\":";
  AppendQuality(response.quality, &out);
  if (response.detail != nullptr) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  ",\"detail\":{\"per_vm_rows\":%zu,\"per_event_rows\":%zu,"
                  "\"vms_evaluated\":%zu,\"vms_failed\":%zu}",
                  response.detail->per_vm.size(),
                  response.detail->per_event.size(),
                  response.detail->vms_evaluated, response.detail->vms_failed);
    out += buf;
  }
  char buf[220];
  std::snprintf(buf, sizeof(buf),
                ",\"vms_deferred\":%zu,\"as_of_watermark_ms\":%" PRId64
                ",\"staleness_ms\":%" PRId64
                ",\"served_from_cache\":%s,\"served_from_cube\":%s}",
                response.vms_deferred, response.as_of_watermark.millis(),
                response.staleness.millis(),
                response.served_from_cache ? "true" : "false",
                response.served_from_cube ? "true" : "false");
  out += buf;
  return out;
}

}  // namespace cdibot::serve
