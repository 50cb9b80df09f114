#ifndef CDIBOT_SERVE_QUERY_H_
#define CDIBOT_SERVE_QUERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cdi/drilldown.h"
#include "cdi/pipeline.h"
#include "common/time.h"

namespace cdibot::serve {

/// How stale an answer the caller will accept. The serving layer treats
/// freshness as a first-class response dimension (SPEC-RG's position):
/// every response says what watermark it reflects and how far behind the
/// source that is, so a cached answer is *bounded-stale*, never silently
/// old.
enum class Consistency : int {
  /// Bypass the result cache and re-pull the source before answering.
  kFresh = 0,
  /// Serve from cache only while the cached entry still reflects the
  /// source's current watermark; any watermark advance invalidates.
  kCached = 1,
  /// Serve from cache while the entry's watermark lags the source by at
  /// most CdiQuery::max_staleness.
  kStaleOk = 2,
};

std::string_view ConsistencyToString(Consistency c);

/// The one query-shaped read request every CDI consumer sends, whether the
/// backing engine is batch, streaming single-node, or a sharded fleet.
struct CdiQuery {
  /// Placement-dimension pre-filter (exact match on every pair), applied
  /// before grouping. Empty = whole fleet.
  std::map<std::string, std::string> filter;
  /// Drill-down dimensions, most-significant first (region, az, cluster,
  /// arch, ...). Empty = fleet-level answer only.
  std::vector<std::string> group_by;
  /// End-to-end time budget: CdiQueryService::Query rejects an already
  /// expired deadline before serving, and otherwise propagates it into the
  /// source pull (the engine's deadline-bounded Preview). Default =
  /// infinite.
  Deadline deadline;
  Consistency consistency = Consistency::kCached;
  /// Acceptable watermark lag for kStaleOk.
  Duration max_staleness = Duration::Minutes(5);
  /// Attach the full batch-compatible DailyCdiResult to the response
  /// (CdiQueryResponse::detail) — the re-route path for legacy
  /// Snapshot()/Preview() callers that consume whole result tables.
  bool include_detail = false;
};

/// Canonical cache key: a stable serialization of everything that changes
/// the *answer* — filter (sorted by construction), group-by (order kept:
/// region/az and az/region are different cubes), detail flag.
/// Deliberately excludes deadline and consistency: those say how hard to
/// try and how stale is acceptable, not what is being asked, so a kFresh
/// pull warms the cache for the kCached callers asking the same question.
std::string CanonicalQueryKey(const CdiQuery& query);

/// The one response shape. Carries the answer plus the three trust
/// annotations the paper's degraded-not-wrong stance requires: DataQuality
/// (what the input lost), the staleness watermark (what point in the
/// stream the answer reflects), and the deferred count (how partial a
/// deadline-bounded pull was).
struct CdiQueryResponse {
  /// Fleet-level Eq.-4 aggregate.
  VmCdi fleet;
  /// Downtime Percentage / AIR / MTBF / MTTR over the same inputs.
  UnavailabilityStats fleet_baseline;
  /// Drill-down rows for `group_by` (empty for fleet-only queries),
  /// bit-identical to RunDrilldown over the source's per-VM rows.
  DrilldownResult drilldown;
  /// Full batch-compatible result, present when the query asked for it.
  /// Shared: cache hits hand out the same immutable payload.
  std::shared_ptr<const DailyCdiResult> detail;
  /// Merged input-integrity counters over the evaluated VMs.
  DataQuality quality;
  /// VMs whose recompute a deadline deferred (non-zero marks the answer a
  /// best-effort preview — degraded, not wrong).
  size_t vms_deferred = 0;
  /// The source watermark this answer reflects.
  TimePoint as_of_watermark;
  /// Source watermark minus as_of_watermark at serve time (zero for a
  /// freshly pulled answer).
  Duration staleness;
  /// True when the ARC result cache supplied the answer.
  bool served_from_cache = false;
  /// True when the materialized cube answered without a source pull.
  bool served_from_cube = false;
};

/// Renders a response as a strict-JSON document (the query endpoint
/// payload; validated by tests/strict_json.h). Per-VM rows of `detail` are
/// summarized as counts, not dumped — endpoint payloads stay bounded.
std::string RenderResponseJson(const CdiQuery& query,
                               const CdiQueryResponse& response);

}  // namespace cdibot::serve

#endif  // CDIBOT_SERVE_QUERY_H_
