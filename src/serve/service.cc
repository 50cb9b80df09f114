#include "serve/service.h"

#include <chrono>
#include <utility>

namespace cdibot::serve {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The one freshness rule, shared by the result cache and the cube's
/// pull-or-answer decision: does an answer computed at watermark `as_of`
/// still satisfy `query` now that the source watermark is `wm`?
bool FreshEnough(TimePoint as_of, const CdiQuery& query, TimePoint wm) {
  switch (query.consistency) {
    case Consistency::kFresh:
      return false;
    case Consistency::kCached:
      return as_of == wm;
    case Consistency::kStaleOk:
      return as_of <= wm
                 ? (wm - as_of) <= query.max_staleness
                 : true;  // answer ahead of a regressed clock: serve it
  }
  return false;
}

}  // namespace

CdiQueryService::CdiQueryService(CdiReadSource* source,
                                 CdiQueryServiceOptions options)
    : source_(source),
      options_(std::move(options)),
      cache_(options_.cache_entries, options_.metric_prefix),
      cube_(options_.metric_prefix) {
  auto& registry = obs::MetricsRegistry::Global();
  query_counter_ = registry.GetCounter(options_.metric_prefix + ".queries");
  pull_counter_ =
      registry.GetCounter(options_.metric_prefix + ".source_pulls");
  deadline_counter_ =
      registry.GetCounter(options_.metric_prefix + ".deadline_rejections");
  latency_histogram_ =
      registry.GetHistogram(options_.metric_prefix + ".query_latency_ns");
}

Status CdiQueryService::Validate(const CdiQuery& query) {
  if (!query.group_by.empty()) {
    CDIBOT_RETURN_IF_ERROR(ValidateDrilldownDimensions(query.group_by));
  }
  for (const auto& [dim, value] : query.filter) {
    (void)value;
    if (dim.empty()) {
      return Status::InvalidArgument("filter dimension name is empty");
    }
  }
  return Status::OK();
}

StatusOr<CdiQueryResponse> CdiQueryService::Query(const CdiQuery& query) {
  const uint64_t start_ns = NowNs();
  Status valid = Validate(query);
  if (!valid.ok()) return valid;
  query_counter_->Increment();
  if (query.deadline.Expired()) {
    deadline_counter_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    ++stats_.deadline_rejections;
    return Status::ResourceExhausted("query deadline expired before serving");
  }

  const TimePoint wm = source_->watermark();
  const std::string key = CanonicalQueryKey(query);
  if (query.consistency != Consistency::kFresh) {
    auto entry = cache_.Get(key, [&](const ArcResultCache::Entry& e) {
      return FreshEnough(e.as_of, query, wm);
    });
    if (entry.has_value()) {
      CdiQueryResponse response = *entry->response;
      response.served_from_cache = true;
      response.staleness =
          entry->as_of <= wm ? wm - entry->as_of : Duration::Zero();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.queries;
        ++stats_.cache_hits;
      }
      latency_histogram_->Record(NowNs() - start_ns);
      return response;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  auto response = ComputeLocked(query, wm);
  if (response.ok()) {
    cache_.Put(key, ArcResultCache::Entry{
                        std::make_shared<CdiQueryResponse>(*response),
                        response->as_of_watermark});
  }
  latency_histogram_->Record(NowNs() - start_ns);
  return response;
}

StatusOr<CdiQueryResponse> CdiQueryService::ComputeLocked(
    const CdiQuery& query, TimePoint wm) {
  const bool need_pull = !(options_.materialize_cubes && cube_.loaded() &&
                           FreshEnough(cube_.as_of(), query, wm));

  if (need_pull) {
    auto pulled = source_->Pull(query.deadline);
    if (!pulled.ok()) return pulled.status();
    ++stats_.source_pulls;
    pull_counter_->Increment();
    cube_.Refresh(std::make_shared<const DailyCdiResult>(std::move(*pulled)),
                  wm);
  } else {
    ++stats_.cube_answers;
  }

  const DailyCdiResult& detail = *cube_.detail();
  CdiQueryResponse response;
  response.as_of_watermark = cube_.as_of();
  response.staleness =
      cube_.as_of() <= wm ? wm - cube_.as_of() : Duration::Zero();
  response.served_from_cube = !need_pull;
  response.quality = detail.quality;
  response.vms_deferred = detail.vms_deferred;
  response.fleet_baseline = detail.fleet_baseline;
  response.fleet = detail.fleet;
  if (!query.group_by.empty()) {
    DrilldownQuery dq{.dimensions = query.group_by, .filter = query.filter};
    if (options_.materialize_cubes) {
      auto drilled = cube_.Answer(dq);
      if (!drilled.ok()) return drilled.status();
      response.drilldown = std::move(*drilled);
    } else {
      // Reference path (cubes off): recompute from the rows directly. The
      // differential suite pins this bit-identical to the cube path.
      auto drilled = RunDrilldown(detail.per_vm, dq);
      if (!drilled.ok()) return drilled.status();
      response.drilldown = std::move(*drilled);
    }
  }
  if (query.include_detail) response.detail = cube_.detail();
  return response;
}

CubeStats CdiQueryService::cube_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cube_.stats();
}

ServeStats CdiQueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cdibot::serve
