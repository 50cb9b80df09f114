#ifndef CDIBOT_SERVE_SERVICE_H_
#define CDIBOT_SERVE_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "serve/cube.h"
#include "serve/query.h"
#include "serve/result_cache.h"
#include "shard/coordinator.h"
#include "stream/streaming_engine.h"

namespace cdibot::serve {

/// The engine-agnostic read interface the serving layer sits on. One
/// implementation per topology: a single-node StreamingCdiEngine, a
/// sharded fleet behind a ShardCoordinator, or a fixed batch result in
/// tests. The facade never talks to an engine directly — every read goes
/// through this seam, which is what lets cached, cube and fresh answers
/// share one code path.
class CdiReadSource {
 public:
  virtual ~CdiReadSource() = default;

  virtual std::string_view name() const = 0;

  /// The source's current event-time watermark, cheap enough to call on
  /// every query (it is the cache-invalidation clock). Implementations
  /// must not ping remote shards here — the coordinator uses its gossiped
  /// min watermark, not the blocking Watermark() RPC.
  virtual TimePoint watermark() const = 0;

  /// Pulls the full batch-compatible result. An expiring deadline bounds
  /// the recompute (engine Preview semantics: deferred VMs stay dirty and
  /// the result is marked partial — degraded, not wrong).
  virtual StatusOr<DailyCdiResult> Pull(const Deadline& deadline) = 0;

  /// The engine's fleet-only read. The service no longer calls it (a
  /// fleet-only Query returns the same bits); kept only because the frozen
  /// benchmark driver (cdi_bench/) overrides it: delete with the next
  /// benchmark change, together with the two overrides below.
  virtual StatusOr<VmCdi> QuickFleetCdi() = 0;
};

/// Read source over a single-node streaming engine.
class EngineSource : public CdiReadSource {
 public:
  /// `engine` is borrowed and must outlive the source.
  explicit EngineSource(StreamingCdiEngine* engine) : engine_(engine) {}

  std::string_view name() const override { return "streaming-engine"; }
  TimePoint watermark() const override { return engine_->watermark(); }
  StatusOr<DailyCdiResult> Pull(const Deadline& deadline) override {
    return deadline.IsInfinite() ? engine_->Snapshot()
                                 : engine_->Preview(deadline);
  }
  StatusOr<VmCdi> QuickFleetCdi() override { return engine_->FleetCdi(); }

 private:
  StreamingCdiEngine* engine_;
};

/// Read source over a sharded fleet. Degraded-not-wrong passes through:
/// a gather with dead shards yields a result whose DataQuality/degraded
/// markers the response surfaces verbatim.
class CoordinatorSource : public CdiReadSource {
 public:
  /// `coordinator` is borrowed and must outlive the source.
  explicit CoordinatorSource(shard::ShardCoordinator* coordinator)
      : coordinator_(coordinator) {}

  std::string_view name() const override { return "shard-fleet"; }
  /// The fleet-wide min watermark from coordinator bookkeeping — cheap, no
  /// shard ping (ShardCoordinator::Watermark() would block on every
  /// worker, which a per-query clock must never do).
  TimePoint watermark() const override {
    return coordinator_->stats().min_watermark;
  }
  StatusOr<DailyCdiResult> Pull(const Deadline& deadline) override {
    return deadline.IsInfinite() ? coordinator_->Snapshot()
                                 : coordinator_->Preview(deadline);
  }
  StatusOr<VmCdi> QuickFleetCdi() override {
    return coordinator_->FleetCdi();
  }

 private:
  shard::ShardCoordinator* coordinator_;
};

struct CdiQueryServiceOptions {
  /// ARC result-cache capacity in entries; 0 disables the result cache
  /// (the differential suite's cache-off arm).
  size_t cache_entries = 256;
  /// false additionally disables cube materialization: every query
  /// recomputes RunDrilldown from a fresh source pull (the fully
  /// cache-off reference path).
  bool materialize_cubes = true;
  /// Obs metric prefix for the cache/cube/query metrics.
  std::string metric_prefix = "serve";
};

/// Per-service query counters (also mirrored to <prefix>.query.*).
struct ServeStats {
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t cube_answers = 0;  ///< answered from the cube without a pull
  uint64_t source_pulls = 0;
  uint64_t deadline_rejections = 0;
};

/// CdiQueryService is the unified read facade: every consumer — dashboard,
/// watchdog, sim loop, bench driver — sends a CdiQuery and gets a
/// CdiQueryResponse, regardless of which engine topology is behind it.
///
/// Layering per query (consistency permitting): ARC result cache →
/// materialized drill-down cube (refreshed only on watermark advance) →
/// source pull. All three produce bit-identical answers; the differential
/// suite pins cache-on == cache-off across watermark advances, shard
/// rebalance, and chaos surge.
///
/// Thread safety: Query is safe from multiple threads (one service mutex
/// around cube refresh + source pulls; the cache has its own lock).
class CdiQueryService {
 public:
  /// `source` is borrowed and must outlive the service.
  CdiQueryService(CdiReadSource* source, CdiQueryServiceOptions options = {});

  StatusOr<CdiQueryResponse> Query(const CdiQuery& query);

  CacheStats cache_stats() const { return cache_.stats(); }
  CubeStats cube_stats() const;
  ServeStats stats() const;
  const CdiReadSource& source() const { return *source_; }

 private:
  /// Validates the query shape. Status::OK for answerable queries.
  static Status Validate(const CdiQuery& query);
  /// Computes a response from the cube/source (cache already missed).
  StatusOr<CdiQueryResponse> ComputeLocked(const CdiQuery& query,
                                           TimePoint source_watermark);

  CdiReadSource* source_;
  CdiQueryServiceOptions options_;
  ArcResultCache cache_;

  mutable std::mutex mu_;
  /// Holds the last pulled result; responses share it as their detail.
  DrilldownCube cube_;
  ServeStats stats_;

  obs::Counter* query_counter_;
  obs::Counter* pull_counter_;
  obs::Counter* deadline_counter_;
  obs::Histogram* latency_histogram_;
};

}  // namespace cdibot::serve

#endif  // CDIBOT_SERVE_SERVICE_H_
