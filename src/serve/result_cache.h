#ifndef CDIBOT_SERVE_RESULT_CACHE_H_
#define CDIBOT_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/time.h"
#include "obs/metrics.h"
#include "serve/query.h"

namespace cdibot::serve {

/// Counters for one cache instance (monotonic; also mirrored into the obs
/// registry under <prefix>.cache.*).
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  /// Hits rejected because the entry's watermark violated the query's
  /// consistency mode — counted separately from plain misses because they
  /// are the invalidation signal (watermark advanced past the entry).
  uint64_t stale_rejections = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Ghost-list hits that adapted the ARC target split.
  uint64_t ghost_hits = 0;
  size_t resident = 0;   ///< |T1| + |T2|
  size_t target_t1 = 0;  ///< ARC's adaptive p
};

/// An ARC (Adaptive Replacement Cache) over canonicalized query keys.
///
/// Why ARC over plain LRU: the serving workload is a mix of a small hot
/// set of dashboard queries (hit over and over — frequency) and sweeps of
/// ad-hoc drill-downs (each key seen once — recency). LRU lets one sweep
/// flush the dashboard set; ARC splits residency into a recency list (T1,
/// seen once) and a frequency list (T2, seen twice+), with ghost lists
/// (B1/B2, keys only) steering the adaptive target `p` toward whichever
/// list is producing would-have-been hits. Scan resistance falls out: a
/// sweep churns T1 while the hot set sits untouched in T2.
///
/// Entries carry the source watermark they were computed at; the service
/// layer decides at lookup time whether that watermark still satisfies the
/// query's consistency mode (watermark advance = invalidation), so an
/// entry is never served beyond its staleness bound.
///
/// Thread safety: all methods lock a single internal mutex; values are
/// immutable shared_ptrs, so a returned payload stays valid after
/// eviction.
class ArcResultCache {
 public:
  struct Entry {
    std::shared_ptr<const CdiQueryResponse> response;
    /// Source watermark the response was computed from.
    TimePoint as_of;
  };

  /// `capacity` is the max resident entries (c in the ARC paper); 0
  /// disables the cache entirely (every Get misses, Put is a no-op) — the
  /// cache-off arm of the differential suite. `metric_prefix` names the
  /// obs metrics ("<prefix>.cache.hits", ...).
  explicit ArcResultCache(size_t capacity,
                          const std::string& metric_prefix = "serve");

  /// Looks up `key`. A hit promotes the entry (T1→T2 or T2 MRU). A miss
  /// leaves ghost bookkeeping to the following Put. `stale_ok` is a
  /// caller-supplied predicate result: when false, a resident entry is
  /// treated as a consistency violation — counted as stale_rejection, the
  /// entry is dropped (its key demoted to ghost), and nullopt returned.
  template <typename StalePredicate>
  std::optional<Entry> Get(const std::string& key, StalePredicate&& fresh) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    lookup_counter_->Increment();
    auto it = index_.find(key);
    if (it == index_.end() || it->second.where == Where::kB1 ||
        it->second.where == Where::kB2) {
      ++stats_.misses;
      miss_counter_->Increment();
      return std::nullopt;
    }
    Node& node = it->second;
    if (!fresh(node.entry)) {
      // Watermark invalidation: drop the payload but remember the key in
      // the ghost list its residency list feeds — the key's re-admission
      // after recompute should still adapt p as a ghost hit would.
      ++stats_.stale_rejections;
      stale_counter_->Increment();
      DemoteToGhostLocked(it);
      SetGaugesLocked();  // the demotion changed |T1|+|T2|
      ++stats_.misses;
      miss_counter_->Increment();
      return std::nullopt;
    }
    // ARC hit path: any resident hit moves to T2 MRU.
    MoveLocked(it, Where::kT2);
    ++stats_.hits;
    hit_counter_->Increment();
    return node.entry;
  }

  /// Inserts (or replaces) the value for `key`, running the ARC REQUEST
  /// logic for a miss: ghost hits adapt p, REPLACE evicts one resident
  /// entry to its ghost list, and the key lands in T1 (brand new) or T2
  /// (returning ghost).
  void Put(const std::string& key, Entry entry);

  CacheStats stats() const;
  size_t capacity() const { return capacity_; }

 private:
  enum class Where : int { kT1, kT2, kB1, kB2 };

  struct Node {
    Where where = Where::kT1;
    /// Position in the list for `where` (list stores keys, MRU at front).
    std::list<std::string>::iterator pos;
    Entry entry;  ///< empty for ghost nodes
  };

  using Index = std::unordered_map<std::string, Node>;

  std::list<std::string>& ListFor(Where w);
  /// Moves a resident node to the MRU end of `to` (T1 or T2).
  void MoveLocked(Index::iterator it, Where to);
  /// Drops a resident node's payload, moving its key to the matching
  /// ghost list (T1→B1, T2→B2).
  void DemoteToGhostLocked(Index::iterator it);
  /// ARC REPLACE: evicts the LRU of T1 or T2 (per p and the hint) to its
  /// ghost list.
  void ReplaceLocked(bool ghost_hit_in_b2);
  /// Trims a ghost list to its ARC bound, erasing forgotten keys.
  void TrimGhostLocked(Where w, size_t max);
  void SetGaugesLocked();

  const size_t capacity_;

  mutable std::mutex mu_;
  std::list<std::string> t1_, t2_, b1_, b2_;  // MRU at front
  Index index_;
  size_t p_ = 0;  ///< ARC adaptive target for |T1|
  CacheStats stats_;

  obs::Counter* lookup_counter_;
  obs::Counter* hit_counter_;
  obs::Counter* miss_counter_;
  obs::Counter* stale_counter_;
  obs::Counter* eviction_counter_;
  obs::Counter* ghost_hit_counter_;
  obs::Gauge* resident_gauge_;
  obs::Gauge* target_gauge_;
};

}  // namespace cdibot::serve

#endif  // CDIBOT_SERVE_RESULT_CACHE_H_
