#ifndef CDIBOT_COMMON_INTERNER_H_
#define CDIBOT_COMMON_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cdibot {

/// StringInterner maps strings (VM ids, event names, dimension values) to
/// dense `uint32_t` ids. It is the identity layer of the zero-copy event
/// data plane: once a string is interned, every hot-path structure carries
/// the 4-byte id and the string itself lives here, in one place, for the
/// lifetime of the process.
///
/// Concurrency model (read-mostly):
///  * `NameOf(id)` is always lock-free: ids are dense, so the id -> string
///    table is a fixed array of chunk pointers published with
///    release/acquire ordering. No snapshot, no retry loop.
///  * `Lookup(str)` is lock-free on the warm path: it consults an immutable
///    snapshot map republished by writers (rebuilt on a capacity-doubling
///    schedule, so total rebuild work stays O(n) amortized) through one
///    acquire load of a raw pointer. Published snapshots are kept until the
///    interner dies, so a reader never holds a reference count. Strings
///    interned since the last republish fall back to a mutex-guarded check
///    of the authoritative map — still a hit, just not lock-free until the
///    next republish.
///  * `Intern(str)` takes the mutex only for strings not yet present.
///
/// Interned strings are never freed; ids are never reused. See DESIGN.md
/// ("data-plane memory model") for the lifetime rules views rely on.
class StringInterner {
 public:
  /// Returned by Lookup for strings that were never interned. Never a
  /// valid id.
  static constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

  StringInterner() = default;
  ~StringInterner();
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  /// Returns the id of `s`, interning it first if needed. Lock-free when
  /// `s` is already in the published snapshot.
  uint32_t Intern(std::string_view s);

  /// The id of `s`, or kInvalidId when it was never interned. Lock-free
  /// for strings present in the published snapshot.
  uint32_t Lookup(std::string_view s) const;

  /// The string for a previously returned id. Always lock-free. The view
  /// is valid for the interner's lifetime. Returns "" for kInvalidId or
  /// ids never handed out.
  std::string_view NameOf(uint32_t id) const;

  /// Number of distinct strings interned so far.
  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Id -> string storage: fixed-size table of lazily allocated chunks so a
  // reader can index without synchronizing with growth. 4096 chunks of
  // 1024 strings bound the interner at ~4.2M distinct strings — far above
  // any fleet this process models, and the table itself is only 32 KiB.
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 1024
  static constexpr size_t kMaxChunks = 4096;
  struct Chunk {
    std::string slots[kChunkSize];
  };

  // String -> id snapshot for lock-free Lookup. Keys view into chunk
  // storage (stable addresses), so the snapshot never owns string bytes.
  struct LookupSnapshot {
    std::unordered_map<std::string_view, uint32_t> index;
  };

  mutable std::mutex mu_;
  // Authoritative map, guarded by mu_. Keys view into chunk storage.
  std::unordered_map<std::string_view, uint32_t> index_;
  // Interned-string count; ids [0, size_) are valid. Release-published
  // after the chunk slot is written.
  std::atomic<size_t> size_{0};
  // Republish threshold for the lookup snapshot (doubling schedule).
  size_t next_publish_ = 1;
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  // Every snapshot ever published, guarded by mu_. A reader may still be
  // inside an older one, so none is freed before the interner; the
  // doubling schedule bounds their total size at about twice the newest.
  // Not atomic<shared_ptr>: libstdc++ 12's load() unlocks with relaxed
  // order, a data race against the next store that TSan reports.
  std::vector<std::unique_ptr<const LookupSnapshot>> snapshots_;
  std::atomic<const LookupSnapshot*> snapshot_{nullptr};
};

/// The process-wide interner the event data plane uses. EventRows interns
/// names/targets here on append; EventLog::Query and the weight model look
/// ids up against it.
StringInterner& GlobalInterner();

}  // namespace cdibot

#endif  // CDIBOT_COMMON_INTERNER_H_
