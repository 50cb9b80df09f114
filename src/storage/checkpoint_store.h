#ifndef CDIBOT_STORAGE_CHECKPOINT_STORE_H_
#define CDIBOT_STORAGE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "common/statusor.h"
#include "flow/circuit_breaker.h"
#include "storage/stream_checkpoint.h"

namespace cdibot {

/// Options for a StreamCheckpointStore.
struct CheckpointStoreOptions {
  /// Completed checkpoint slots retained; older ones are deleted after a
  /// successful save. Two generations means one whole checkpoint can be
  /// lost to corruption and recovery still succeeds from the previous one.
  int keep = 2;
  /// Backoff schedule for transient (retryable) I/O failures.
  RetryOptions retry;
  uint64_t retry_seed = 0;
  /// Circuit breaker over the store's physical I/O. Disabled by default
  /// (failure_threshold == 0, pass-through); when configured, a persistently
  /// failing disk trips the breaker open after `failure_threshold`
  /// consecutive failed ATTEMPTS, so subsequent saves fail fast in
  /// microseconds instead of burning the full retry schedule against a sink
  /// that cannot absorb writes — RetryPolicy amplifies load under failure,
  /// the breaker caps that amplification. Half-open probes (jittered
  /// cooldown) re-admit traffic once the disk recovers. State transitions
  /// are visible in statusz as "flow.breaker.checkpoint_store.*".
  flow::CircuitBreakerOptions breaker = {};
  /// Test hook: called before every physical I/O operation with a short
  /// operation name ("save", "load"). A non-OK return is treated as the
  /// outcome of that I/O attempt, letting chaos tests drive the retry path
  /// deterministically (wire it to ChaosInjector::MaybeFailIo).
  std::function<Status(std::string_view op)> io_fault;
};

/// A rotating multi-generation checkpoint store, the recovery substrate of
/// the supervisor loop. Layout under `root`:
///
///   root/slot-000000   oldest retained checkpoint file
///   root/slot-000001   newest checkpoint file
///
/// Every Save writes a brand-new slot file (SaveStreamCheckpoint, atomic
/// temp+rename) and only then prunes old slots, so the previous good
/// generation exists untouched for the entire duration of a save — a crash
/// mid-save can never damage it (write-ahead generation rotation, the same
/// discipline as LevelDB's MANIFEST swap). LoadLastGood walks generations
/// newest-first, skipping any slot whose frame, CRC, or semantic validation
/// fails, and returns the first intact one.
class StreamCheckpointStore {
 public:
  /// Opens (creating if needed) a store rooted at `root` and scans existing
  /// slots so new saves continue the sequence.
  static StatusOr<StreamCheckpointStore> Open(
      const std::string& root, CheckpointStoreOptions options = {});

  /// Saves `ckpt` into the next slot, retrying transient I/O failures per
  /// the retry options, then prunes slots beyond `keep`.
  Status Save(const StreamCheckpoint& ckpt) {
    return Save(ckpt, Deadline::Infinite());
  }

  /// Deadline-bounded Save: retry backoff sleeps are clipped to the
  /// remaining budget and no new attempt starts past the deadline, so a
  /// checkpoint against a sick disk costs at most the budget, not the full
  /// retry schedule. When the breaker is open the call fails fast with
  /// FailedPrecondition before any I/O.
  Status Save(const StreamCheckpoint& ckpt, const Deadline& deadline);

  /// Loads the newest checkpoint that passes integrity and semantic
  /// validation, skipping corrupted generations. NotFound when the store
  /// has no slots at all; when slots exist but every one fails, returns the
  /// oldest slot's error (typically DataLoss) so "checkpoints destroyed"
  /// is distinguishable from "never checkpointed". `slots_skipped`, when
  /// non-null, receives the number of corrupted generations passed over.
  StatusOr<StreamCheckpoint> LoadLastGood(int* slots_skipped = nullptr);

  /// Slot names currently present, oldest first.
  std::vector<std::string> ListSlots() const;

  const std::string& root() const { return root_; }
  uint64_t next_seq() const { return next_seq_; }
  /// Attempts consumed by the most recent retried operation.
  int last_attempts() const { return retry_.last_attempts(); }
  /// The breaker guarding the save path (pass-through unless configured).
  const flow::CircuitBreaker& breaker() const { return *breaker_; }

 private:
  StreamCheckpointStore(std::string root, CheckpointStoreOptions options);

  std::string SlotPath(uint64_t seq) const;

  std::string root_;
  CheckpointStoreOptions options_;
  RetryPolicy retry_;
  /// Heap-allocated (owns a mutex) so the store stays movable.
  std::shared_ptr<flow::CircuitBreaker> breaker_;
  uint64_t next_seq_ = 0;
};

}  // namespace cdibot

#endif  // CDIBOT_STORAGE_CHECKPOINT_STORE_H_
