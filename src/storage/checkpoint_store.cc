#include "storage/checkpoint_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdibot {
namespace {

namespace fs = std::filesystem;

constexpr char kSlotPrefix[] = "slot-";

/// Parses "slot-000042" -> 42; nullopt for anything else.
std::optional<uint64_t> SlotSeq(const std::string& name) {
  if (name.rfind(kSlotPrefix, 0) != 0) return std::nullopt;
  const std::string digits = name.substr(sizeof(kSlotPrefix) - 1);
  if (digits.empty()) return std::nullopt;
  char* end = nullptr;
  const unsigned long long seq = std::strtoull(digits.c_str(), &end, 10);
  if (end != digits.c_str() + digits.size()) return std::nullopt;
  return static_cast<uint64_t>(seq);
}

}  // namespace

StreamCheckpointStore::StreamCheckpointStore(std::string root,
                                             CheckpointStoreOptions options)
    : root_(std::move(root)),
      options_(std::move(options)),
      retry_(options_.retry, options_.retry_seed),
      breaker_(std::make_shared<flow::CircuitBreaker>("checkpoint_store",
                                                      options_.breaker)) {
  if (options_.keep < 1) options_.keep = 1;
}

StatusOr<StreamCheckpointStore> StreamCheckpointStore::Open(
    const std::string& root, CheckpointStoreOptions options) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Status::Unavailable("cannot create checkpoint root " + root +
                               ": " + ec.message());
  }
  StreamCheckpointStore store(root, std::move(options));
  uint64_t max_seq = 0;
  bool any = false;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const auto seq = SlotSeq(entry.path().filename().string());
    if (!seq.has_value()) continue;
    any = true;
    max_seq = std::max(max_seq, *seq);
  }
  store.next_seq_ = any ? max_seq + 1 : 0;
  return store;
}

std::string StreamCheckpointStore::SlotPath(uint64_t seq) const {
  return root_ + "/" +
         StrFormat("%s%06llu", kSlotPrefix,
                   static_cast<unsigned long long>(seq));
}

std::vector<std::string> StreamCheckpointStore::ListSlots() const {
  std::vector<std::pair<uint64_t, std::string>> slots;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const std::string name = entry.path().filename().string();
    const auto seq = SlotSeq(name);
    if (seq.has_value()) slots.emplace_back(*seq, name);
  }
  std::sort(slots.begin(), slots.end());
  std::vector<std::string> names;
  names.reserve(slots.size());
  for (auto& [seq, name] : slots) names.push_back(std::move(name));
  return names;
}

Status StreamCheckpointStore::Save(const StreamCheckpoint& ckpt,
                                   const Deadline& deadline) {
  TRACE_SPAN("storage.checkpoint_save");
  static obs::Histogram* save_ns =
      obs::MetricsRegistry::Global().GetHistogram("storage.checkpoint_save_ns");
  obs::ScopedTimer timer(save_ns);
  const uint64_t seq = next_seq_;
  const std::string slot = SlotPath(seq);
  const Status saved = retry_.Run(
      [&]() -> Status {
        // The breaker gates every ATTEMPT and hears every outcome, so a
        // retry loop against a dead disk trips it mid-schedule and the
        // remaining attempts fail fast without touching the disk. An
        // already-open breaker rejects the first attempt before any I/O;
        // FailedPrecondition is non-retryable, so the loop (and callers
        // wrapping Save in their own retries) stop immediately.
        auto record = [this](Status st) {
          if (st.ok()) {
            breaker_->RecordSuccess();
          } else {
            breaker_->RecordFailure();
          }
          return st;
        };
        if (!breaker_->Allow()) {
          return Status::FailedPrecondition(
              "checkpoint store circuit breaker open (disk failing); save "
              "rejected without I/O");
        }
        if (options_.io_fault) {
          const Status injected = options_.io_fault("save");
          if (!injected.ok()) return record(injected);
        }
        return record(SaveStreamCheckpoint(ckpt, slot));
      },
      deadline);
  static obs::Counter* saves =
      obs::MetricsRegistry::Global().GetCounter("storage.checkpoint_saves");
  static obs::Counter* save_failures = obs::MetricsRegistry::Global().GetCounter(
      "storage.checkpoint_save_failures");
  if (!saved.ok()) {
    save_failures->Increment();
    // WriteFileAtomic removes its temp file on a write failure; an
    // injected fault fails before any I/O. Either way no slot was created.
    return saved;
  }
  saves->Increment();
  next_seq_ = seq + 1;

  // Prune old generations only after the new one is fully durable.
  std::vector<std::string> slots = ListSlots();
  const size_t keep = static_cast<size_t>(std::max(1, options_.keep));
  if (slots.size() > keep) {
    static obs::Counter* pruned = obs::MetricsRegistry::Global().GetCounter(
        "storage.checkpoint_slots_pruned");
    for (size_t i = 0; i + keep < slots.size(); ++i) {
      std::error_code ec;
      fs::remove_all(root_ + "/" + slots[i], ec);
      pruned->Increment();
    }
  }
  return Status::OK();
}

StatusOr<StreamCheckpoint> StreamCheckpointStore::LoadLastGood(
    int* slots_skipped) {
  TRACE_SPAN("storage.checkpoint_load");
  static obs::Counter* loads =
      obs::MetricsRegistry::Global().GetCounter("storage.checkpoint_loads");
  static obs::Counter* skipped = obs::MetricsRegistry::Global().GetCounter(
      "storage.checkpoint_slots_skipped");
  loads->Increment();
  if (slots_skipped != nullptr) *slots_skipped = 0;
  std::vector<std::string> slots = ListSlots();
  Status last_error = Status::NotFound("no checkpoint slots in " + root_);
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    const std::string slot = root_ + "/" + *it;
    StatusOr<StreamCheckpoint> loaded = Status::NotFound("unattempted");
    const Status attempt = retry_.Run([&]() -> Status {
      if (options_.io_fault) {
        CDIBOT_RETURN_IF_ERROR(options_.io_fault("load"));
      }
      loaded = LoadStreamCheckpoint(slot);
      // Corruption (DataLoss, InvalidArgument, ...) is permanent for this
      // slot; only transient statuses propagate as retryable.
      return loaded.ok() ? Status::OK() : loaded.status();
    });
    if (attempt.ok()) return std::move(loaded).value();
    last_error = attempt;
    skipped->Increment();
    if (slots_skipped != nullptr) ++*slots_skipped;
  }
  return last_error;
}

}  // namespace cdibot
