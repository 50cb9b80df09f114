#include "common/interner.h"

namespace cdibot {

StringInterner::~StringInterner() {
  for (auto& slot : chunks_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

uint32_t StringInterner::Intern(std::string_view s) {
  const uint32_t hit = Lookup(s);
  if (hit != kInvalidId) return hit;

  std::lock_guard<std::mutex> lock(mu_);
  // Double-check under the lock: another thread may have interned `s`
  // between the snapshot miss and here.
  if (auto it = index_.find(s); it != index_.end()) return it->second;

  const size_t id = size_.load(std::memory_order_relaxed);
  const size_t chunk_idx = id >> kChunkShift;
  if (chunk_idx >= kMaxChunks) {
    // Interner full (~4.2M strings). Ids must stay dense and valid, so the
    // only safe degradation is to stop deduplicating -- map everything
    // past the cap onto the last slot. In practice this is unreachable.
    return static_cast<uint32_t>(kMaxChunks * kChunkSize - 1);
  }
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_idx].store(chunk, std::memory_order_release);
  }
  std::string& slot = chunk->slots[id & (kChunkSize - 1)];
  slot.assign(s.data(), s.size());
  index_.emplace(std::string_view(slot), static_cast<uint32_t>(id));
  // Publish the id only after the slot holds the string, so a NameOf on
  // the returned id (possibly from another thread) sees complete bytes.
  size_.store(id + 1, std::memory_order_release);

  // Republish the lock-free lookup snapshot on a doubling schedule: each
  // rebuild copies the whole map, so doubling keeps total rebuild work
  // linear in the number of distinct strings.
  if (id + 1 >= next_publish_) {
    auto snap = std::make_unique<LookupSnapshot>();
    snap->index = index_;
    snapshot_.store(snap.get(), std::memory_order_release);
    snapshots_.push_back(std::move(snap));
    next_publish_ = (id + 1) * 2;
  }
  return static_cast<uint32_t>(id);
}

uint32_t StringInterner::Lookup(std::string_view s) const {
  if (const LookupSnapshot* snap =
          snapshot_.load(std::memory_order_acquire)) {
    if (auto it = snap->index.find(s); it != snap->index.end()) {
      return it->second;
    }
  }
  // Not in the snapshot: either truly absent or interned since the last
  // republish. The authoritative map decides.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  return it == index_.end() ? kInvalidId : it->second;
}

std::string_view StringInterner::NameOf(uint32_t id) const {
  if (id >= size_.load(std::memory_order_acquire)) return {};
  const Chunk* chunk = chunks_[id >> kChunkShift].load(std::memory_order_acquire);
  if (chunk == nullptr) return {};
  return chunk->slots[id & (kChunkSize - 1)];
}

StringInterner& GlobalInterner() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}

}  // namespace cdibot
