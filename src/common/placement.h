#ifndef CDIBOT_COMMON_PLACEMENT_H_
#define CDIBOT_COMMON_PLACEMENT_H_

#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>

namespace cdibot {

/// A VM's placement dimensions (region, az, cluster, nc, type, arch,
/// model, ...): an immutable string map behind a shared pointer.
///
/// A VM's dims are built once — from the topology, at registration, or by
/// wire decode — and every result row derived from that VM (its per-VM
/// row, each per-event row, every snapshot, gather and served copy of
/// them) shares the same map. Copying a Placement bumps a reference count
/// instead of allocating one node per dimension; the map is never mutated
/// after construction, so copies may be read from any thread.
///
/// The API is the const subset of std::map. Equality compares by value
/// (separately built placements with equal maps are equal), with a
/// pointer-equality fast path for shared ones. The empty placement holds
/// no storage at all; a default-constructed Placement equals one built
/// from an empty map. To change a placement, assign a new map.
class Placement {
 public:
  using Map = std::map<std::string, std::string>;
  using key_type = Map::key_type;
  using mapped_type = Map::mapped_type;
  using value_type = Map::value_type;
  using size_type = Map::size_type;
  using const_iterator = Map::const_iterator;
  using iterator = const_iterator;

  Placement() = default;
  Placement(Map dims)  // NOLINT(google-explicit-constructor): a drop-in for Map
      : dims_(dims.empty()
                  ? nullptr
                  : std::make_shared<const Map>(std::move(dims))) {}
  Placement(std::initializer_list<value_type> dims) : Placement(Map(dims)) {}

  const_iterator begin() const { return map().begin(); }
  const_iterator end() const { return map().end(); }
  const_iterator find(const key_type& key) const { return map().find(key); }
  /// Throws std::out_of_range for a missing key, like std::map::at.
  const mapped_type& at(const key_type& key) const { return map().at(key); }
  size_type count(const key_type& key) const { return map().count(key); }
  size_type size() const { return dims_ == nullptr ? 0 : dims_->size(); }
  bool empty() const { return dims_ == nullptr; }
  /// The underlying map (a process-wide empty map for the empty placement).
  const Map& map() const { return dims_ == nullptr ? EmptyMap() : *dims_; }

  friend bool operator==(const Placement& a, const Placement& b) {
    return a.dims_ == b.dims_ || a.map() == b.map();
  }
  friend bool operator!=(const Placement& a, const Placement& b) {
    return !(a == b);
  }

 private:
  static const Map& EmptyMap() {
    static const Map* const empty = new Map();
    return *empty;
  }

  /// Null for the empty placement; otherwise a non-empty map.
  std::shared_ptr<const Map> dims_;
};

}  // namespace cdibot

#endif  // CDIBOT_COMMON_PLACEMENT_H_
