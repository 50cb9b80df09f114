#ifndef CDIBOT_EVENT_EVENT_VIEW_H_
#define CDIBOT_EVENT_EVENT_VIEW_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"

namespace cdibot {

class EventRef;

/// EventRows is the owning SoA container of the zero-copy data plane: one
/// raw event per row, fields split into parallel columns (times, levels,
/// expirations, durations, interned name/target ids). An EventLog partition
/// and a streaming VM's retention buffer are EventRows; EventRef/EventSpan
/// are non-owning views into them.
///
/// Attrs handling: the overwhelmingly common attrs shapes — empty, or
/// exactly {"duration_ms": "<canonical non-negative integer>"} — are fully
/// encoded in the duration column. Any other shape (extra keys,
/// unparseable or non-canonical duration strings) keeps its original map
/// verbatim in a side table keyed by row, so Materialize() reproduces the
/// appended RawEvent bit-for-bit and malformed-duration semantics
/// (quarantine reason kBadDurationAttr) survive the columnar encoding.
///
/// Names and targets always intern into GlobalInterner(), so ids compare
/// across containers and against the catalog's and weight model's ids.
class EventRows {
 public:
  /// Appends one event; interns its name and target. Returns the row index.
  uint32_t Append(const RawEvent& event);

  size_t size() const { return time_ms_.size(); }
  bool empty() const { return time_ms_.empty(); }
  void clear();

  // Column accessors (row must be < size()).
  int64_t time_ms(uint32_t row) const { return time_ms_[row]; }
  TimePoint time(uint32_t row) const {
    return TimePoint::FromMillis(time_ms_[row]);
  }
  uint32_t name_id(uint32_t row) const { return name_id_[row]; }
  uint32_t target_id(uint32_t row) const { return target_id_[row]; }
  int32_t level_ordinal(uint32_t row) const { return level_[row]; }
  Severity level(uint32_t row) const {
    return static_cast<Severity>(level_[row]);
  }
  int64_t expire_ms(uint32_t row) const { return expire_ms_[row]; }
  Duration expire_interval(uint32_t row) const {
    return Duration::Millis(expire_ms_[row]);
  }
  /// Canonical logged duration in ms; -1 when the row has none (or the
  /// row's attrs overflowed — consult has_extra_attrs()).
  int64_t duration_ms(uint32_t row) const { return duration_ms_[row]; }
  /// True when the row's attrs did not fit the canonical encoding and live
  /// in the side table.
  bool has_extra_attrs(uint32_t row) const {
    return !extra_attrs_.empty() && extra_attrs_.count(row) > 0;
  }
  /// The side-table attrs of an overflow row (empty map for canonical rows).
  const std::map<std::string, std::string>& extra_attrs(uint32_t row) const;

  std::string_view name(uint32_t row) const {
    return GlobalInterner().NameOf(name_id_[row]);
  }
  std::string_view target(uint32_t row) const {
    return GlobalInterner().NameOf(target_id_[row]);
  }

  /// Reconstructs the RawEvent exactly as appended (cold path: export,
  /// checkpointing, quarantine samples).
  RawEvent Materialize(uint32_t row) const;

 private:
  std::vector<int64_t> time_ms_;
  std::vector<int64_t> expire_ms_;
  std::vector<int64_t> duration_ms_;
  std::vector<uint32_t> name_id_;
  std::vector<uint32_t> target_id_;
  std::vector<int32_t> level_;
  /// Rows whose attrs are not canonically encodable, verbatim.
  std::unordered_map<uint32_t, std::map<std::string, std::string>>
      extra_attrs_;
};

/// Non-owning reference to one row of an EventRows — the zero-copy stand-in
/// for `const RawEvent&` on the hot path. Valid while the underlying
/// EventRows exists and is not cleared; appends do not invalidate refs.
class EventRef {
 public:
  EventRef() = default;
  EventRef(const EventRows* rows, uint32_t row) : rows_(rows), row_(row) {}

  std::string_view name() const { return rows_->name(row_); }
  std::string_view target() const { return rows_->target(row_); }
  uint32_t name_id() const { return rows_->name_id(row_); }
  uint32_t target_id() const { return rows_->target_id(row_); }
  TimePoint time() const { return rows_->time(row_); }
  int64_t time_ms() const { return rows_->time_ms(row_); }
  Severity level() const { return rows_->level(row_); }
  int32_t level_ordinal() const { return rows_->level_ordinal(row_); }
  Duration expire_interval() const { return rows_->expire_interval(row_); }
  int64_t expire_ms() const { return rows_->expire_ms(row_); }
  bool has_extra_attrs() const { return rows_->has_extra_attrs(row_); }

  /// Mirrors RawEvent::LoggedDuration exactly: NotFound when the event has
  /// no duration_ms attribute, InvalidArgument when it has one that does
  /// not parse as a non-negative integer.
  StatusOr<Duration> LoggedDuration() const;

  /// Allocation-free form for the resolver hot path: the logged duration
  /// in ms when the event carries a valid duration_ms attribute, -1
  /// otherwise (absent, unparseable, or negative) — exactly the cases
  /// where resolution falls back to the spec default.
  int64_t LoggedDurationMsOrNeg() const;

  RawEvent Materialize() const { return rows_->Materialize(row_); }

  const EventRows* rows() const { return rows_; }
  uint32_t row() const { return row_; }

 private:
  const EventRows* rows_ = nullptr;
  uint32_t row_ = 0;
};

/// EventSpan is the result of an EventLog query: an ordered list of row
/// segments (whole partitions or per-target row-index lists) plus a time
/// filter applied during iteration. It never copies event data — iterating
/// yields EventRefs into the log's own partitions.
///
/// Validity: a span borrows from the log (or retention buffer) it was cut
/// from and stays valid until that container is mutated. Appending to an
/// EventLog may add rows a previously cut span will not see and may
/// reallocate per-target index vectors; cut spans immediately before use.
class EventSpan {
 public:
  struct Segment {
    const EventRows* rows = nullptr;
    /// Row indices of the segment; nullptr means the contiguous range
    /// [first, last) of `rows`.
    const uint32_t* indices = nullptr;
    uint32_t first = 0;
    uint32_t last = 0;

    uint32_t count() const { return last - first; }
    uint32_t row_at(uint32_t i) const {
      return indices != nullptr ? indices[i] : first + i;
    }
  };

  EventSpan() = default;
  /// A span whose iteration only yields events with time in `filter`.
  explicit EventSpan(const Interval& filter)
      : filter_(filter), has_filter_(true) {}

  void AddSegment(const Segment& seg) {
    if (seg.count() == 0) return;
    if (n_inline_ < kInlineSegments) {
      inline_[n_inline_++] = seg;
    } else {
      overflow_.push_back(seg);
    }
  }

  size_t segment_count() const { return n_inline_ + overflow_.size(); }
  const Segment& segment(size_t i) const {
    return i < n_inline_ ? inline_[i] : overflow_[i - n_inline_];
  }

  /// Sum of segment sizes before time filtering — an upper bound on the
  /// number of refs iteration yields, for reserve().
  size_t UpperBound() const {
    size_t n = 0;
    for (size_t i = 0; i < segment_count(); ++i) n += segment(i).count();
    return n;
  }

  bool empty() const { return segment_count() == 0; }

  /// Calls `fn(const EventRef&)` for every event passing the time filter,
  /// in segment order then segment-internal order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t s = 0; s < segment_count(); ++s) {
      const Segment& seg = segment(s);
      for (uint32_t i = 0; i < seg.count(); ++i) {
        const uint32_t row = seg.row_at(i);
        if (has_filter_) {
          const int64_t t = seg.rows->time_ms(row);
          if (t < filter_.start.millis() || t >= filter_.end.millis()) {
            continue;
          }
        }
        fn(EventRef(seg.rows, row));
      }
    }
  }

  bool has_filter() const { return has_filter_; }
  const Interval& filter() const { return filter_; }

 private:
  /// A daily job query for one VM rarely touches more than a few daily
  /// partitions, so segments live inline and cutting a span allocates
  /// nothing.
  static constexpr size_t kInlineSegments = 8;
  std::array<Segment, kInlineSegments> inline_ = {};
  size_t n_inline_ = 0;
  std::vector<Segment> overflow_;
  Interval filter_;
  bool has_filter_ = false;
};

/// An event after period resolution: the (t_s, t_e, w)-ready
/// representation of Sec. IV-A, minus the weight (attached by
/// AttachWeights). Names and targets are GlobalInterner ids. Produced by
/// PeriodResolver::ResolveRefs.
struct ResolvedEventView {
  uint32_t name_id = StringInterner::kInvalidId;
  uint32_t target_id = StringInterner::kInvalidId;
  Interval period;
  Severity level = Severity::kWarning;
  StabilityCategory category = StabilityCategory::kPerformance;
};

/// A resolved event with its composite weight (Eq. 3) attached: the
/// e = (t_s, t_e, w) triple of Sec. IV-A that Algorithm 1 consumes, with
/// the drill-down name (Sec. VI-C) carried as an interned id.
struct WeightedEventView {
  Interval period;
  double weight = 0.0;
  uint32_t name_id = StringInterner::kInvalidId;
  StabilityCategory category = StabilityCategory::kPerformance;
};

}  // namespace cdibot

#endif  // CDIBOT_EVENT_EVENT_VIEW_H_
