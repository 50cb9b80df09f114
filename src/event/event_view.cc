#include "event/event_view.h"

#include <cstdlib>

namespace cdibot {
namespace {

const std::map<std::string, std::string>& EmptyAttrs() {
  static const std::map<std::string, std::string>* empty =
      new std::map<std::string, std::string>();
  return *empty;
}

/// Parses `s` as a canonical non-negative duration_ms value: the full
/// string must parse, the value must be >= 0, and printing it back must
/// reproduce `s` exactly (no leading zeros, no '+', no whitespace). Only
/// then can the column encoding round-trip the original attrs map.
bool ParseCanonicalDurationMs(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long ms = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || ms < 0) return false;
  if (std::to_string(ms) != s) return false;
  *out = static_cast<int64_t>(ms);
  return true;
}

}  // namespace

uint32_t EventRows::Append(const RawEvent& event) {
  const auto row = static_cast<uint32_t>(time_ms_.size());
  time_ms_.push_back(event.time.millis());
  expire_ms_.push_back(event.expire_interval.millis());
  name_id_.push_back(GlobalInterner().Intern(event.name));
  target_id_.push_back(GlobalInterner().Intern(event.target));
  level_.push_back(static_cast<int32_t>(event.level));

  int64_t dur = -1;
  bool canonical = event.attrs.empty();
  if (!canonical && event.attrs.size() == 1) {
    const auto& [key, value] = *event.attrs.begin();
    canonical = key == "duration_ms" && ParseCanonicalDurationMs(value, &dur);
  }
  if (!canonical) {
    dur = -1;  // overflow rows answer duration questions from the side table
    extra_attrs_.emplace(row, event.attrs);
  }
  duration_ms_.push_back(dur);
  return row;
}

void EventRows::clear() {
  time_ms_.clear();
  expire_ms_.clear();
  duration_ms_.clear();
  name_id_.clear();
  target_id_.clear();
  level_.clear();
  extra_attrs_.clear();
}

const std::map<std::string, std::string>& EventRows::extra_attrs(
    uint32_t row) const {
  auto it = extra_attrs_.find(row);
  return it == extra_attrs_.end() ? EmptyAttrs() : it->second;
}

RawEvent EventRows::Materialize(uint32_t row) const {
  RawEvent ev;
  ev.name = std::string(name(row));
  ev.time = time(row);
  ev.target = std::string(target(row));
  ev.expire_interval = expire_interval(row);
  ev.level = level(row);
  if (has_extra_attrs(row)) {
    ev.attrs = extra_attrs(row);
  } else if (duration_ms_[row] >= 0) {
    ev.attrs.emplace("duration_ms", std::to_string(duration_ms_[row]));
  }
  return ev;
}

StatusOr<Duration> EventRef::LoggedDuration() const {
  if (rows_->has_extra_attrs(row_)) {
    // Overflow row: evaluate against the verbatim attrs, reproducing
    // RawEvent::LoggedDuration exactly (including its error statuses).
    const auto& attrs = rows_->extra_attrs(row_);
    auto it = attrs.find("duration_ms");
    if (it == attrs.end()) {
      return Status::NotFound("event has no duration_ms attribute");
    }
    char* end = nullptr;
    const long long ms = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || ms < 0) {
      return Status::InvalidArgument("bad duration_ms: " + it->second);
    }
    return Duration::Millis(ms);
  }
  const int64_t dur = rows_->duration_ms(row_);
  if (dur < 0) {
    return Status::NotFound("event has no duration_ms attribute");
  }
  return Duration::Millis(dur);
}

int64_t EventRef::LoggedDurationMsOrNeg() const {
  if (rows_->has_extra_attrs(row_)) {
    const auto& attrs = rows_->extra_attrs(row_);
    auto it = attrs.find("duration_ms");
    if (it == attrs.end()) return -1;
    char* end = nullptr;
    const long long ms = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || ms < 0) return -1;
    return static_cast<int64_t>(ms);
  }
  return rows_->duration_ms(row_);
}

}  // namespace cdibot
