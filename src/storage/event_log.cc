#include "storage/event_log.h"

#include <algorithm>
#include <filesystem>

#include "common/strings.h"
#include "dataflow/csv.h"
#include "storage/atomic_io.h"

namespace cdibot {

void EventLog::Append(const RawEvent& event) {
  Partition& part = partitions_[event.time.StartOfDay().millis()];
  const uint32_t row = part.rows.Append(event);
  part.by_target[part.rows.target_id(row)].push_back(row);
  const int64_t t = part.rows.time_ms(row);
  if (t < part.last_time_ms) {
    part.sorted_on_append = false;
  } else {
    part.last_time_ms = t;
  }
  ++size_;
}

void EventLog::AppendBatch(const std::vector<RawEvent>& events) {
  for (const RawEvent& ev : events) Append(ev);
}

size_t EventLog::size() const { return size_; }

EventSpan EventLog::Query(const EventQuery& query) const {
  const Interval range(query.interval.start - query.margin,
                       query.interval.end + query.margin);
  EventSpan span(range);
  if (range.empty() || query.target_id == StringInterner::kInvalidId) {
    return span;
  }
  const int64_t first_day = range.start.StartOfDay().millis();
  for (auto it = partitions_.lower_bound(first_day);
       it != partitions_.end() && it->first < range.end.millis(); ++it) {
    auto idx = it->second.by_target.find(query.target_id);
    if (idx == it->second.by_target.end()) continue;
    span.AddSegment(EventSpan::Segment{
        .rows = &it->second.rows,
        .indices = idx->second.data(),
        .first = 0,
        .last = static_cast<uint32_t>(idx->second.size())});
  }
  return span;
}

EventSpan EventLog::QueryAll(const Interval& interval, Duration margin) const {
  const Interval range(interval.start - margin, interval.end + margin);
  EventSpan span(range);
  if (range.empty()) return span;
  const int64_t first_day = range.start.StartOfDay().millis();
  for (auto it = partitions_.lower_bound(first_day);
       it != partitions_.end() && it->first < range.end.millis(); ++it) {
    span.AddSegment(EventSpan::Segment{
        .rows = &it->second.rows,
        .indices = nullptr,
        .first = 0,
        .last = static_cast<uint32_t>(it->second.rows.size())});
  }
  return span;
}

namespace {

/// Appends the materialized events of `rows` that fall in `range`, in
/// stable time order. Partitions are day-disjoint, so concatenating
/// per-partition sorted runs in day order is the k-way merge degenerate
/// case — no global sort needed, and a partition whose rows arrived
/// already time-ordered skips its sort entirely.
void AppendSortedRun(const EventRows& rows, bool sorted_on_append,
                     const Interval& range, std::vector<RawEvent>* out) {
  std::vector<uint32_t> matched;
  matched.reserve(rows.size());
  for (uint32_t row = 0; row < rows.size(); ++row) {
    if (range.Contains(rows.time(row))) matched.push_back(row);
  }
  if (!sorted_on_append) {
    // Row order is append order, so sorting by time with a stable sort
    // reproduces exactly what stable_sort over materialized events did.
    std::stable_sort(matched.begin(), matched.end(),
                     [&rows](uint32_t a, uint32_t b) {
                       return rows.time_ms(a) < rows.time_ms(b);
                     });
  }
  for (const uint32_t row : matched) out->push_back(rows.Materialize(row));
}

}  // namespace

std::vector<RawEvent> EventLog::Search(const Interval& range) const {
  std::vector<RawEvent> out;
  if (range.empty()) return out;
  const int64_t first_day = range.start.StartOfDay().millis();
  for (auto it = partitions_.lower_bound(first_day);
       it != partitions_.end() && it->first < range.end.millis(); ++it) {
    AppendSortedRun(it->second.rows, it->second.sorted_on_append, range,
                    &out);
  }
  return out;
}

std::vector<TimePoint> EventLog::PartitionDays() const {
  std::vector<TimePoint> out;
  out.reserve(partitions_.size());
  for (const auto& [day_ms, _] : partitions_) {
    out.push_back(TimePoint::FromMillis(day_ms));
  }
  return out;
}

namespace {

constexpr char kEventLogManifestFormat[] = "cdibot-eventlog-v2";

dataflow::Schema ExportSchema() {
  using dataflow::Field;
  using dataflow::ValueType;
  return dataflow::Schema({Field{"name", ValueType::kString},
                           Field{"time_ms", ValueType::kInt},
                           Field{"target", ValueType::kString},
                           Field{"level", ValueType::kInt},
                           Field{"expire_ms", ValueType::kInt},
                           Field{"duration_ms", ValueType::kInt}});
}

/// Rebuilds one RawEvent from an export-schema row.
StatusOr<RawEvent> ImportRow(const dataflow::Row& row) {
  RawEvent ev;
  CDIBOT_ASSIGN_OR_RETURN(ev.name, row[0].AsString());
  CDIBOT_ASSIGN_OR_RETURN(const int64_t time_ms, row[1].AsInt());
  ev.time = TimePoint::FromMillis(time_ms);
  CDIBOT_ASSIGN_OR_RETURN(ev.target, row[2].AsString());
  CDIBOT_ASSIGN_OR_RETURN(const int64_t level, row[3].AsInt());
  if (level < 1 || level > kNumSeverityLevels) {
    return Status::InvalidArgument(
        StrFormat("bad severity ordinal %lld", static_cast<long long>(level)));
  }
  ev.level = static_cast<Severity>(level);
  CDIBOT_ASSIGN_OR_RETURN(const int64_t expire_ms, row[4].AsInt());
  ev.expire_interval = Duration::Millis(expire_ms);
  CDIBOT_ASSIGN_OR_RETURN(const int64_t duration_ms, row[5].AsInt());
  if (duration_ms >= 0) {
    ev.attrs["duration_ms"] =
        StrFormat("%lld", static_cast<long long>(duration_ms));
  }
  return ev;
}

/// Lists `dir`'s events_*.csv files in sorted (deterministic) order.
StatusOr<std::vector<std::string>> ListEventFiles(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("events_", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".csv") {
      names.push_back(name);
    }
  }
  if (ec) return Status::Internal("cannot list " + dir + ": " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

StatusOr<dataflow::Table> EventLog::ExportDay(TimePoint day) const {
  using dataflow::Value;
  dataflow::Table table(ExportSchema());
  auto it = partitions_.find(day.StartOfDay().millis());
  if (it == partitions_.end()) return table;  // empty day is a valid export
  const EventRows& rows = it->second.rows;
  for (uint32_t row = 0; row < rows.size(); ++row) {
    const EventRef ev(&rows, row);
    CDIBOT_RETURN_IF_ERROR(table.Append(
        {Value(std::string(ev.name())), Value(ev.time_ms()),
         Value(std::string(ev.target())),
         Value(static_cast<int64_t>(ev.level())), Value(ev.expire_ms()),
         Value(ev.LoggedDurationMsOrNeg())}));
  }
  return table;
}

StatusOr<std::vector<RawEvent>> EventLog::ImportTable(
    const dataflow::Table& table) {
  if (!(table.schema() == ExportSchema())) {
    return Status::InvalidArgument("table schema is not an event export: " +
                                   table.schema().ToString());
  }
  std::vector<RawEvent> out;
  out.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    CDIBOT_ASSIGN_OR_RETURN(RawEvent ev, ImportRow(table.row(i)));
    out.push_back(std::move(ev));
  }
  return out;
}

Status EventLog::SaveToDir(const std::string& dir) const {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  std::vector<std::string> files;
  for (const TimePoint day : PartitionDays()) {
    CDIBOT_ASSIGN_OR_RETURN(const dataflow::Table table, ExportDay(day));
    const std::string file = "events_" + day.ToDateString() + ".csv";
    CDIBOT_RETURN_IF_ERROR(WriteCsvFileAtomic(table, dir + "/" + file));
    files.push_back(file);
  }
  // Manifest last: present iff every partition above landed completely.
  return WriteDirManifest(dir, kEventLogManifestFormat, files);
}

StatusOr<EventLog> EventLog::LoadFromDir(const std::string& dir) {
  const Status manifest = VerifyDirManifest(dir, kEventLogManifestFormat);
  if (!manifest.ok() && !manifest.IsNotFound()) return manifest;
  CDIBOT_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                          ListEventFiles(dir));

  EventLog log;
  for (const std::string& file : files) {
    CDIBOT_ASSIGN_OR_RETURN(
        const dataflow::Table table,
        dataflow::ReadCsvFile(dir + "/" + file, ExportSchema()));
    CDIBOT_ASSIGN_OR_RETURN(const std::vector<RawEvent> events,
                            ImportTable(table));
    for (const RawEvent& ev : events) log.Append(ev);
  }
  return log;
}

StatusOr<EventLog> EventLog::LoadFromDirLenient(const std::string& dir,
                                                LoadReport* report) {
  LoadReport local;
  LoadReport& out = report != nullptr ? *report : local;
  out = LoadReport{};
  auto note = [&out](const std::string& msg) {
    if (out.errors.size() < dataflow::LenientCsvResult::kMaxErrors) {
      out.errors.push_back(msg);
    }
  };

  const Status manifest = VerifyDirManifest(dir, kEventLogManifestFormat);
  if (!manifest.ok()) {
    out.integrity_suspect = true;
    if (!manifest.IsNotFound()) note(manifest.ToString());
  }
  CDIBOT_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                          ListEventFiles(dir));

  EventLog log;
  for (const std::string& file : files) {
    auto parsed =
        dataflow::ReadCsvFileLenient(dir + "/" + file, ExportSchema());
    if (!parsed.ok()) {
      // Even the header is gone; this whole file is a casualty.
      out.integrity_suspect = true;
      note(file + ": " + parsed.status().ToString());
      continue;
    }
    out.rows_dropped += parsed->rows_dropped;
    for (const std::string& err : parsed->errors) note(file + ": " + err);
    for (size_t i = 0; i < parsed->table.num_rows(); ++i) {
      auto ev = ImportRow(parsed->table.row(i));
      if (!ev.ok()) {
        ++out.events_dropped;
        note(file + ": " + ev.status().ToString());
        continue;
      }
      log.Append(*ev);
    }
  }
  return log;
}

}  // namespace cdibot
