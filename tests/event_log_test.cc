#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "storage/event_log.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

RawEvent Make(const char* name, const char* time, const char* target,
              int64_t duration_ms = -1) {
  RawEvent ev;
  ev.name = name;
  ev.time = T(time);
  ev.target = target;
  ev.level = Severity::kCritical;
  ev.expire_interval = Duration::Hours(24);
  if (duration_ms >= 0) {
    ev.attrs["duration_ms"] = std::to_string(duration_ms);
  }
  return ev;
}

TEST(EventLogTest, AppendAndSearchAcrossDays) {
  EventLog log;
  log.Append(Make("slow_io", "2024-01-01 23:59", "vm-1"));
  log.Append(Make("slow_io", "2024-01-02 00:01", "vm-1"));
  log.Append(Make("slow_io", "2024-01-03 12:00", "vm-2"));
  EXPECT_EQ(log.size(), 3u);
  auto res = log.Search(Interval(T("2024-01-01 00:00"), T("2024-01-03 00:00")));
  ASSERT_EQ(res.size(), 2u);
  EXPECT_LT(res[0].time, res[1].time);
}

TEST(EventLogTest, AppendBatchMatchesAppend) {
  const std::vector<RawEvent> events = {
      Make("slow_io", "2024-01-01 10:00", "vm-1"),
      Make("slow_io", "2024-01-01 10:01", "vm-1"),
      Make("vm_crash", "2024-01-02 10:02", "vm-2")};
  EventLog one_by_one;
  EXPECT_EQ(one_by_one.size(), 0u);
  for (const RawEvent& ev : events) one_by_one.Append(ev);
  EventLog batched;
  batched.AppendBatch(events);
  EXPECT_EQ(batched.size(), events.size());
  EXPECT_EQ(batched.PartitionDays(), one_by_one.PartitionDays());
  const Interval range(T("2024-01-01 00:00"), T("2024-01-03 00:00"));
  const std::vector<RawEvent> want = one_by_one.Search(range);
  const std::vector<RawEvent> got = batched.Search(range);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].target, want[i].target);
  }
}

TEST(EventLogTest, SearchIsHalfOpen) {
  EventLog log;
  log.Append(Make("a", "2024-01-02 00:00", "vm-1"));
  EXPECT_TRUE(
      log.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")))
          .empty());
  EXPECT_EQ(
      log.Search(Interval(T("2024-01-02 00:00"), T("2024-01-03 00:00")))
          .size(),
      1u);
}

TEST(EventLogTest, PartitionDays) {
  EventLog log;
  log.Append(Make("a", "2024-01-05 10:00", "vm-1"));
  log.Append(Make("a", "2024-01-03 10:00", "vm-1"));
  log.Append(Make("a", "2024-01-05 12:00", "vm-1"));
  auto days = log.PartitionDays();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].ToDateString(), "2024-01-03");
  EXPECT_EQ(days[1].ToDateString(), "2024-01-05");
}

TEST(EventLogTest, ExportImportRoundTrip) {
  EventLog log;
  log.Append(Make("qemu_live_upgrade", "2024-01-01 10:00", "vm-1", 2500));
  log.Append(Make("slow_io", "2024-01-01 11:00", "vm-2"));
  auto table = log.ExportDay(T("2024-01-01 05:00"));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);

  auto events = EventLog::ImportTable(table.value());
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].name, "qemu_live_upgrade");
  EXPECT_EQ((*events)[0].LoggedDuration()->millis(), 2500);
  EXPECT_TRUE((*events)[1].LoggedDuration().status().IsNotFound());
  EXPECT_EQ((*events)[1].target, "vm-2");
  EXPECT_EQ((*events)[1].level, Severity::kCritical);
}

TEST(EventLogTest, ExportEmptyDayIsEmptyTable) {
  EventLog log;
  auto table = log.ExportDay(T("2024-06-01 00:00"));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
}

TEST(EventLogTest, ImportRejectsWrongSchema) {
  dataflow::Table wrong(dataflow::Schema(
      {dataflow::Field{"x", dataflow::ValueType::kInt}}));
  EXPECT_TRUE(EventLog::ImportTable(wrong).status().IsInvalidArgument());
}

TEST(EventLogTest, SaveAndLoadDirectoryRoundTrip) {
  EventLog log;
  log.Append(Make("slow_io", "2024-01-01 10:00", "vm-1"));
  log.Append(Make("qemu_live_upgrade", "2024-01-01 11:00", "vm-2", 900));
  log.Append(Make("packet_loss", "2024-01-03 09:00", "vm-1"));

  const std::string dir = ::testing::TempDir() + "/cdibot_event_log";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(log.SaveToDir(dir).ok());

  auto loaded = EventLog::LoadFromDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->PartitionDays().size(), 2u);
  auto events = loaded->Search(
      Interval(T("2024-01-01 00:00"), T("2024-01-05 00:00")));
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].LoggedDuration()->millis(), 900);
  EXPECT_EQ(events[2].name, "packet_loss");
  std::filesystem::remove_all(dir);
}

TEST(EventLogTest, LoadFromMissingDirectoryFails) {
  EXPECT_TRUE(EventLog::LoadFromDir("/definitely/not/here")
                  .status()
                  .IsNotFound());
  EventLog log;
  EXPECT_TRUE(log.SaveToDir("/definitely/not/here").IsNotFound());
}

TEST(EventLogTest, EmptySearchRange) {
  EventLog log;
  log.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  EXPECT_TRUE(
      log.Search(Interval(T("2024-01-01 10:00"), T("2024-01-01 10:00")))
          .empty());
}

// --- Ordering pins. Search promises stable time order regardless of append
// order; the SoA rework must not change what callers observe.

TEST(EventLogTest, SearchSortsOutOfOrderAppendsWithinDay) {
  EventLog log;
  log.Append(Make("c", "2024-01-01 12:00", "vm-1"));
  log.Append(Make("a", "2024-01-01 08:00", "vm-1"));
  log.Append(Make("b", "2024-01-01 10:00", "vm-2"));
  auto res = log.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")));
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].name, "a");
  EXPECT_EQ(res[1].name, "b");
  EXPECT_EQ(res[2].name, "c");
}

TEST(EventLogTest, SearchOrdersAcrossDaysAppendedOutOfOrder) {
  EventLog log;
  log.Append(Make("late", "2024-01-03 01:00", "vm-1"));
  log.Append(Make("early", "2024-01-01 23:00", "vm-1"));
  log.Append(Make("mid", "2024-01-02 12:00", "vm-1"));
  auto res = log.Search(Interval(T("2024-01-01 00:00"), T("2024-01-04 00:00")));
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].name, "early");
  EXPECT_EQ(res[1].name, "mid");
  EXPECT_EQ(res[2].name, "late");
}

TEST(EventLogTest, SearchIsStableForEqualTimestamps) {
  // Equal-time events must come back in append order (stable sort
  // semantics), including when an earlier event forces the sort path.
  EventLog log;
  log.Append(Make("first", "2024-01-01 10:00", "vm-1"));
  log.Append(Make("second", "2024-01-01 10:00", "vm-2"));
  log.Append(Make("force_sort", "2024-01-01 09:00", "vm-3"));
  log.Append(Make("third", "2024-01-01 10:00", "vm-1"));
  auto res = log.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")));
  ASSERT_EQ(res.size(), 4u);
  EXPECT_EQ(res[0].name, "force_sort");
  EXPECT_EQ(res[1].name, "first");
  EXPECT_EQ(res[2].name, "second");
  EXPECT_EQ(res[3].name, "third");
}

// --- Query API: the zero-copy read path.

std::vector<RawEvent> Collect(const EventSpan& span) {
  std::vector<RawEvent> out;
  span.ForEach([&out](const EventRef& ev) { out.push_back(ev.Materialize()); });
  return out;
}

TEST(EventLogTest, QueryFiltersByTarget) {
  EventLog log;
  log.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  log.Append(Make("a", "2024-01-01 11:00", "vm-2"));
  auto res = Collect(log.Query(
      EventQuery{.interval = Interval(T("2024-01-01 00:00"),
                                      T("2024-01-02 00:00")),
                 .target_id = GlobalInterner().Lookup("vm-2")}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].target, "vm-2");
}

TEST(EventLogTest, QueryKeepsAppendOrderForOutOfOrderAppends) {
  // Unlike Search, a span is not time-sorted: the resolver sorts, so the
  // span yields the target's rows in append order.
  EventLog log;
  log.Append(Make("b", "2024-01-01 11:00", "vm-1"));
  log.Append(Make("x", "2024-01-01 10:30", "vm-2"));
  log.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  auto res = Collect(log.Query(
      EventQuery{.interval = Interval(T("2024-01-01 00:00"),
                                      T("2024-01-02 00:00")),
                 .target_id = GlobalInterner().Lookup("vm-1")}));
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].name, "b");
  EXPECT_EQ(res[1].name, "a");
}

TEST(EventLogTest, QueryYieldsTargetRowsAcrossPartitions) {
  EventLog log;
  log.Append(Make("d1", "2024-01-01 10:00", "vm-1"));
  log.Append(Make("other", "2024-01-01 11:00", "vm-2"));
  log.Append(Make("d2", "2024-01-02 10:00", "vm-1"));
  const EventSpan span = log.Query(
      EventQuery{.interval = Interval(T("2024-01-01 00:00"),
                                      T("2024-01-03 00:00")),
                 .target_id = GlobalInterner().Lookup("vm-1")});
  EXPECT_EQ(span.segment_count(), 2u);
  auto events = Collect(span);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "d1");
  EXPECT_EQ(events[1].name, "d2");
  for (const RawEvent& ev : events) EXPECT_EQ(ev.target, "vm-1");
}

TEST(EventLogTest, QueryMarginExtendsTheInterval) {
  EventLog log;
  log.Append(Make("before", "2024-01-01 23:00", "vm-1"));
  log.Append(Make("inside", "2024-01-02 12:00", "vm-1"));
  log.Append(Make("after", "2024-01-03 01:00", "vm-1"));
  const Interval day(T("2024-01-02 00:00"), T("2024-01-03 00:00"));
  const uint32_t vm1 = GlobalInterner().Lookup("vm-1");

  auto no_margin = Collect(log.Query(
      EventQuery{.interval = day, .target_id = vm1}));
  ASSERT_EQ(no_margin.size(), 1u);
  EXPECT_EQ(no_margin[0].name, "inside");

  auto with_margin = Collect(log.Query(EventQuery{
      .interval = day, .target_id = vm1, .margin = Duration::Hours(2)}));
  ASSERT_EQ(with_margin.size(), 3u);
  EXPECT_EQ(with_margin[0].name, "before");
  EXPECT_EQ(with_margin[2].name, "after");
}

TEST(EventLogTest, QueryUnknownTargetIsEmptySpan) {
  EventLog log;
  log.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  // A target string never interned anywhere in the process.
  const EventSpan span = log.Query(EventQuery{
      .interval = day,
      .target_id = GlobalInterner().Lookup("vm-never-seen-anywhere")});
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(span.UpperBound(), 0u);
  // A target interned by some other subsystem but absent from this log.
  const uint32_t elsewhere = GlobalInterner().Intern("vm-interned-elsewhere");
  EXPECT_TRUE(
      log.Query(EventQuery{.interval = day, .target_id = elsewhere}).empty());
}

TEST(EventLogTest, QueryEmptyIntervalIsEmptySpan) {
  EventLog log;
  log.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  const EventSpan span = log.Query(EventQuery{
      .interval = Interval(T("2024-01-01 10:00"), T("2024-01-01 10:00")),
      .target_id = GlobalInterner().Lookup("vm-1")});
  EXPECT_TRUE(span.empty());
}

TEST(EventLogTest, QueryIntervalIsHalfOpen) {
  EventLog log;
  log.Append(Make("at_start", "2024-01-01 00:00", "vm-1"));
  log.Append(Make("at_end", "2024-01-02 00:00", "vm-1"));
  auto res = Collect(log.Query(
      EventQuery{.interval = Interval(T("2024-01-01 00:00"),
                                      T("2024-01-02 00:00")),
                 .target_id = GlobalInterner().Lookup("vm-1")}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].name, "at_start");
}

TEST(EventLogTest, QuerySpanMatchesTargetFilteredSearch) {
  // The span iterates rows in append order per partition (the resolver
  // sorts internally); as a set it must match Search over the same
  // effective range, filtered to the target.
  EventLog log;
  log.Append(Make("b", "2024-01-01 11:00", "vm-1", 500));
  log.Append(Make("other", "2024-01-01 10:30", "vm-2"));
  log.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  log.Append(Make("c", "2024-01-02 09:00", "vm-1"));
  const Interval range(T("2024-01-01 00:00"), T("2024-01-03 00:00"));
  auto from_span = Collect(log.Query(EventQuery{
      .interval = range, .target_id = GlobalInterner().Lookup("vm-1")}));
  std::vector<RawEvent> from_search = log.Search(range);
  std::erase_if(from_search,
                [](const RawEvent& ev) { return ev.target != "vm-1"; });
  ASSERT_EQ(from_span.size(), from_search.size());
  // Align by time, then compare field-for-field.
  std::sort(from_span.begin(), from_span.end(),
            [](const RawEvent& x, const RawEvent& y) { return x.time < y.time; });
  for (size_t i = 0; i < from_span.size(); ++i) {
    EXPECT_EQ(from_span[i].name, from_search[i].name);
    EXPECT_EQ(from_span[i].time, from_search[i].time);
    EXPECT_EQ(from_span[i].attrs, from_search[i].attrs);
  }
}

}  // namespace
}  // namespace cdibot
