#include "event/event_view.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

RawEvent Make(const char* name, const char* time, const char* target) {
  RawEvent ev;
  ev.name = name;
  ev.time = T(time);
  ev.target = target;
  ev.level = Severity::kCritical;
  ev.expire_interval = Duration::Hours(24);
  return ev;
}

TEST(EventRowsTest, AppendEncodesColumnsAndInternsStrings) {
  EventRows rows;
  RawEvent ev = Make("slow_io", "2024-01-01 10:00", "vm-1");
  const uint32_t row = rows.Append(ev);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.time(row), ev.time);
  EXPECT_EQ(rows.name(row), "slow_io");
  EXPECT_EQ(rows.target(row), "vm-1");
  EXPECT_EQ(rows.level(row), Severity::kCritical);
  EXPECT_EQ(rows.expire_interval(row), Duration::Hours(24));
  EXPECT_EQ(rows.name_id(row), GlobalInterner().Lookup("slow_io"));
  EXPECT_EQ(rows.target_id(row), GlobalInterner().Lookup("vm-1"));
  // Re-appending the same strings reuses the ids.
  const uint32_t row2 = rows.Append(Make("slow_io", "2024-01-01 11:00",
                                         "vm-1"));
  EXPECT_EQ(rows.name_id(row2), rows.name_id(row));
  EXPECT_EQ(rows.target_id(row2), rows.target_id(row));
}

TEST(EventRowsTest, CanonicalDurationLivesInTheColumn) {
  EventRows rows;
  RawEvent ev = Make("a", "2024-01-01 10:00", "vm-1");
  ev.attrs["duration_ms"] = "2500";
  const uint32_t row = rows.Append(ev);
  EXPECT_EQ(rows.duration_ms(row), 2500);
  EXPECT_FALSE(rows.has_extra_attrs(row));
  EXPECT_EQ(rows.Materialize(row).attrs, ev.attrs);
  // Zero is canonical too.
  RawEvent zero = Make("a", "2024-01-01 10:00", "vm-1");
  zero.attrs["duration_ms"] = "0";
  const uint32_t zrow = rows.Append(zero);
  EXPECT_EQ(rows.duration_ms(zrow), 0);
  EXPECT_FALSE(rows.has_extra_attrs(zrow));
}

TEST(EventRowsTest, NoAttrsMeansNoDuration) {
  EventRows rows;
  const uint32_t row = rows.Append(Make("a", "2024-01-01 10:00", "vm-1"));
  EXPECT_EQ(rows.duration_ms(row), -1);
  EXPECT_FALSE(rows.has_extra_attrs(row));
  EXPECT_TRUE(rows.Materialize(row).attrs.empty());
}

TEST(EventRowsTest, NonCanonicalAttrsRoundTripViaSideTable) {
  EventRows rows;
  // Each of these must come back bit-for-bit from Materialize.
  std::vector<std::map<std::string, std::string>> shapes = {
      {{"duration_ms", "2500"}, {"note", "extra key"}},  // extra keys
      {{"duration_ms", "not_a_number"}},                 // unparseable
      {{"duration_ms", "-5"}},                           // negative
      {{"duration_ms", "0500"}},                         // leading zero
      {{"duration_ms", "+7"}},                           // explicit sign
      {{"duration_ms", "25 "}},                          // trailing junk
      {{"duration_ms", ""}},                             // empty value
      {{"other_key", "value"}},                          // no duration at all
  };
  for (const auto& attrs : shapes) {
    RawEvent ev = Make("a", "2024-01-01 10:00", "vm-1");
    ev.attrs = attrs;
    const uint32_t row = rows.Append(ev);
    EXPECT_TRUE(rows.has_extra_attrs(row));
    EXPECT_EQ(rows.duration_ms(row), -1);
    const RawEvent back = rows.Materialize(row);
    EXPECT_EQ(back.attrs, attrs);
    EXPECT_EQ(back.name, ev.name);
    EXPECT_EQ(back.time, ev.time);
  }
}

TEST(EventRefTest, LoggedDurationMirrorsRawEvent) {
  EventRows rows;
  auto append = [&rows](std::map<std::string, std::string> attrs) {
    RawEvent ev = Make("a", "2024-01-01 10:00", "vm-1");
    ev.attrs = std::move(attrs);
    return EventRef(&rows, rows.Append(ev));
  };
  // Canonical: value from the column.
  EXPECT_EQ(append({{"duration_ms", "900"}}).LoggedDuration()->millis(), 900);
  // Absent: NotFound, and -1 on the allocation-free path.
  const EventRef none = append({});
  EXPECT_TRUE(none.LoggedDuration().status().IsNotFound());
  EXPECT_EQ(none.LoggedDurationMsOrNeg(), -1);
  // Overflow row with a valid duration among extra keys still parses.
  const EventRef extra = append({{"duration_ms", "42"}, {"k", "v"}});
  EXPECT_EQ(extra.LoggedDuration()->millis(), 42);
  EXPECT_EQ(extra.LoggedDurationMsOrNeg(), 42);
  // Overflow row with a bad duration: InvalidArgument / -1, exactly like
  // RawEvent::LoggedDuration on the same attrs.
  const EventRef bad = append({{"duration_ms", "junk"}});
  EXPECT_TRUE(bad.LoggedDuration().status().IsInvalidArgument());
  EXPECT_EQ(bad.LoggedDurationMsOrNeg(), -1);
  const EventRef negative = append({{"duration_ms", "-1"}});
  EXPECT_TRUE(negative.LoggedDuration().status().IsInvalidArgument());
  EXPECT_EQ(negative.LoggedDurationMsOrNeg(), -1);
}

TEST(EventSpanTest, ForEachAppliesTimeFilter) {
  EventRows rows;
  rows.Append(Make("before", "2024-01-01 09:00", "vm-1"));
  rows.Append(Make("at_start", "2024-01-01 10:00", "vm-1"));
  rows.Append(Make("inside", "2024-01-01 12:00", "vm-1"));
  rows.Append(Make("at_end", "2024-01-01 14:00", "vm-1"));

  EventSpan span(Interval(T("2024-01-01 10:00"), T("2024-01-01 14:00")));
  span.AddSegment(EventSpan::Segment{
      .rows = &rows, .indices = nullptr, .first = 0,
      .last = static_cast<uint32_t>(rows.size())});
  EXPECT_EQ(span.UpperBound(), 4u);  // pre-filter bound

  std::vector<std::string> names;
  span.ForEach([&names](const EventRef& ev) {
    names.emplace_back(ev.name());
  });
  // Half-open [start, end): start included, end excluded.
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "at_start");
  EXPECT_EQ(names[1], "inside");
}

TEST(EventSpanTest, IndexSegmentsSelectRows) {
  EventRows rows;
  rows.Append(Make("r0", "2024-01-01 10:00", "vm-1"));
  rows.Append(Make("r1", "2024-01-01 11:00", "vm-2"));
  rows.Append(Make("r2", "2024-01-01 12:00", "vm-1"));
  const std::vector<uint32_t> picks = {0, 2};

  EventSpan span;  // no filter
  span.AddSegment(EventSpan::Segment{
      .rows = &rows, .indices = picks.data(), .first = 0,
      .last = static_cast<uint32_t>(picks.size())});
  std::vector<std::string> names;
  span.ForEach([&names](const EventRef& ev) {
    names.emplace_back(ev.name());
  });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "r0");
  EXPECT_EQ(names[1], "r2");
}

TEST(EventSpanTest, EmptySegmentsAreDroppedAndOverflowWorks) {
  EventRows rows;
  for (int i = 0; i < 12; ++i) {
    rows.Append(Make("e", "2024-01-01 10:00", "vm-1"));
  }
  EventSpan span;
  // Empty segments are not stored.
  span.AddSegment(EventSpan::Segment{.rows = &rows, .indices = nullptr,
                                     .first = 3, .last = 3});
  EXPECT_TRUE(span.empty());
  // More than kInlineSegments single-row segments spill to the overflow
  // vector without losing any.
  for (uint32_t i = 0; i < 12; ++i) {
    span.AddSegment(EventSpan::Segment{.rows = &rows, .indices = nullptr,
                                       .first = i, .last = i + 1});
  }
  EXPECT_EQ(span.segment_count(), 12u);
  size_t seen = 0;
  span.ForEach([&seen](const EventRef&) { ++seen; });
  EXPECT_EQ(seen, 12u);
}

TEST(EventSpanTest, MaterializeReconstructsEvents) {
  EventRows rows;
  RawEvent ev = Make("qemu_live_upgrade", "2024-01-01 10:00", "vm-1");
  ev.attrs["duration_ms"] = "800";
  rows.Append(ev);
  EventSpan span;
  span.AddSegment(EventSpan::Segment{.rows = &rows, .indices = nullptr,
                                     .first = 0, .last = 1});
  std::vector<RawEvent> out;
  span.ForEach([&out](const EventRef& ref) {
    out.push_back(ref.Materialize());
  });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].name, ev.name);
  EXPECT_EQ(out[0].time, ev.time);
  EXPECT_EQ(out[0].target, ev.target);
  EXPECT_EQ(out[0].level, ev.level);
  EXPECT_EQ(out[0].expire_interval, ev.expire_interval);
  EXPECT_EQ(out[0].attrs, ev.attrs);
}

}  // namespace
}  // namespace cdibot
