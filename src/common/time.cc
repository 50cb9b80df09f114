#include "common/time.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace cdibot {
namespace {

constexpr int64_t kMillisPerSecond = 1000;
constexpr int64_t kMillisPerMinute = 60 * kMillisPerSecond;
constexpr int64_t kMillisPerHour = 60 * kMillisPerMinute;
constexpr int64_t kMillisPerDay = 24 * kMillisPerHour;

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[12] = {31, 28, 31, 30, 31, 30,
                                    31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

// Days since 1970-01-01 for a proleptic-Gregorian civil date.
// Reference: Howard Hinnant's days_from_civil.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;                          // [0, 399]
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;  // [0, 146096]
  return era * 146097 + doe - 719468;
}

// Inverse of DaysFromCivil.
void CivilFromDays(int64_t z, int* y_out, int* m_out, int* d_out) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp + (mp < 10 ? 3 : -9);
  *y_out = static_cast<int>(y + (m <= 2));
  *m_out = static_cast<int>(m);
  *d_out = static_cast<int>(d);
}

// Floor division that is correct for negative numerators.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) { return a - FloorDiv(a, b) * b; }

}  // namespace

std::string Duration::ToString() const {
  int64_t ms = ms_;
  std::string out;
  if (ms < 0) {
    out += "-";
    ms = -ms;
  }
  char buf[64];
  if (ms == 0) return "0s";
  const int64_t days = ms / kMillisPerDay;
  ms %= kMillisPerDay;
  const int64_t hours = ms / kMillisPerHour;
  ms %= kMillisPerHour;
  const int64_t minutes = ms / kMillisPerMinute;
  ms %= kMillisPerMinute;
  const int64_t seconds = ms / kMillisPerSecond;
  ms %= kMillisPerSecond;
  if (days > 0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "d", days);
    out += buf;
  }
  if (hours > 0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "h", hours);
    out += buf;
  }
  if (minutes > 0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "m", minutes);
    out += buf;
  }
  if (seconds > 0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "s", seconds);
    out += buf;
  }
  if (ms > 0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "ms", ms);
    out += buf;
  }
  return out;
}

StatusOr<TimePoint> TimePoint::FromCalendar(int year, int month, int day,
                                            int hour, int minute, int second) {
  if (month < 1 || month > 12) {
    return Status::InvalidArgument("month out of range");
  }
  if (day < 1 || day > DaysInMonth(year, month)) {
    return Status::InvalidArgument("day out of range");
  }
  if (hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 ||
      second > 59) {
    return Status::InvalidArgument("time-of-day out of range");
  }
  const int64_t days = DaysFromCivil(year, month, day);
  const int64_t ms = days * kMillisPerDay + hour * kMillisPerHour +
                     minute * kMillisPerMinute + second * kMillisPerSecond;
  return TimePoint::FromMillis(ms);
}

StatusOr<TimePoint> TimePoint::Parse(const std::string& text) {
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0;
  int n = std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d", &y, &mo, &d, &h, &mi,
                      &s);
  if (n != 3 && n != 5 && n != 6) {
    return Status::InvalidArgument("unparseable timestamp: " + text);
  }
  return FromCalendar(y, mo, d, h, mi, s);
}

TimePoint TimePoint::StartOfDay() const {
  return TimePoint::FromMillis(FloorDiv(ms_, kMillisPerDay) * kMillisPerDay);
}

std::string TimePoint::ToString() const {
  int y, mo, d;
  CivilFromDays(FloorDiv(ms_, kMillisPerDay), &y, &mo, &d);
  const int64_t tod = FloorMod(ms_, kMillisPerDay);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", y, mo, d,
                static_cast<int>(tod / kMillisPerHour),
                static_cast<int>((tod / kMillisPerMinute) % 60),
                static_cast<int>((tod / kMillisPerSecond) % 60));
  return buf;
}

std::string TimePoint::ToDateString() const {
  int y, mo, d;
  CivilFromDays(FloorDiv(ms_, kMillisPerDay), &y, &mo, &d);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, mo, d);
  return buf;
}

std::string Interval::ToString() const {
  std::string out = "[";
  out.append(start.ToString()).append(", ").append(end.ToString());
  return out.append(")");
}

int64_t Deadline::NowSteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Deadline Deadline::After(Duration budget) {
  const int64_t now = NowSteadyMillis();
  if (budget.millis() >= kInfiniteMs - now) return Infinite();
  return Deadline(now + budget.millis());
}

bool Deadline::Expired() const {
  if (IsInfinite()) return false;
  return NowSteadyMillis() >= at_steady_ms_;
}

Duration Deadline::Remaining() const {
  if (IsInfinite()) return Duration::Days(365);
  const int64_t left = at_steady_ms_ - NowSteadyMillis();
  return Duration::Millis(left > 0 ? left : 0);
}

}  // namespace cdibot
