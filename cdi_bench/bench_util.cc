#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace cdibench {
namespace {

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx =
      std::min(v.size() - 1, static_cast<size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

void SpanLog::Add(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t id) {
  const Span span{name, ThisThreadId(),
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start - origin_)
                      .count(),
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      end - start)
                      .count(),
                  id};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace cdibench
