// Small, dependency-free helpers shared by the benchmark's files: wall
// clock, order statistics, the metric report, and the in-memory span log
// that traced runs write out as a Chrome trace at exit.
#ifndef CDI_BENCH_BENCH_UTIL_H_
#define CDI_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cdibench {

using Clock = std::chrono::steady_clock;

inline double Secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Ms(Clock::duration d) { return Secs(d) * 1e3; }
inline double Us(Clock::duration d) { return Secs(d) * 1e6; }

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);
/// a / b, or 0 when b is 0 (ratios over empty bases).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// What one run reports. Metric names are the ones BENCHMARK.json lists;
/// main.cc prints the end-to-end or the per-layer set depending on --trace.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable notes (mismatch details, sample counts) for stderr.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

/// Spans recorded from the benchmark's own files around calls into the
/// library: name, start, end and the id of the request that caused them.
/// Held in memory and written once, at exit, as Chrome-trace JSON. Off
/// unless the run is traced, so untraced runs pay one relaxed load.
class SpanLog {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           uint64_t id = 0);
  /// Writes every span as a Chrome "complete" event; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    const char* name;
    uint32_t tid;
    int64_t start_ns;
    int64_t dur_ns;
    uint64_t id;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

SpanLog& Spans();

/// Records one span over its scope when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t id = 0)
      : name_(name), id_(id), start_(Clock::now()) {}
  ~ScopedSpan() {
    if (Spans().enabled()) Spans().Add(name_, start_, Clock::now(), id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace cdibench

#endif  // CDI_BENCH_BENCH_UTIL_H_
