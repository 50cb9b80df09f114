// End-to-end CDI benchmark driver.
//
//   cdi_bench --workload <batch_day|stream_fresh|shard_dashboard>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints notes on stderr and, as the last line of stdout, one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones (and
// write their spans as a Chrome trace to --trace-out). Exit code 0 only
// when every reference check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace cdibench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"batch_events_per_s", "1/s"}, {"fresh_p50_ms", "ms"},
    {"fresh_p99_ms", "ms"},     {"query_p50_us", "us"},
    {"query_p99_us", "us"},     {"query_per_s", "1/s"},
};

// A layer a workload bypasses reports 0: no call into it was timed.
constexpr MetricDef kPerLayer[] = {
    {"storage.query_us", "us"},
    {"storage.append_ns", "ns"},
    {"chaos.validate_us", "us"},
    {"event.resolve_us", "us"},
    {"event.raw_per_vm", "count"},
    {"event.resolved_per_raw", "ratio"},
    {"weights.attach_us", "us"},
    {"cdi.sweep_us", "us"},
    {"cdi.baseline_us", "us"},
    {"cdi.compute_vm_p50_us", "us"},
    {"cdi.compute_vm_p99_us", "us"},
    {"cdi.event_rows_us", "us"},
    {"cdi.fold_us", "us"},
    {"cdi.job_parallel_eff", "ratio"},
    {"cdi.drilldown_ms", "ms"},
    {"stream.ingest_p50_us", "us"},
    {"stream.ingest_p99_us", "us"},
    {"stream.recompute_ms", "ms"},
    {"stream.assemble_ms", "ms"},
    {"stream.vms_recomputed_per_pull", "count"},
    {"shard.ingest_us", "us"},
    {"shard.flush_ms", "ms"},
    {"shard.gather_ms", "ms"},
    {"shard.gathers", "count"},
    {"shard.degraded_gathers", "count"},
    {"serve.pull_ms", "ms"},
    {"serve.hit_us", "us"},
    {"serve.miss_ms", "ms"},
    {"serve.queries", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cube_answer_ratio", "ratio"},
    {"driver.gen_lag_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "cdi_bench: %s\nusage: cdi_bench --workload "
               "<batch_day|stream_fresh|shard_dashboard> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

template <size_t N>
bool PrintResult(const Report& report, const MetricDef (&defs)[N],
                 bool missing_is_zero) {
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = report.metrics.find(def.name);
    if (it == report.metrics.end() && !missing_is_zero) {
      std::fprintf(stderr, "cdi_bench: metric %s was not measured\n",
                   def.name);
      return false;
    }
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "cdi_bench: metric %s is not finite\n", def.name);
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return true;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0 && cfg.seconds <= 600)) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  Report report;
  Status status;
  if (cfg.workload == "batch_day") {
    status = RunBatchDay(cfg, &report);
  } else if (cfg.workload == "stream_fresh") {
    status = RunStreamFresh(cfg, &report);
  } else if (cfg.workload == "shard_dashboard") {
    status = RunShardDashboard(cfg, &report);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "cdi_bench: %s\n", note.c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "cdi_bench: run failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (cfg.trace && !cfg.trace_out.empty()) {
    if (!Spans().WriteChromeTrace(cfg.trace_out)) {
      std::fprintf(stderr, "cdi_bench: cannot write %s\n",
                   cfg.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "cdi_bench: %zu spans written to %s\n",
                 Spans().size(), cfg.trace_out.c_str());
  }
  const bool printed = cfg.trace ? PrintResult(report, kPerLayer, true)
                                 : PrintResult(report, kEndToEnd, false);
  if (!printed) return 1;
  return report.correct && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cdibench

int main(int argc, char** argv) { return cdibench::Main(argc, argv); }
