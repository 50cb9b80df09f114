#ifndef CDI_BENCH_WORKLOADS_H_
#define CDI_BENCH_WORKLOADS_H_

#include "harness.h"

namespace cdibench {

/// Each workload fills `report` with its metrics and operation counts. A
/// non-OK status means the run could not complete (no result is printed).
Status RunBatchDay(const RunConfig& cfg, Report* report);
Status RunStreamFresh(const RunConfig& cfg, Report* report);
Status RunShardDashboard(const RunConfig& cfg, Report* report);

}  // namespace cdibench

#endif  // CDI_BENCH_WORKLOADS_H_
