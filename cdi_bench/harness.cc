#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <set>
#include <thread>

#include "cdi/baselines.h"
#include "cdi/drilldown.h"
#include "cdi/vm_cdi.h"
#include "chaos/quarantine.h"
#include "common/interner.h"

namespace cdibench {
namespace {

thread_local std::optional<TimedSource::PullInfo> t_pull;

Clock::duration FromSecs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string DiffCdi(const VmCdi& got, const VmCdi& want) {
  if (!SameBits(got.unavailability, want.unavailability)) return "cdi_u";
  if (!SameBits(got.performance, want.performance)) return "cdi_p";
  if (!SameBits(got.control_plane, want.control_plane)) return "cdi_c";
  if (got.service_time != want.service_time) return "service_time";
  return "";
}

std::vector<const VmCdiRecord*> ById(const std::vector<VmCdiRecord>& rows) {
  std::vector<const VmCdiRecord*> out;
  out.reserve(rows.size());
  for (const VmCdiRecord& r : rows) out.push_back(&r);
  std::sort(out.begin(), out.end(),
            [](const VmCdiRecord* a, const VmCdiRecord* b) {
              return a->vm_id < b->vm_id;
            });
  return out;
}

}  // namespace

size_t Cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

EventWeightModel MakeWeights() {
  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230}}, 4);
  return EventWeightModel::Build(std::move(ticket_model).value(), {}).value();
}

StatusOr<Fleet> BuildFleet(int ncs_per_cluster, uint64_t seed) {
  FleetSpec spec;
  spec.regions = 2;
  spec.azs_per_region = 2;
  spec.clusters_per_az = 2;
  spec.ncs_per_cluster = ncs_per_cluster;
  spec.vms_per_nc = 8;
  spec.seed = seed;
  return Fleet::Build(spec);
}

Status InjectDay(const Fleet& fleet, const EventCatalog& catalog,
                 const FaultRates& rates, uint64_t seed, EventLog* log) {
  Rng rng(seed);
  FaultInjector injector(&catalog, &rng);
  return injector.InjectDay(fleet, kDayStart, rates, log).status();
}

StatusOr<std::vector<RawEvent>> GenerateDay(const Fleet& fleet,
                                            const EventCatalog& catalog,
                                            const FaultRates& rates,
                                            uint64_t seed) {
  EventLog scratch;
  CDIBOT_RETURN_IF_ERROR(InjectDay(fleet, catalog, rates, seed, &scratch));
  return scratch.Search(Interval(kDay.start - kEventSearchMargin,
                                 kDay.end + kEventSearchMargin));
}

std::vector<serve::CdiQuery> DashboardBattery(serve::Consistency fleet_tile,
                                              serve::Consistency others) {
  std::vector<serve::CdiQuery> battery(4);
  battery[0].consistency = fleet_tile;
  battery[1].group_by = {"region"};
  battery[2].group_by = {"region", "az"};
  battery[3].group_by = {"az"};
  battery[3].filter = {{"region", "r0"}};
  for (size_t i = 1; i < battery.size(); ++i) battery[i].consistency = others;
  return battery;
}

StatusOr<DailyCdiResult> TimedSource::Pull(const Deadline& deadline) {
  const Clock::time_point start = Clock::now();
  const uint64_t writes_before = writes_.load();
  StatusOr<DailyCdiResult> result = Status::Internal("pull did not run");
  double recompute_ms = -1;
  double assemble_ms = -1;
  if (engine_ != nullptr && Spans().enabled() && deadline.IsInfinite()) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<VmCdi> drained = engine_->FleetCdi();
    const Clock::time_point t1 = Clock::now();
    result = drained.ok() ? engine_->Snapshot()
                          : StatusOr<DailyCdiResult>(drained.status());
    const Clock::time_point t2 = Clock::now();
    Spans().Add("stream.recompute", t0, t1);
    Spans().Add("stream.assemble", t1, t2);
    recompute_ms = Ms(t1 - t0);
    assemble_ms = Ms(t2 - t1);
  } else {
    result = inner_->Pull(deadline);
  }
  const Clock::time_point end = Clock::now();
  if (Spans().enabled()) Spans().Add("serve.pull", start, end);
  // Only a VM that an event dirtied while the pull ran may be deferred.
  PullInfo info{.start = start, .problem = {}};
  const uint64_t concurrent_writes = writes_.load() - writes_before;
  if (result.ok() && result->vms_deferred > concurrent_writes) {
    info.problem = std::to_string(result->vms_deferred) +
                   " VMs deferred with " + std::to_string(concurrent_writes) +
                   " events written during the pull";
  }
  t_pull = std::move(info);
  std::lock_guard<std::mutex> lock(mu_);
  timings_.pull_ms.push_back(Ms(end - start));
  if (recompute_ms >= 0) {
    timings_.recompute_ms.push_back(recompute_ms);
    timings_.assemble_ms.push_back(assemble_ms);
  }
  return result;
}

std::optional<TimedSource::PullInfo> TimedSource::TakeThreadPull() {
  std::optional<PullInfo> out = std::move(t_pull);
  t_pull.reset();
  return out;
}

TimedSource::Timings TimedSource::TakeTimings() {
  std::lock_guard<std::mutex> lock(mu_);
  Timings out = std::move(timings_);
  timings_ = Timings{};
  return out;
}

std::string CheckResponse(const StatusOr<serve::CdiQueryResponse>& response,
                          const std::optional<TimedSource::PullInfo>& pull) {
  if (!response.ok()) return response.status().ToString();
  if (response->quality.degraded) return "degraded data quality";
  if (pull.has_value() && !pull->problem.empty()) return pull->problem;
  return "";
}

PhaseResult RunPhase(const WriterSpec& writer, size_t* cursor,
                     const ReaderSpec& readers, double seconds) {
  PhaseResult out;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point end = start + FromSecs(seconds);
  // Ticks due before `end` may still be sent this long after it; whatever
  // is unsent then is a backlog that grew, and counts as failed.
  const Clock::time_point drain_limit = end + std::chrono::milliseconds(250);
  const Clock::duration period =
      FromSecs(static_cast<double>(writer.burst) / writer.events_per_s);

  struct Tick {
    Clock::time_point due;
    Clock::time_point done;
    size_t events;
  };
  std::vector<Tick> ticks;
  std::thread writer_thread([&] {
    const std::vector<RawEvent>& ev = writer.events;
    for (size_t k = 0; *cursor < ev.size(); ++k) {
      const Clock::time_point due = start + period * static_cast<int64_t>(k);
      if (due >= end) break;
      Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      if (now > drain_limit) {
        // Count every event due before `end` that never went out.
        for (size_t c = *cursor, j = k; c < ev.size(); c += writer.burst, ++j) {
          if (start + period * static_cast<int64_t>(j) >= end) break;
          out.events_unsent += std::min(writer.burst, ev.size() - c);
        }
        break;
      }
      const size_t b = *cursor;
      const size_t e = std::min(b + writer.burst, ev.size());
      const Status st = writer.send(ev.data() + b, ev.data() + e);
      const Clock::time_point done = Clock::now();
      if (!st.ok()) {
        out.send_failures += e - b;
        if (out.failure_notes.size() < 3) {
          out.failure_notes.push_back("send: " + st.ToString());
        }
      }
      ticks.push_back({due, done, e - b});
      out.lag_ms.push_back(Ms(now - due));
      *cursor = e;
    }
  });

  struct PullAnswer {
    Clock::time_point pull_start;
    Clock::time_point done;
  };
  std::mutex mu;
  std::vector<PullAnswer> pulls;
  std::atomic<bool> stop{false};
  std::vector<std::thread> reader_threads;
  for (int c = 0; c < readers.clients; ++c) {
    reader_threads.emplace_back([&, c] {
      PhaseResult local;
      std::vector<PullAnswer> local_pulls;
      const size_t n = readers.battery.size();
      for (size_t i = static_cast<size_t>(c); !stop.load(); ++i) {
        const serve::CdiQuery& query = readers.battery[i % n];
        TimedSource::TakeThreadPull();
        const Clock::time_point t0 = Clock::now();
        const auto response = readers.service->Query(query);
        const Clock::time_point t1 = Clock::now();
        const std::optional<TimedSource::PullInfo> pull =
            TimedSource::TakeThreadPull();
        if (Spans().enabled()) Spans().Add("serve.query", t0, t1, i % n);
        const double us = Us(t1 - t0);
        ++local.queries;
        local.query_us.push_back(us);
        const std::string problem = CheckResponse(response, pull);
        if (!problem.empty()) {
          ++local.query_failures;
          if (local.failure_notes.size() < 3) {
            local.failure_notes.push_back("query: " + problem);
          }
        } else {
          if (response->served_from_cache) {
            ++local.cache_hits;
            local.hit_us.push_back(us);
          }
          // A cache hit replays a response that may itself have come
          // from the cube; count each answer once, at its first source.
          if (response->served_from_cube && !response->served_from_cache) {
            ++local.cube_answers;
          }
        }
        if (pull.has_value()) {
          local.miss_us.push_back(us);
          local_pulls.push_back({pull->start, t1});
        }
        if (readers.think.count() > 0) std::this_thread::sleep_for(readers.think);
      }
      std::lock_guard<std::mutex> lock(mu);
      out.queries += local.queries;
      out.query_failures += local.query_failures;
      out.cache_hits += local.cache_hits;
      out.cube_answers += local.cube_answers;
      out.query_us.insert(out.query_us.end(), local.query_us.begin(),
                          local.query_us.end());
      out.hit_us.insert(out.hit_us.end(), local.hit_us.begin(),
                        local.hit_us.end());
      out.miss_us.insert(out.miss_us.end(), local.miss_us.begin(),
                         local.miss_us.end());
      for (std::string& note : local.failure_notes) {
        if (out.failure_notes.size() < 6) out.failure_notes.push_back(note);
      }
      pulls.insert(pulls.end(), local_pulls.begin(), local_pulls.end());
    });
  }
  std::this_thread::sleep_until(end);
  writer_thread.join();
  stop.store(true);
  for (std::thread& t : reader_threads) t.join();
  out.seconds = Secs(Clock::now() - start);

  for (const Tick& t : ticks) out.events_due += t.events;
  out.events_due += out.events_unsent;

  // Freshness: an event is reflected by the earliest-completing answer
  // whose pull began after the event's send returned.
  std::sort(pulls.begin(), pulls.end(),
            [](const PullAnswer& a, const PullAnswer& b) {
              return a.pull_start < b.pull_start;
            });
  std::vector<Clock::time_point> earliest_done(pulls.size());
  for (size_t i = pulls.size(); i-- > 0;) {
    earliest_done[i] = i + 1 < pulls.size()
                           ? std::min(pulls[i].done, earliest_done[i + 1])
                           : pulls[i].done;
  }
  for (const Tick& t : ticks) {
    const auto it = std::upper_bound(
        pulls.begin(), pulls.end(), t.done,
        [](Clock::time_point v, const PullAnswer& p) {
          return v < p.pull_start;
        });
    if (it == pulls.end()) continue;
    const double ms = Ms(earliest_done[it - pulls.begin()] - t.due);
    out.fresh_ms.insert(out.fresh_ms.end(), t.events, ms);
  }
  return out;
}

std::string DiffResults(const DailyCdiResult& got,
                        const DailyCdiResult& want) {
  if (std::string d = DiffCdi(got.fleet, want.fleet); !d.empty()) {
    return "fleet " + d;
  }
  const UnavailabilityStats& gb = got.fleet_baseline;
  const UnavailabilityStats& wb = want.fleet_baseline;
  if (!SameBits(gb.downtime_percentage, wb.downtime_percentage) ||
      !SameBits(gb.annual_interruption_rate, wb.annual_interruption_rate) ||
      gb.mtbf != wb.mtbf || gb.mttr != wb.mttr ||
      gb.interruption_count != wb.interruption_count ||
      gb.downtime != wb.downtime) {
    return "fleet baseline";
  }
  if (got.vms_evaluated != want.vms_evaluated ||
      got.per_vm.size() != want.per_vm.size()) {
    return "evaluated VM count " + std::to_string(got.per_vm.size()) +
           " vs " + std::to_string(want.per_vm.size());
  }
  const auto g = ById(got.per_vm);
  const auto w = ById(want.per_vm);
  for (size_t i = 0; i < g.size(); ++i) {
    if (g[i]->vm_id != w[i]->vm_id) return "vm set differs at " + w[i]->vm_id;
    if (std::string d = DiffCdi(g[i]->cdi, w[i]->cdi); !d.empty()) {
      return "vm " + w[i]->vm_id + " " + d;
    }
    if (g[i]->dims != w[i]->dims ||
        g[i]->quality.events_quarantined != w[i]->quality.events_quarantined ||
        g[i]->quality.degraded != w[i]->quality.degraded) {
      return "vm " + w[i]->vm_id + " dims/quality";
    }
  }
  if (got.per_event.size() != want.per_event.size()) {
    return "per-event row count";
  }
  return "";
}

void SpreadPool(ThreadPool* pool) {
  const size_t want = std::min(pool->num_threads() + 1, Cores());
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < give_up) {
    std::mutex mu;
    std::set<int> cpus;
    pool->ParallelFor(4 * (pool->num_threads() + 1), [&](size_t) {
      const Clock::time_point until = Clock::now() + std::chrono::milliseconds(2);
      while (Clock::now() < until) {
      }
      std::lock_guard<std::mutex> lock(mu);
      cpus.insert(sched_getcpu());
    });
    if (cpus.size() >= want) return;
  }
}

StatusOr<DailyCdiResult> RunJobRepeated(const DailyCdiJob& job,
                                        const std::vector<VmServiceInfo>& vms,
                                        int reps, std::vector<double>* wall_s) {
  StatusOr<DailyCdiResult> result = Status::InvalidArgument("no repetitions");
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<DailyCdiResult> run = job.Run(vms, kDay);
    const Clock::time_point t1 = Clock::now();
    if (Spans().enabled()) Spans().Add("cdi.daily_job", t0, t1, r);
    if (!run.ok()) return run;
    wall_s->push_back(Secs(t1 - t0));
    result = std::move(run);  // frees the previous result outside the timing
  }
  return result;
}

double TimedAppend(const std::vector<RawEvent>& events, EventLog* log) {
  const Clock::time_point t0 = Clock::now();
  log->AppendBatch(events);
  const Clock::time_point t1 = Clock::now();
  if (Spans().enabled()) Spans().Add("storage.append_batch", t0, t1);
  return Ratio(Secs(t1 - t0) * 1e9, static_cast<double>(events.size()));
}

Status ReplayPerVmLayers(const EventLog& log,
                         const std::vector<VmServiceInfo>& vms,
                         const EventCatalog& catalog,
                         const EventWeightModel& weights, double job_wall_s,
                         size_t job_threads, Report* report) {
  // Per-VM spans for the first VMs only: enough to read one VM's stages in
  // the trace viewer without a million-span file.
  constexpr size_t kSpannedVms = 256;
  const PeriodResolver resolver(&catalog);
  CanonicalCdiFold fold;
  std::vector<EventRef> kept;
  std::vector<double> compute_us;
  double query_s = 0, validate_s = 0, resolve_s = 0, attach_s = 0;
  double sweep_s = 0, baseline_s = 0, fold_s = 0;
  double raw = 0, resolved_total = 0;
  for (size_t i = 0; i < vms.size(); ++i) {
    const VmServiceInfo& vm = vms[i];
    const Interval service = vm.service_period.ClampTo(kDay);
    if (service.empty()) continue;
    const Clock::time_point t0 = Clock::now();
    const EventSpan span =
        log.Query(EventQuery{.interval = service,
                             .target_id = GlobalInterner().Lookup(vm.vm_id),
                             .margin = kEventSearchMargin});
    const Clock::time_point t1 = Clock::now();
    kept.clear();
    kept.reserve(span.UpperBound());
    span.ForEach([&](const EventRef& ev) {
      raw += 1;
      if (!chaos::ValidateEventView(ev).has_value()) kept.push_back(ev);
    });
    const Clock::time_point t2 = Clock::now();
    ResolveStats stats;
    auto resolved = resolver.ResolveRefs(kept, service, &stats);
    const Clock::time_point t3 = Clock::now();
    if (!resolved.ok()) return resolved.status();
    auto weighted = AttachWeights(*resolved, weights);
    const Clock::time_point t4 = Clock::now();
    if (!weighted.ok()) return weighted.status();
    auto cdi = ComputeVmCdi(*weighted, service);
    const Clock::time_point t5 = Clock::now();
    if (!cdi.ok()) return cdi.status();
    auto baseline = ComputeUnavailabilityStats(*resolved, service);
    const Clock::time_point t6 = Clock::now();
    if (!baseline.ok()) return baseline.status();
    auto whole = ComputeVmDailyCdi(span, vm, kDay, resolver, weights);
    const Clock::time_point t7 = Clock::now();
    if (!whole.ok()) return whole.status();
    fold.Add(vm.vm_id, whole->record.cdi);
    const Clock::time_point t8 = Clock::now();

    resolved_total += static_cast<double>(resolved->size());
    query_s += Secs(t1 - t0);
    validate_s += Secs(t2 - t1);
    resolve_s += Secs(t3 - t2);
    attach_s += Secs(t4 - t3);
    sweep_s += Secs(t5 - t4);
    baseline_s += Secs(t6 - t5);
    compute_us.push_back(Us(t7 - t6));
    fold_s += Secs(t8 - t7);
    if (Spans().enabled() && i < kSpannedVms) {
      Spans().Add("storage.query", t0, t1, i);
      Spans().Add("chaos.validate", t1, t2, i);
      Spans().Add("event.resolve", t2, t3, i);
      Spans().Add("weights.attach", t3, t4, i);
      Spans().Add("cdi.sweep", t4, t5, i);
      Spans().Add("cdi.baseline", t5, t6, i);
      Spans().Add("cdi.compute_vm", t6, t7, i);
      Spans().Add("cdi.fold_add", t7, t8, i);
    }
  }
  const Clock::time_point f0 = Clock::now();
  (void)fold.Finalize();
  fold_s += Secs(Clock::now() - f0);

  const double n = static_cast<double>(compute_us.size());
  const auto per_vm_us = [&](double s) { return Ratio(s * 1e6, n); };
  const double stages_us = per_vm_us(validate_s + resolve_s + attach_s +
                                     sweep_s + baseline_s);
  report->Set("storage.query_us", per_vm_us(query_s));
  report->Set("chaos.validate_us", per_vm_us(validate_s));
  report->Set("event.resolve_us", per_vm_us(resolve_s));
  report->Set("event.raw_per_vm", Ratio(raw, n));
  report->Set("event.resolved_per_raw", Ratio(resolved_total, raw));
  report->Set("weights.attach_us", per_vm_us(attach_s));
  report->Set("cdi.sweep_us", per_vm_us(sweep_s));
  report->Set("cdi.baseline_us", per_vm_us(baseline_s));
  report->Set("cdi.compute_vm_p50_us", Percentile(compute_us, 0.5));
  report->Set("cdi.compute_vm_p99_us", Percentile(compute_us, 0.99));
  report->Set("cdi.event_rows_us", Mean(compute_us) - stages_us);
  report->Set("cdi.fold_us", per_vm_us(fold_s));
  report->Set("cdi.job_parallel_eff",
              Ratio(Sum(compute_us) / 1e6,
                    job_wall_s * static_cast<double>(job_threads)));
  return Status::OK();
}

void ReportServeLayers(const PhaseResult& phase,
                       const TimedSource::Timings& timings,
                       const std::vector<VmCdiRecord>& rows, Report* report) {
  const double queries = static_cast<double>(phase.queries);
  report->Set("serve.pull_ms", Mean(timings.pull_ms));
  report->Set("serve.hit_us", Median(phase.hit_us));
  report->Set("serve.miss_ms", Median(phase.miss_us) / 1e3);
  report->Set("serve.queries", queries);
  report->Set("serve.cache_hit_ratio",
              Ratio(static_cast<double>(phase.cache_hits), queries));
  report->Set("serve.cube_answer_ratio",
              Ratio(static_cast<double>(phase.cube_answers), queries));
  report->Set("driver.gen_lag_p99_ms", Percentile(phase.lag_ms, 0.99));

  std::vector<double> drill_ms;
  for (const serve::CdiQuery& q :
       DashboardBattery(serve::Consistency::kCached,
                        serve::Consistency::kCached)) {
    if (q.group_by.empty()) continue;
    const DrilldownQuery dq{.dimensions = q.group_by, .filter = q.filter};
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      auto drilled = RunDrilldown(rows, dq);
      const Clock::time_point t1 = Clock::now();
      if (!drilled.ok()) {
        report->Fail("drilldown: " + drilled.status().ToString());
        return;
      }
      if (Spans().enabled()) Spans().Add("cdi.drilldown", t0, t1);
      drill_ms.push_back(Ms(t1 - t0));
    }
  }
  report->Set("cdi.drilldown_ms", Mean(drill_ms));
}

void ReportServeEndToEnd(const PhaseResult& phase, Report* report) {
  report->Set("query_p50_us", Percentile(phase.query_us, 0.5));
  report->Set("query_p99_us", Percentile(phase.query_us, 0.99));
  report->Set("query_per_s",
              Ratio(static_cast<double>(phase.queries), phase.seconds));
  report->Set("fresh_p50_ms", Percentile(phase.fresh_ms, 0.5));
  report->Set("fresh_p99_ms", Percentile(phase.fresh_ms, 0.99));
  report->notes.push_back(
      "samples: queries=" + std::to_string(phase.query_us.size()) +
      " fresh_events=" + std::to_string(phase.fresh_ms.size()) +
      " pulls=" + std::to_string(phase.miss_us.size()) +
      " ticks=" + std::to_string(phase.lag_ms.size()));
}

void CountPhase(const PhaseResult& phase, Report* report) {
  report->attempted += phase.attempted();
  report->failed += phase.failed();
  for (const std::string& note : phase.failure_notes) {
    report->notes.push_back(note);
  }
  if (phase.events_unsent > 0) {
    report->notes.push_back("generator backlog: " +
                            std::to_string(phase.events_unsent) +
                            " events unsent at run end");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace cdibench
