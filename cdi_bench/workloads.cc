// The three workloads. Each one builds its inputs from the seed, sets up
// its topology three times (setup_s is the median), runs one measured
// phase, or an untraced and a traced half in a traced run, and then checks
// the final answer against a bit-exact reference.
//
//   batch_day        the nightly job: 65,536 VMs, ~100 raw events each;
//                    every dashboard refresh re-runs DailyCdiJob.
//   stream_fresh     live monitoring: 8,192 VMs on one streaming engine,
//                    a day replayed at a fixed rate, the fleet tile read
//                    kFresh.
//   shard_dashboard  read-heavy serving: the same fleet over 4 in-process
//                    shards, two dashboard clients at kCached, late bursts
//                    that advance the watermark on a fixed schedule.
#include "workloads.h"

#include <memory>

#include "common/thread_pool.h"
#include "shard/coordinator.h"

namespace cdibench {
namespace {

/// Set-ups per process (setup_s is their median; run.py takes the median
/// over its processes): one for the large fleet, whose set-up takes
/// seconds.
constexpr int kBatchSetups = 1;
constexpr int kServeSetups = 3;
/// Closing nightly-job repetitions of the serving workloads; the median
/// wall is their batch_events_per_s. A job over their 8,192 VMs takes
/// tens of ms, so it takes many to steady the median.
constexpr int kClosingJobs = 30;
/// Unmeasured load before the serving workloads' measured phases.
constexpr double kWarmupSeconds = 2;
/// Share of stream_fresh's day the engine holds before the writer starts.
constexpr double kStreamPrimedShare = 0.8;

serve::CdiQuery FreshDetailQuery() {
  serve::CdiQuery q;
  q.consistency = serve::Consistency::kFresh;
  q.include_detail = true;
  return q;
}

/// The measured phases of one run: the untraced one, and in a traced run
/// a traced one after it (each then gets half the run).
struct Phases {
  PhaseResult warmup;
  PhaseResult plain;
  PhaseResult traced;
  TimedSource::Timings traced_timings;
};

/// `warmup_s` of the same load, unmeasured, come first: the threads the
/// library creates can share one core for a second or more before the
/// scheduler spreads them. `before_phase(traced)` runs right before each
/// measured phase.
Phases RunPhases(const RunConfig& cfg, double warmup_s,
                 const WriterSpec& writer, size_t* cursor,
                 const ReaderSpec& readers, TimedSource* source,
                 const std::function<void(bool traced)>& before_phase) {
  Phases p;
  if (warmup_s > 0) p.warmup = RunPhase(writer, cursor, readers, warmup_s);
  source->TakeTimings();
  before_phase(false);
  p.plain = RunPhase(writer, cursor, readers,
                     cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  source->TakeTimings();
  if (cfg.trace) {
    Spans().Enable();
    before_phase(true);
    p.traced = RunPhase(writer, cursor, readers, cfg.seconds / 2);
    p.traced_timings = source->TakeTimings();
  }
  return p;
}

/// Tracing overhead: traced minus untraced mean query latency, as a
/// percentage of the untraced one.
double TraceOverheadPct(const Phases& p) {
  return 100.0 * (Ratio(Mean(p.traced.query_us), Mean(p.plain.query_us)) - 1);
}

/// A kFresh answer with the full result attached, outside the measured
/// phases (set-up check, final answer): one more counted operation.
StatusOr<serve::CdiQueryResponse> FreshAnswer(serve::CdiQueryService* service,
                                              Report* report) {
  ++report->attempted;
  TimedSource::TakeThreadPull();
  auto response = service->Query(FreshDetailQuery());
  if (const std::string problem =
          CheckResponse(response, TimedSource::TakeThreadPull());
      !problem.empty()) {
    ++report->failed;
    return Status::Internal("fresh answer: " + problem);
  }
  return response;
}

/// The nightly job over the day a serving workload saw, run after its
/// topology is torn down: its median wall gives batch_events_per_s.
struct NightlyJob {
  EventLog log;
  double append_ns = 0;
  std::vector<double> wall_s;
  size_t threads = Cores();
  DailyCdiResult result;
};

Status RunNightlyJob(const std::vector<RawEvent>& events,
                     const std::vector<VmServiceInfo>& vms,
                     const EventCatalog& catalog,
                     const EventWeightModel& weights, NightlyJob* nightly,
                     Report* report) {
  nightly->append_ns = TimedAppend(events, &nightly->log);
  ThreadPool pool(nightly->threads);
  SpreadPool(&pool);
  const DailyCdiJob job(DailyCdiJob::Options{.log = &nightly->log,
                                             .catalog = &catalog,
                                             .weights = &weights,
                                             .pool = &pool,
                                             .min_parallel_rows = 1});
  CDIBOT_ASSIGN_OR_RETURN(
      nightly->result,
      RunJobRepeated(job, vms, kClosingJobs, &nightly->wall_s));
  report->attempted += nightly->wall_s.size();
  if (nightly->result.vms_failed > 0 || nightly->result.vms_deferred > 0) {
    report->failed += nightly->wall_s.size();
    report->Fail("nightly job left VMs failed or deferred");
  }
  report->Set("batch_events_per_s",
              static_cast<double>(nightly->log.size()) /
                  Median(nightly->wall_s));
  report->notes.push_back(
      "nightly job over " + std::to_string(nightly->log.size()) +
      " events: wall ms min " +
      std::to_string(Percentile(nightly->wall_s, 0) * 1e3) + " median " +
      std::to_string(Median(nightly->wall_s) * 1e3) + " max " +
      std::to_string(Percentile(nightly->wall_s, 1) * 1e3));
  return Status::OK();
}

/// Asks every battery query once, so the cache and cube are warm.
Status Prime(serve::CdiQueryService* service,
             const std::vector<serve::CdiQuery>& battery) {
  for (const serve::CdiQuery& q : battery) {
    const auto response = service->Query(q);
    if (const std::string problem =
            CheckResponse(response, TimedSource::TakeThreadPull());
        !problem.empty()) {
      return Status::Internal("priming: " + problem);
    }
  }
  return Status::OK();
}

void CheckAgainst(const DailyCdiResult& got, const DailyCdiResult& want,
                  const std::string& what, Report* report) {
  ++report->attempted;
  if (const std::string diff = DiffResults(got, want); !diff.empty()) {
    ++report->failed;
    report->Fail(what + ": " + diff);
  }
}

// ---------------------------------------------------------------- batch_day

/// Read source of the nightly path: a pull first syncs the late events the
/// writer staged into the event log (the SLS -> MaxCompute sync), then runs
/// the daily job over the whole fleet.
class DailyJobSource : public serve::CdiReadSource {
 public:
  DailyJobSource(EventLog* log, const DailyCdiJob* job,
                 const std::vector<VmServiceInfo>* vms)
      : log_(log), job_(job), vms_(vms) {}

  std::string_view name() const override { return "daily-job"; }
  /// The batch path has no event-time clock; its watermark counts staged
  /// events, so cached answers go stale once new data is waiting.
  TimePoint watermark() const override {
    return kDay.end + Duration::Millis(staged_total_.load());
  }
  StatusOr<DailyCdiResult> Pull(const Deadline& deadline) override {
    std::vector<RawEvent> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch.swap(staged_);
    }
    if (!batch.empty()) {
      const double ns = TimedAppend(batch, log_);
      std::lock_guard<std::mutex> lock(mu_);
      append_ns_.push_back(ns);
    }
    (void)deadline;
    const Clock::time_point t0 = Clock::now();
    auto result = job_->Run(*vms_, kDay);
    const Clock::time_point t1 = Clock::now();
    if (Spans().enabled()) Spans().Add("cdi.daily_job", t0, t1);
    if (result.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      job_wall_s_.push_back(Secs(t1 - t0));
      events_per_s_.push_back(static_cast<double>(log_->size()) /
                              Secs(t1 - t0));
    }
    return result;
  }
  StatusOr<VmCdi> QuickFleetCdi() override {
    return Status::Unimplemented("the nightly path has no partial merge");
  }

  /// Writer side: stages late events for the next pull.
  Status Stage(const RawEvent* begin, const RawEvent* end) {
    std::lock_guard<std::mutex> lock(mu_);
    staged_.insert(staged_.end(), begin, end);
    staged_total_ += end - begin;
    return Status::OK();
  }

  struct JobTimes {
    std::vector<double> wall_s;
    std::vector<double> events_per_s;
    std::vector<double> append_ns;
  };
  JobTimes Take() {
    std::lock_guard<std::mutex> lock(mu_);
    JobTimes out{std::move(job_wall_s_), std::move(events_per_s_),
                 std::move(append_ns_)};
    job_wall_s_.clear();
    events_per_s_.clear();
    append_ns_.clear();
    return out;
  }

 private:
  EventLog* log_;
  const DailyCdiJob* job_;
  const std::vector<VmServiceInfo>* vms_;
  std::atomic<int64_t> staged_total_{0};
  std::mutex mu_;
  std::vector<RawEvent> staged_;
  std::vector<double> job_wall_s_;
  std::vector<double> events_per_s_;
  std::vector<double> append_ns_;
};

}  // namespace

Status RunBatchDay(const RunConfig& cfg, Report* report) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const EventWeightModel weights = MakeWeights();
  struct Inputs {
    std::vector<VmServiceInfo> vms;
    EventLog log;
    std::vector<RawEvent> late;
  };
  std::unique_ptr<Inputs> in;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kBatchSetups; ++rep) {
    in.reset();  // one day in memory at a time
    const Clock::time_point t0 = Clock::now();
    CDIBOT_ASSIGN_OR_RETURN(const Fleet fleet, BuildFleet(1024, cfg.seed));
    auto next = std::make_unique<Inputs>();
    CDIBOT_ASSIGN_OR_RETURN(next->vms, fleet.ServiceInfos(kDay));
    CDIBOT_RETURN_IF_ERROR(InjectDay(fleet, catalog,
                                     BaselineRates().Scaled(150), cfg.seed,
                                     &next->log));
    // Late arrivals: one more baseline day, trickled in while the
    // dashboard refreshes.
    CDIBOT_ASSIGN_OR_RETURN(
        next->late, GenerateDay(fleet, catalog, BaselineRates(), cfg.seed + 1));
    setup_s.push_back(Secs(Clock::now() - t0));
    in = std::move(next);
  }
  report->Set("setup_s", Median(setup_s));

  ThreadPool pool(Cores());
  SpreadPool(&pool);
  const DailyCdiJob serial(DailyCdiJob::Options{
      .log = &in->log, .catalog = &catalog, .weights = &weights});
  const DailyCdiJob pooled(DailyCdiJob::Options{.log = &in->log,
                                                .catalog = &catalog,
                                                .weights = &weights,
                                                .pool = &pool,
                                                .min_parallel_rows = 1});
  DailyJobSource job_source(&in->log, &pooled, &in->vms);
  TimedSource source(&job_source);
  // The nightly path bypasses the serving layers: no cache, no cube.
  serve::CdiQueryService service(
      &source, serve::CdiQueryServiceOptions{.cache_entries = 0,
                                             .materialize_cubes = false,
                                             .metric_prefix = "bench"});
  {
    CDIBOT_ASSIGN_OR_RETURN(const DailyCdiResult reference,
                            serial.Run(in->vms, kDay));
    CDIBOT_ASSIGN_OR_RETURN(const serve::CdiQueryResponse first,
                            FreshAnswer(&service, report));
    CheckAgainst(*first.detail, reference, "pooled job vs serial job", report);
  }

  WriterSpec writer{.events = std::move(in->late),
                    .events_per_s = 1000,
                    .burst = 1,
                    .send = [&](const RawEvent* b, const RawEvent* e) {
                      return job_source.Stage(b, e);
                    }};
  serve::CdiQuery fleet_tile;
  fleet_tile.consistency = serve::Consistency::kFresh;
  const ReaderSpec readers{
      .service = &service, .battery = {fleet_tile}, .clients = 1};
  size_t cursor = 0;
  DailyJobSource::JobTimes plain_jobs;
  const Phases p =
      // The set-up check's pooled job already warmed the pool.
      RunPhases(cfg, 0, writer, &cursor, readers, &source, [&](bool traced) {
        DailyJobSource::JobTimes before = job_source.Take();
        if (traced) plain_jobs = std::move(before);
      });
  DailyJobSource::JobTimes traced_jobs = job_source.Take();
  if (!cfg.trace) plain_jobs = std::move(traced_jobs);
  CountPhase(p.warmup, report);
  CountPhase(p.plain, report);
  CountPhase(p.traced, report);

  report->Set("batch_events_per_s", Median(plain_jobs.events_per_s));
  ReportServeEndToEnd(p.plain, report);
  report->notes.push_back("batch_day: " + std::to_string(in->log.size()) +
                          " raw events at end, " +
                          std::to_string(plain_jobs.wall_s.size()) +
                          " jobs in the untraced phase");
  if (cfg.trace) {
    CDIBOT_ASSIGN_OR_RETURN(const serve::CdiQueryResponse last,
                            FreshAnswer(&service, report));
    report->Set("storage.append_ns", Mean(traced_jobs.append_ns));
    ReportServeLayers(p.traced, p.traced_timings, last.detail->per_vm,
                      report);
    report->Set("trace.overhead_pct", TraceOverheadPct(p));
    CDIBOT_RETURN_IF_ERROR(ReplayPerVmLayers(
        in->log, in->vms, catalog, weights, Median(traced_jobs.wall_s),
        pool.num_threads(), report));
  }
  report->Set("peak_rss_mb", PeakRssMb());
  return Status::OK();
}

// ------------------------------------------------------------- stream_fresh

Status RunStreamFresh(const RunConfig& cfg, Report* report) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const EventWeightModel weights = MakeWeights();
  // Generator threads (one writer, one refresher) plus engine pool threads
  // stay within the cores.
  const size_t engine_threads = Cores() > 3 ? Cores() - 2 : 1;
  const std::vector<serve::CdiQuery> battery = DashboardBattery(
      serve::Consistency::kFresh, serve::Consistency::kCached);
  struct Fixture {
    std::vector<VmServiceInfo> vms;
    std::vector<RawEvent> primed;
    std::vector<RawEvent> rest;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<StreamingCdiEngine> engine;
    std::unique_ptr<serve::EngineSource> inner;
    std::unique_ptr<TimedSource> source;
    std::unique_ptr<serve::CdiQueryService> service;
  };
  std::unique_ptr<Fixture> fx;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kServeSetups; ++rep) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    CDIBOT_ASSIGN_OR_RETURN(const Fleet fleet, BuildFleet(128, cfg.seed));
    auto next = std::make_unique<Fixture>();
    CDIBOT_ASSIGN_OR_RETURN(next->vms, fleet.ServiceInfos(kDay));
    CDIBOT_ASSIGN_OR_RETURN(
        std::vector<RawEvent> day,
        GenerateDay(fleet, catalog, BaselineRates().Scaled(20), cfg.seed));
    // The engine starts with most of the day; the writer replays the rest,
    // so a pull costs about the same at the end of a run as at its start.
    const auto cut = day.begin() + static_cast<std::ptrdiff_t>(
                                       day.size() * kStreamPrimedShare);
    next->primed.assign(day.begin(), cut);
    next->rest.assign(cut, day.end());
    next->pool = std::make_unique<ThreadPool>(engine_threads);
    StreamingCdiOptions options;
    options.window = kDay;
    options.pool = next->pool.get();
    CDIBOT_ASSIGN_OR_RETURN(
        StreamingCdiEngine engine,
        StreamingCdiEngine::Create(&catalog, &weights, options));
    next->engine = std::make_unique<StreamingCdiEngine>(std::move(engine));
    for (const VmServiceInfo& vm : next->vms) {
      CDIBOT_RETURN_IF_ERROR(next->engine->RegisterVm(vm));
    }
    CDIBOT_RETURN_IF_ERROR(next->engine->IngestBatch(next->primed));
    next->inner = std::make_unique<serve::EngineSource>(next->engine.get());
    next->source = std::make_unique<TimedSource>(next->inner.get());
    next->service =
        std::make_unique<serve::CdiQueryService>(next->source.get());
    CDIBOT_RETURN_IF_ERROR(Prime(next->service.get(), battery));
    setup_s.push_back(Secs(Clock::now() - t0));
    fx = std::move(next);
  }
  report->Set("setup_s", Median(setup_s));

  std::vector<double> ingest_us;
  WriterSpec writer{
      .events = std::move(fx->rest),
      .events_per_s = 1000,
      .burst = 4,
      .send = [&](const RawEvent* b, const RawEvent* e) -> Status {
        for (const RawEvent* ev = b; ev != e; ++ev) {
          const Clock::time_point t0 = Clock::now();
          fx->source->NoteWrite();
          const Status st = fx->engine->Ingest(*ev);
          fx->source->NoteWrite();
          CDIBOT_RETURN_IF_ERROR(st);
          if (Spans().enabled()) {
            const Clock::time_point t1 = Clock::now();
            Spans().Add("stream.ingest", t0, t1);
            ingest_us.push_back(Us(t1 - t0));
          }
        }
        return Status::OK();
      }};
  const ReaderSpec readers{
      .service = fx->service.get(), .battery = battery, .clients = 1};
  size_t cursor = 0;
  size_t recomputed_before = 0;
  fx->source->SplitPulls(fx->engine.get());
  const Phases p = RunPhases(cfg, kWarmupSeconds, writer, &cursor, readers,
                             fx->source.get(),
                             [&](bool) {
                               recomputed_before =
                                   fx->engine->stats().vms_recomputed;
                             });
  CountPhase(p.warmup, report);
  CountPhase(p.plain, report);
  CountPhase(p.traced, report);
  const size_t recomputed_traced =
      fx->engine->stats().vms_recomputed - recomputed_before;

  CDIBOT_ASSIGN_OR_RETURN(const serve::CdiQueryResponse last,
                          FreshAnswer(fx->service.get(), report));
  // Reference: the nightly job over an event log of the same events.
  std::vector<RawEvent> all = std::move(fx->primed);
  all.insert(all.end(), writer.events.begin(),
             writer.events.begin() + static_cast<std::ptrdiff_t>(cursor));
  const std::vector<VmServiceInfo> vms = std::move(fx->vms);
  fx.reset();
  NightlyJob nightly;
  CDIBOT_RETURN_IF_ERROR(
      RunNightlyJob(all, vms, catalog, weights, &nightly, report));
  CheckAgainst(*last.detail, nightly.result,
               "final kFresh answer vs daily job", report);

  ReportServeEndToEnd(p.plain, report);
  if (cfg.trace) {
    const TimedSource::Timings& t = p.traced_timings;
    report->Set("stream.ingest_p50_us", Percentile(ingest_us, 0.5));
    report->Set("stream.ingest_p99_us", Percentile(ingest_us, 0.99));
    report->Set("stream.recompute_ms", Mean(t.recompute_ms));
    report->Set("stream.assemble_ms", Mean(t.assemble_ms));
    report->Set("stream.vms_recomputed_per_pull",
                Ratio(static_cast<double>(recomputed_traced),
                      static_cast<double>(t.pull_ms.size())));
    report->Set("storage.append_ns", nightly.append_ns);
    ReportServeLayers(p.traced, t, last.detail->per_vm, report);
    report->Set("trace.overhead_pct", TraceOverheadPct(p));
    CDIBOT_RETURN_IF_ERROR(ReplayPerVmLayers(
        nightly.log, vms, catalog, weights, Median(nightly.wall_s),
        nightly.threads, report));
  }
  report->Set("peak_rss_mb", PeakRssMb());
  return Status::OK();
}

// ---------------------------------------------------------- shard_dashboard

Status RunShardDashboard(const RunConfig& cfg, Report* report) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const EventWeightModel weights = MakeWeights();
  // Two readers and one writer plus the shards' shared engine pool.
  const size_t engine_threads = Cores() > 4 ? Cores() - 3 : 1;
  const std::vector<serve::CdiQuery> battery = DashboardBattery(
      serve::Consistency::kCached, serve::Consistency::kCached);
  struct Fixture {
    std::vector<VmServiceInfo> vms;
    std::vector<RawEvent> day;
    std::vector<RawEvent> late;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<shard::ShardCoordinator> coord;
    std::unique_ptr<serve::CoordinatorSource> inner;
    std::unique_ptr<TimedSource> source;
    std::unique_ptr<serve::CdiQueryService> service;
  };
  std::unique_ptr<Fixture> fx;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kServeSetups; ++rep) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    CDIBOT_ASSIGN_OR_RETURN(const Fleet fleet, BuildFleet(128, cfg.seed));
    auto next = std::make_unique<Fixture>();
    CDIBOT_ASSIGN_OR_RETURN(next->vms, fleet.ServiceInfos(kDay));
    CDIBOT_ASSIGN_OR_RETURN(
        next->day,
        GenerateDay(fleet, catalog, BaselineRates().Scaled(20), cfg.seed));
    CDIBOT_ASSIGN_OR_RETURN(
        next->late, GenerateDay(fleet, catalog, BaselineRates().Scaled(2),
                                cfg.seed + 1));
    next->pool = std::make_unique<ThreadPool>(engine_threads);
    shard::ShardTopologyOptions topo;
    topo.num_shards = 4;
    topo.engine.window = kDay;
    topo.engine.pool = next->pool.get();
    topo.transport = shard::ShardTransportMode::kInProcess;
    CDIBOT_ASSIGN_OR_RETURN(
        next->coord,
        shard::ShardCoordinator::Create(&catalog, &weights, topo));
    CDIBOT_RETURN_IF_ERROR(next->coord->RegisterVms(next->vms));
    CDIBOT_RETURN_IF_ERROR(next->coord->IngestBatch(next->day));
    CDIBOT_RETURN_IF_ERROR(next->coord->Flush());
    next->coord->Watermark();
    next->inner =
        std::make_unique<serve::CoordinatorSource>(next->coord.get());
    next->source = std::make_unique<TimedSource>(next->inner.get());
    next->service =
        std::make_unique<serve::CdiQueryService>(next->source.get());
    CDIBOT_RETURN_IF_ERROR(Prime(next->service.get(), battery));
    setup_s.push_back(Secs(Clock::now() - t0));
    fx = std::move(next);
  }
  report->Set("setup_s", Median(setup_s));

  std::vector<double> ingest_us, flush_ms;
  int64_t tick = 0;
  WriterSpec writer{
      .events = std::move(fx->late),
      .events_per_s = 200,
      .burst = 40,
      .send = [&](const RawEvent* b, const RawEvent* e) -> Status {
        shard::ShardCoordinator& coord = *fx->coord;
        const Clock::time_point t0 = Clock::now();
        for (const RawEvent* ev = b; ev != e; ++ev) {
          CDIBOT_RETURN_IF_ERROR(coord.Ingest(*ev));
        }
        const Clock::time_point t1 = Clock::now();
        CDIBOT_RETURN_IF_ERROR(coord.Flush());
        const Clock::time_point t2 = Clock::now();
        // Late data ticks the watermark clock; the coordinator's gossiped
        // minimum (what the cache keys on) refreshes on the ping.
        CDIBOT_RETURN_IF_ERROR(
            coord.AdvanceWatermarkTo(kDay.end + Duration::Minutes(++tick)));
        coord.Watermark();
        if (Spans().enabled()) {
          Spans().Add("shard.ingest", t0, t1, static_cast<uint64_t>(tick));
          Spans().Add("shard.flush", t1, t2, static_cast<uint64_t>(tick));
          ingest_us.push_back(Us(t1 - t0) / static_cast<double>(e - b));
          flush_ms.push_back(Ms(t2 - t1));
        }
        return Status::OK();
      }};
  // Dashboard clients pause between refreshes; without a pause two
  // clients would spin on cache hits and no gather would reach the tail.
  const ReaderSpec readers{.service = fx->service.get(),
                           .battery = battery,
                           .clients = 2,
                           .think = std::chrono::milliseconds(5)};
  size_t cursor = 0;
  shard::ShardFleetStats before{};
  const Phases p =
      RunPhases(cfg, kWarmupSeconds, writer, &cursor, readers,
                fx->source.get(), [&](bool) { before = fx->coord->stats(); });
  CountPhase(p.warmup, report);
  CountPhase(p.plain, report);
  CountPhase(p.traced, report);
  const shard::ShardFleetStats after = fx->coord->stats();

  CDIBOT_ASSIGN_OR_RETURN(const serve::CdiQueryResponse last,
                          FreshAnswer(fx->service.get(), report));
  std::vector<RawEvent> all = fx->day;
  all.insert(all.end(), writer.events.begin(),
             writer.events.begin() + static_cast<std::ptrdiff_t>(cursor));
  {
    // Reference: one single-node engine over the same inputs.
    ThreadPool ref_pool(Cores());
    StreamingCdiOptions options;
    options.window = kDay;
    options.pool = &ref_pool;
    CDIBOT_ASSIGN_OR_RETURN(
        StreamingCdiEngine single,
        StreamingCdiEngine::Create(&catalog, &weights, options));
    for (const VmServiceInfo& vm : fx->vms) {
      CDIBOT_RETURN_IF_ERROR(single.RegisterVm(vm));
    }
    CDIBOT_RETURN_IF_ERROR(single.IngestBatch(all));
    CDIBOT_ASSIGN_OR_RETURN(const DailyCdiResult want, single.Snapshot());
    CheckAgainst(*last.detail, want, "sharded kFresh answer vs single node",
                 report);
  }
  const std::vector<VmServiceInfo> vms = std::move(fx->vms);
  fx.reset();
  NightlyJob nightly;
  CDIBOT_RETURN_IF_ERROR(
      RunNightlyJob(all, vms, catalog, weights, &nightly, report));
  ReportServeEndToEnd(p.plain, report);
  if (cfg.trace) {
    report->Set("shard.ingest_us", Mean(ingest_us));
    report->Set("shard.flush_ms", Mean(flush_ms));
    report->Set("shard.gather_ms", Mean(p.traced_timings.pull_ms));
    report->Set("shard.gathers",
                static_cast<double>(after.gathers - before.gathers));
    report->Set("shard.degraded_gathers",
                static_cast<double>(after.degraded_gathers -
                                    before.degraded_gathers));
    report->Set("storage.append_ns", nightly.append_ns);
    ReportServeLayers(p.traced, p.traced_timings, last.detail->per_vm,
                      report);
    report->Set("trace.overhead_pct", TraceOverheadPct(p));
    CDIBOT_RETURN_IF_ERROR(ReplayPerVmLayers(
        nightly.log, vms, catalog, weights, Median(nightly.wall_s),
        nightly.threads, report));
  }
  report->Set("peak_rss_mb", PeakRssMb());
  return Status::OK();
}

}  // namespace cdibench
