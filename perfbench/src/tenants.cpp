// `serve` and `service`: quickstart-scale tenants behind the service layer.
// Every tenant's committee factory returns a clone of one paper roster
// pretrained during set-up. Classify requests go through BatchCoalescer
// (max_batch 64, default linger) from one open-loop generator thread; cycle
// requests go through ServiceQueue from closed-loop operators, one per
// tenant, each submitting its next cycle when the previous one completes.
//
//   serve    3 tenants, no residency cap. A fixed-rate open loop, then a
//            saturation burst, then every tenant runs its stream.
//   service  8 tenants, max_resident 2. Every tenant runs its stream while a
//            lower fixed-rate open loop classifies across all of them, then
//            a saturation burst.

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "experts/committee.hpp"
#include "probes.hpp"
#include "service/coalescer.hpp"
#include "service/queue.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cl = crowdlearn;
using cl::service::TenantManager;
using cl::service::TenantPhase;

namespace {

struct TenantScale {
  std::size_t tenants = 3;
  std::size_t max_resident = 0;  ///< 0 = no cap
  std::size_t threads = 3;
  cl::core::ExperimentConfig experiment;  ///< per tenant; the seed is set per tenant
  double budget_cents = 320.0;
  double open_rate = 0.0;     ///< open-loop classify requests per second
  double open_seconds = 0.0;  ///< serve: length of the open-loop phase
  std::size_t burst = 0;      ///< requests in the saturation burst
  std::size_t setup_reps = 2;      ///< each pretrains the roster (4-6 s)
  double nominal_rep_s = 12.0;     ///< --seconds per repetition (serve: 4, service: 2 at 20 s)
  bool concurrent_cycles = false;  ///< service: the open loop runs beside the cycles
  std::size_t cold_starts = 24;    ///< init_s samples: activations of a cold tenant
  std::size_t traced_streams = 4;  ///< service: standalone stage runs, alternating
};

TenantScale tenant_scale(const Options& opt, bool service) {
  TenantScale s;
  // Quickstart scale: 300 images, 220 train, an 8 x 10-image stream.
  s.experiment.dataset.total_images = 300;
  s.experiment.dataset.train_images = 220;
  s.experiment.stream.num_cycles = 8;
  s.experiment.stream.images_per_cycle = 10;
  s.experiment.stream.grouped_contexts = false;
  s.experiment.pilot.queries_per_cell = 6;
  if (service) {
    s.tenants = 8;
    s.max_resident = 2;
    s.open_rate = 120.0;
    s.burst = 2000;
    s.concurrent_cycles = true;
  } else {
    s.open_rate = 1000.0;
    s.open_seconds = 3.0;
    s.burst = 6000;
    s.nominal_rep_s = 5.0;
  }
  if (opt.smoke) {
    s.experiment.dataset.total_images = 120;
    s.experiment.dataset.train_images = 80;
    s.experiment.stream.num_cycles = 2;
    s.experiment.pilot.queries_per_cell = 4;
    s.open_rate /= 10.0;
    s.open_seconds /= 8.0;
    s.burst /= 20;
    s.setup_reps = 1;
    s.cold_starts = 0;
    s.traced_streams = 2;
  }
  return s;
}

std::string tenant_name(std::size_t i) { return "tenant" + std::to_string(i); }

/// Set-up shared by every repetition: tenant specs, tenant 0's scenario and
/// the roster pretrained on it, and the pool used for pretraining and probes.
struct Fixture {
  std::unique_ptr<cl::util::ThreadPool> pool;
  cl::core::ExperimentSetup setup0;
  std::shared_ptr<const cl::experts::ExpertCommittee> roster;
  std::vector<cl::service::TenantSpec> specs;
};

Fixture make_fixture(const TenantScale& scale, std::uint64_t seed) {
  Fixture f;
  f.pool = std::make_unique<cl::util::ThreadPool>(scale.threads);
  for (std::size_t i = 0; i < scale.tenants; ++i) {
    cl::service::TenantSpec spec;
    spec.name = tenant_name(i);
    spec.experiment = scale.experiment;
    spec.experiment.seed = cl::mix_seed(seed * 64 + i);
    spec.total_budget_cents = scale.budget_cents;
    f.specs.push_back(std::move(spec));
  }
  f.setup0 = cl::core::make_setup(f.specs[0].experiment);
  cl::experts::ExpertCommittee committee = cl::experts::make_default_committee();
  committee.set_thread_pool(f.pool.get());
  cl::Rng rng(seed);
  committee.train_all(f.setup0.data, f.setup0.data.train_indices, rng);
  committee.set_thread_pool(nullptr);
  f.roster = std::make_shared<const cl::experts::ExpertCommittee>(std::move(committee));
  for (cl::service::TenantSpec& spec : f.specs) {
    spec.committee_factory = [roster = f.roster] { return roster->clone(); };
  }
  return f;
}

std::unique_ptr<TenantManager> make_manager(const Fixture& f, const TenantScale& scale,
                                            const std::string& root) {
  cl::service::TenantManagerConfig cfg;
  cfg.root_dir = root;
  cfg.max_resident = scale.max_resident;
  cfg.num_threads = scale.threads;
  auto mgr = std::make_unique<TenantManager>(cfg);
  for (const cl::service::TenantSpec& spec : f.specs) mgr->add_tenant(spec);
  return mgr;
}

struct TenantRep {
  double stream_s = 0.0, peak_rps = 0.0;
  std::vector<double> activation_s;  ///< per tenant, cold to serving
  std::vector<double> cycle_ms, resident_ms, rehydrate_ms;
  LoadGenerator::Stats open;
  std::size_t backlog_end = 0;
  std::vector<std::vector<cl::core::CycleOutcome>> outcomes;  ///< per tenant
  double f1 = 0.0;
  std::size_t attempted = 0, failed = 0;
  cl::service::CoalescerStats coalescer;
  std::size_t evictions = 0, rehydrations = 0, cold_starts = 0;
};

/// Closed-loop operators: one thread per tenant submits its next cycle when
/// the previous one completes, until its stream is done. Latency runs from
/// submit_cycle to the future being ready, split by the tenant's phase at
/// submit. `on_cycle(i)` runs on tenant i's operator thread after each of
/// its cycles completes.
class Operators {
 public:
  Operators(TenantManager& mgr, cl::service::ServiceQueue& queue, std::size_t tenants,
            std::size_t cycles, const std::function<void(std::size_t)>& on_cycle = {})
      : results_(tenants), remaining_(tenants) {
    for (std::size_t i = 0; i < tenants; ++i) {
      threads_.emplace_back([this, &mgr, &queue, i, cycles, on_cycle] {
        Result& r = results_[i];
        const std::string name = tenant_name(i);
        for (std::size_t c = 0; c < cycles; ++c) {
          ++r.attempted;
          const bool resident = mgr.stats(name).phase == TenantPhase::kResident;
          const auto t0 = Clock::now();
          try {
            r.outcomes.push_back(queue.submit_cycle(name).get());
          } catch (...) {
            r.failed += cycles - c;
            r.attempted = cycles;
            break;
          }
          const double ms = ms_between(t0, Clock::now());
          if (on_cycle) on_cycle(i);
          r.cycle_ms.push_back(ms);
          (resident ? r.resident_ms : r.rehydrate_ms).push_back(ms);
          if (!labels_every_image(r.outcomes.back())) ++r.failed;
        }
        remaining_.fetch_sub(1);
      });
    }
  }

  bool running() const { return remaining_.load() > 0; }

  /// Join every operator and fold its results into `rep`.
  void finish(TenantRep& rep) {
    for (std::jthread& t : threads_) t.join();
    for (Result& r : results_) {
      rep.cycle_ms.insert(rep.cycle_ms.end(), r.cycle_ms.begin(), r.cycle_ms.end());
      rep.resident_ms.insert(rep.resident_ms.end(), r.resident_ms.begin(), r.resident_ms.end());
      rep.rehydrate_ms.insert(rep.rehydrate_ms.end(), r.rehydrate_ms.begin(),
                              r.rehydrate_ms.end());
      rep.outcomes.push_back(std::move(r.outcomes));
      rep.attempted += r.attempted;
      rep.failed += r.failed;
    }
  }

 private:
  struct Result {
    std::vector<double> cycle_ms, resident_ms, rehydrate_ms;
    std::vector<cl::core::CycleOutcome> outcomes;
    std::size_t attempted = 0, failed = 0;
  };
  std::vector<Result> results_;
  std::atomic<std::size_t> remaining_;
  std::vector<std::jthread> threads_;  ///< last: joined before the results go
};

/// Activates every tenant of `mgr`, one at a time, and returns how long each
/// took from cold to serving: dataset rebuild, CQC fit, IPD warm start,
/// generation 0, plus an eviction once the residency cap is reached. With
/// `on_resident`, it runs on each freshly activated tenant. The caller moves
/// to the next CPU for each tenant; activation starts no thread, so no pool
/// inherits the pinning.
std::vector<double> warm_all(TenantManager& mgr, std::size_t tenants,
                             const std::function<void(std::size_t, cl::core::CrowdLearnSystem&)>&
                                 on_resident = {}) {
  std::vector<double> seconds;
  CpuRotation cpus;
  for (std::size_t i = 0; i < tenants; ++i) {
    cpus.next();
    const auto t0 = Clock::now();
    mgr.with_resident(tenant_name(i), [&](cl::core::CrowdLearnSystem& system, auto&, auto&) {
      if (on_resident) on_resident(i, system);
    });
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return seconds;
}

/// Macro-F1 of every tenant's cycle labels. Golden labels come from each
/// tenant's scenario, rebuilt from its spec exactly as the manager builds it.
double tenants_f1(const std::vector<cl::service::TenantSpec>& specs,
                  const std::vector<std::vector<cl::core::CycleOutcome>>& outcomes) {
  LabelTally tally;
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    tally.add(cl::core::make_setup(specs[i].experiment).data, outcomes[i]);
  return tally.macro_f1();
}

using AfterRep = std::function<void(TenantManager&)>;

/// One repetition on a fresh manager. With `stages` (one clock per tenant;
/// only without a residency cap, where a tenant's system is never rebuilt
/// after its activation), the stage hook of every tenant is attached during
/// warm-up and the clocks are driven by the cycle phase.
TenantRep run_rep(const TenantScale& scale, const Fixture& fixture,
                  std::unique_ptr<TenantManager> mgr, std::uint64_t seed,
                  std::vector<std::unique_ptr<StageClock>>* stages, const AfterRep& after) {
  TenantRep rep;
  const std::size_t n = scale.tenants;
  const std::size_t images = scale.experiment.dataset.total_images;
  const std::size_t cycles = scale.experiment.stream.num_cycles;
  std::mt19937_64 rng(seed);

  std::function<void(std::size_t, cl::core::CrowdLearnSystem&)> attach;
  std::function<void(std::size_t)> on_cycle;
  if (stages != nullptr) {
    attach = [stages](std::size_t i, cl::core::CrowdLearnSystem& system) {
      (*stages)[i]->attach(system);
    };
    on_cycle = [stages](std::size_t i) { (*stages)[i]->cycle_done(); };
  }
  rep.activation_s = warm_all(*mgr, n, attach);

  // The serve reference: one direct classify of every image per tenant.
  // The tenants' state does not change until the cycle phase, so every
  // answer of the read phases must equal it.
  std::vector<std::vector<std::size_t>> reference;
  if (!scale.concurrent_cycles) {
    std::vector<std::size_t> all(images);
    for (std::size_t i = 0; i < images; ++i) all[i] = i;
    for (std::size_t i = 0; i < n; ++i) reference.push_back(mgr->classify(tenant_name(i), all));
  }

  {
    cl::service::BatchCoalescerConfig ccfg;
    ccfg.max_batch_images = 64;
    cl::service::BatchCoalescer coalescer(*mgr, ccfg);
    cl::service::ServiceQueue queue(*mgr, &coalescer);
    auto submit = [&](std::size_t lane, std::size_t image) {
      return queue.submit_classify(tenant_name(lane), {image});
    };
    auto check = [&](std::size_t lane, std::size_t image, const LoadGenerator::Answer& a) {
      if (a.size() != 1) return false;
      if (reference.empty()) return a[0] < cl::dataset::kNumSeverityClasses;
      return a[0] == reference[lane][image];
    };

    std::unique_ptr<Operators> ops;
    auto cycles_start = Clock::now();
    if (scale.concurrent_cycles) ops = std::make_unique<Operators>(*mgr, queue, n, cycles, on_cycle);
    {
      LoadGenerator gen(n, submit, check);
      const auto t0 = Clock::now();
      const auto until = scale.concurrent_cycles ? Clock::time_point::max()
                                                 : t0 + std::chrono::duration_cast<Clock::duration>(
                                                            std::chrono::duration<double>(
                                                                scale.open_seconds));
      poisson_phase(gen, rng, scale.open_rate, n, images, t0, until,
                    [&] { return ops == nullptr || ops->running(); });
      rep.backlog_end = coalescer.pending();
      // A threshold-cut dispatch can retire with a sub-batch remainder that
      // no linger wake-up covers; the flush at the end of the phase keeps
      // such requests from waiting forever.
      coalescer.flush();
      rep.open = gen.finish();
    }
    if (ops) {
      ops->finish(rep);
      rep.stream_s = seconds_between(cycles_start, Clock::now());
    }
    {
      LoadGenerator gen(n, submit, check);
      LoadGenerator::Stats burst;
      rep.peak_rps = saturation_burst(gen, rng, scale.burst, n, images,
                                      [&] { coalescer.flush(); }, &burst);
      rep.attempted += burst.attempted;
      rep.failed += burst.failed;
    }
    if (!ops) {
      cycles_start = Clock::now();
      Operators(*mgr, queue, n, cycles, on_cycle).finish(rep);
      rep.stream_s = seconds_between(cycles_start, Clock::now());
    }
    rep.coalescer = coalescer.stats();
  }
  rep.attempted += rep.open.attempted;
  rep.failed += rep.open.failed;
  if (stages != nullptr) {
    // The clocks die before the manager: detach them.
    for (std::size_t i = 0; i < n; ++i)
      mgr->with_resident(tenant_name(i),
                         [](cl::core::CrowdLearnSystem& system, auto&, auto&) {
                           system.set_stage_hook({});
                         });
  }

  for (std::size_t i = 0; i < n; ++i) {
    const cl::service::TenantStats s = mgr->stats(tenant_name(i));
    rep.evictions += s.evictions;
    rep.rehydrations += s.rehydrations;
    rep.cold_starts += s.cold_starts;
    if (s.cycles_run != cycles) ++rep.failed;  // every tenant finishes its stream
  }
  rep.f1 = tenants_f1(fixture.specs, rep.outcomes);
  if (after) after(*mgr);
  return rep;
}

Report run_tenants(const Options& opt, bool service) {
  Report report;
  const TenantScale scale = tenant_scale(opt, service);
  const std::string root = opt.workdir + "/tenants";
  std::size_t rep_index = 0;
  auto next_root = [&] { return root + std::to_string(rep_index++); };

  // Set-up: tenant 0's dataset and pilot, the roster pretraining, and the
  // registration of every tenant, several times; the last one is used.
  std::vector<double> setup_s;
  Fixture fixture;
  std::unique_ptr<TenantManager> first;
  for (std::size_t k = 0; k < scale.setup_reps; ++k) {
    first.reset();
    const auto t0 = Clock::now();
    fixture = make_fixture(scale, opt.seed);
    first = make_manager(fixture, scale, next_root());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  auto manager = [&] { return first ? std::move(first) : make_manager(fixture, scale, next_root()); };
  const std::uint64_t load_seed = cl::mix_seed(opt.seed ^ 0x10AD);

  if (!opt.trace) {
    std::vector<TenantRep> reps;
    for (std::size_t k = repetitions(opt.seconds, scale.nominal_rep_s); k > 0; --k)
      reps.push_back(run_rep(scale, fixture, manager(), load_seed + reps.size(), nullptr, {}));

    std::vector<double> init_s, stream_s, cycle_ms, classify_ms, peak_rps;
    for (const TenantRep& r : reps) {
      report.ops(r.attempted, r.failed);
      init_s.insert(init_s.end(), r.activation_s.begin(), r.activation_s.end());
      stream_s.push_back(r.stream_s);
      peak_rps.push_back(r.peak_rps);
      cycle_ms.insert(cycle_ms.end(), r.cycle_ms.begin(), r.cycle_ms.end());
      classify_ms.insert(classify_ms.end(), r.open.latency_ms.begin(), r.open.latency_ms.end());
      report.check(r.f1 == reps.front().f1, "f1_macro differs across repetitions of one seed");
      report.note("generator late p99 ms", quantile(r.open.late_ms, 0.99));
      report.note("backlog at end of open loop", static_cast<double>(r.backlog_end));
      report.note("evictions", static_cast<double>(r.evictions));
    }
    // More cold starts, each tenant of a fresh manager of the same shape in
    // turn, until init_s has its fixed number of samples.
    while (init_s.size() < scale.cold_starts) {
      const std::vector<double> more = warm_all(*manager(), scale.tenants);
      init_s.insert(init_s.end(), more.begin(), more.end());
    }
    // Every repetition and every extra manager repeats each tenant's
    // activation exactly (same spec, same order, same cap), so init_s takes
    // each tenant's fastest one, then the median over tenants. A median over
    // all of them sits on whichever of the host's two speeds held most of
    // the run (see README.md). init_s holds tenant 0..n-1, then again.
    std::vector<double> fastest(scale.tenants, std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < init_s.size(); ++k)
      fastest[k % scale.tenants] = std::min(fastest[k % scale.tenants], init_s[k]);
    const double cycles_per_rep =
        static_cast<double>(cycle_ms.size()) / static_cast<double>(reps.size());
    report.note("repetitions", static_cast<double>(reps.size()));
    report.note("setup_s samples", static_cast<double>(setup_s.size()));
    report.note("init_s samples (cold starts)", static_cast<double>(init_s.size()));
    report.note("cycle latency samples", static_cast<double>(cycle_ms.size()));
    report.note("classify latency samples (open loop)", static_cast<double>(classify_ms.size()));
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("init_s", median(fastest), "s");
    report.metric("stream_s", median(stream_s), "s");
    report.metric("cycle_p50_ms", quantile(cycle_ms, 0.50), "ms");
    report.metric("cycle_p75_ms", quantile(cycle_ms, 0.75), "ms");
    report.metric("cycle_p90_ms", quantile(cycle_ms, 0.90), "ms");
    // Tenant-cycles of one repetition over its median cycle-phase wall-clock.
    report.metric("cycles_per_s", cycles_per_rep / median(stream_s), "1/s");
    report.metric("f1_macro", reps.front().f1, "ratio");
    report.metric("classify_p50_ms", windowed_quantile(classify_ms, kLatencyWindow, 0.50), "ms");
    report.metric("classify_p99_ms", windowed_quantile(classify_ms, kLatencyWindow, 0.99), "ms");
    report.metric("classify_peak_rps", median(peak_rps), "req/s");
    return report;
  }

  // Traced run: one untraced repetition, then a traced one whose manager is
  // probed before teardown, then the per-module probes on tenant 0's
  // scenario.
  Tracer tracer;
  std::vector<std::unique_ptr<StageClock>> clocks;
  for (std::size_t i = 0; i < scale.tenants; ++i)
    clocks.push_back(std::make_unique<StageClock>(tracer));
  // Stage hooks survive only without a residency cap: the manager rebuilds a
  // tenant's system on every rehydrate.
  const bool hooked = scale.max_resident == 0;
  const TenantRep plain = run_rep(scale, fixture, manager(), load_seed, nullptr, {});
  const TenantRep traced =
      run_rep(scale, fixture, manager(), load_seed, hooked ? &clocks : nullptr,
              [&](TenantManager& mgr) {
                const std::string name = tenant_name(0);
                mgr.with_resident(name, [&](cl::core::CrowdLearnSystem& system,
                                            cl::crowd::CrowdPlatform& platform, const auto&) {
                  probe_checkpoint(report, system, platform, opt.workdir + "/ring");
                });
                std::vector<std::size_t> ids(64);
                for (std::size_t i = 0; i < ids.size(); ++i)
                  ids[i] = i % scale.experiment.dataset.total_images;
                report.metric("service.classify_call_ms.b64",
                              median_ms(7, [&] { mgr.classify(name, ids); }), "ms");
              });
  for (const TenantRep* r : {&plain, &traced}) report.ops(r->attempted, r->failed);
  report.check(traced.f1 == plain.f1, "f1_macro differs between the two repetitions");

  double overhead_pct = 0.0;
  if (hooked) {
    // Base: the time the traced repetition's cycles took, submit to ready.
    double cycles_ms = 0.0;
    for (double ms : traced.cycle_ms) cycles_ms += ms;
    report_stages(report, tracer, cycles_ms);
    overhead_pct = (median(traced.cycle_ms) / median(plain.cycle_ms) - 1.0) * 100.0;
  } else {
    // With a cap, the stages are timed on a standalone system built from
    // tenant 0's spec, roster and pool. Its stream runs several times from
    // the post-initialize state, untraced and traced in turn.
    const cl::core::ExperimentSetup& setup = fixture.setup0;
    cl::core::CrowdLearnConfig cfg = cl::core::default_crowdlearn_config(
        setup, fixture.specs[0].queries_per_cycle, scale.budget_cents);
    cfg.shared_pool = std::shared_ptr<cl::util::ThreadPool>(fixture.pool.get(), [](auto*) {});
    cl::core::CrowdLearnSystem system(fixture.roster->clone(), cfg);
    system.initialize(setup.data, setup.pilot);
    cl::crowd::CrowdPlatform platform = cl::core::make_platform(setup, 0);
    const std::string initial_state = system.state_image(&platform);
    cl::dataset::SensingCycleStream stream(setup.data, setup.stream_cfg);
    StageClock stages(tracer);
    std::vector<double> plain_s, traced_s;
    double traced_total_ms = 0.0;
    for (std::size_t r = 0; r < scale.traced_streams; ++r) {
      if (r > 0) system.load_state_image(initial_state, &platform);
      const bool traced_run = r % 2 == 1;
      if (traced_run) {
        stages.attach(system);
      } else {
        system.set_stage_hook({});
      }
      const auto t0 = Clock::now();
      for (const cl::dataset::SensingCycle& cycle : stream.cycles()) {
        const bool ok = labels_every_image(system.run_cycle(setup.data, platform, cycle));
        if (traced_run) stages.cycle_done();
        report.ops(1, ok ? 0 : 1);
      }
      const double ms = ms_between(t0, Clock::now());
      (traced_run ? traced_s : plain_s).push_back(ms);
      if (traced_run) traced_total_ms += ms;
    }
    report_stages(report, tracer, traced_total_ms);
    overhead_pct = (median(traced_s) / median(plain_s) - 1.0) * 100.0;
  }
  std::vector<cl::core::CycleOutcome> all_outcomes;
  for (const auto& per_tenant : traced.outcomes)
    all_outcomes.insert(all_outcomes.end(), per_tenant.begin(), per_tenant.end());
  report_crowd(report, all_outcomes);
  probe_expert_training(report, tracer, fixture.setup0.data, *fixture.pool, opt.seed);
  {
    cl::experts::ExpertCommittee committee = fixture.roster->clone();
    committee.set_thread_pool(fixture.pool.get());
    probe_votes(report, committee, fixture.setup0.data, opt.seed);
  }
  probe_cqc_fit(report, fixture.setup0, *fixture.pool);
  report.metric("dataset.make_setup_ms",
                median_ms(5, [&] { cl::core::make_setup(fixture.specs[0].experiment); }), "ms");
  report.metric("service.evictions", static_cast<double>(traced.evictions), "count");
  report.metric("service.rehydrations", static_cast<double>(traced.rehydrations), "count");
  report.metric("service.cold_starts", static_cast<double>(traced.cold_starts), "count");
  report.metric("service.cycle_ms.resident_p50", median(traced.resident_ms), "ms");
  report.metric("service.cycle_ms.rehydrate_p50", median(traced.rehydrate_ms), "ms");
  // Base: batches issued by the coalescer.
  report.metric("service.images_per_batch",
                traced.coalescer.batches == 0
                    ? 0.0
                    : static_cast<double>(traced.coalescer.images) /
                          static_cast<double>(traced.coalescer.batches),
                "count");
  report.metric("bench.gen_late_p99_ms", quantile(traced.open.late_ms, 0.99), "ms");
  report.metric("bench.backlog_end", static_cast<double>(traced.backlog_end), "count");
  report.metric("bench.trace_overhead_pct", overhead_pct, "%");
  return report;
}

}  // namespace

Report run_serve(const Options& opt) { return run_tenants(opt, false); }
Report run_service(const Options& opt) { return run_tenants(opt, true); }

}  // namespace perfbench
