// `loop`: the Table II-scale closed loop. One caller runs initialize, then
// each run_cycle after the previous one returns, on the default
// {VGG16, BoVW, DDM} roster with a 4-thread pool. initialize runs a few
// times on fresh systems, because one call is a single long sample (see
// LoopScale::inits). The 40-cycle stream is then run several times from the
// same post-initialize state (restored through load_state_image, which the
// library guarantees byte-identical), so each cycle is timed several times.
// While the library works, its pool's workers are moved over the CPUs in
// turn (WorkerRotation). After each stream run, one closed-loop caller sends
// single-image classify requests to a pool-less copy of the committee, so
// the classify metrics exist here too (no service layer).

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "experts/committee.hpp"
#include "probes.hpp"
#include "stats/distribution.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cl = crowdlearn;

namespace {

struct LoopScale {
  cl::core::ExperimentConfig experiment;  ///< default = make_default_setup(seed)
  std::size_t threads = 4;
  /// initialize calls, each on a fresh system; init_s is their median (with
  /// two, their mean). One call is 12-17 s, nearly all of it DDM training
  /// on one worker, which without WorkerRotation runs at the speed of the
  /// one core it lands on.
  std::size_t inits = 2;
  std::size_t classify_requests = 12000;
  std::size_t setup_reps = 9;
  double nominal_stream_s = 5.0;   ///< --seconds per stream run (4 at the committed 20 s)
  std::size_t traced_streams = 4;  ///< traced run: untraced and traced stream runs alternate
};

LoopScale loop_scale(const Options& opt) {
  LoopScale s;
  s.experiment.seed = opt.seed;
  if (opt.smoke) {
    s.experiment.dataset.total_images = 120;
    s.experiment.dataset.train_images = 80;
    s.experiment.stream.num_cycles = 4;
    s.experiment.pilot.queries_per_cell = 4;
    s.inits = 1;
    s.classify_requests = 300;
    s.setup_reps = 1;
    s.traced_streams = 2;
  }
  return s;
}

/// Classify calls per window of the p50 and the rate: short enough that a
/// window runs on one CPU at one speed.
constexpr std::size_t kRateWindow = 100;
/// Share of classify windows below the quantile the run reports: it reads
/// the host's quick windows, not its mix of quick and slow ones.
constexpr double kQuickShare = 0.10;
/// How long the pool's workers stay on one CPU while the benchmark moves
/// them over the CPUs (see WorkerRotation).
constexpr std::chrono::milliseconds kRotationPeriod{100};
/// Classify calls on one CPU before the caller moves to the next. The first
/// call after a move runs with cold caches; at 1 in 200 these stay out of
/// each window's p99, which has 10 of 1000 calls beyond it.
constexpr std::size_t kCallsPerCpu = 200;

struct LoopRun {
  std::vector<double> init_s;        ///< per initialize call
  std::vector<double> stream_s, f1;  ///< per stream run
  std::vector<bool> stream_traced;   ///< per stream run
  std::vector<double> cycle_ms, classify_ms;
  std::vector<cl::core::CycleOutcome> outcomes;  ///< of the last stream run
  std::size_t attempted = 0, failed = 0;
};

using AfterRun = std::function<void(cl::core::CrowdLearnSystem&, cl::crowd::CrowdPlatform&)>;

/// `scale.inits` initialize calls, then `streams` runs of the whole stream
/// from the last system's post-initialize state, each followed by an equal
/// share of the classify calls, so that they sample the host over the whole
/// run. With a tracer, the stage hook is attached on every second stream run
/// only, so traced and untraced runs alternate and their cost can be
/// compared; cycle latencies are kept from untraced runs only. `after` runs
/// on the finished system, outside the timing.
LoopRun run_loop_once(const cl::core::ExperimentSetup& setup, const LoopScale& scale,
                      std::size_t streams, const std::vector<std::size_t>& classify_ids,
                      Tracer* tracer, const AfterRun& after) {
  LoopRun run;
  cl::crowd::CrowdPlatform platform = cl::core::make_platform(setup, 0);
  cl::dataset::SensingCycleStream stream(setup.data, setup.stream_cfg);
  cl::core::CrowdLearnConfig cfg = cl::core::default_crowdlearn_config(setup);
  cfg.num_threads = scale.threads;
  std::unique_ptr<cl::core::CrowdLearnSystem> owned;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, scale.inits); ++i) {
    owned.reset();  // one system at a time, so peak memory is one system's
    owned = std::make_unique<cl::core::CrowdLearnSystem>(cl::experts::make_default_committee(), cfg);
    const WorkerRotation workers(kRotationPeriod);
    const auto start = Clock::now();
    owned->initialize(setup.data, setup.pilot);
    run.init_s.push_back(seconds_between(start, Clock::now()));
  }
  cl::core::CrowdLearnSystem& system = *owned;
  std::optional<StageClock> stages;
  if (tracer != nullptr) stages.emplace(*tracer);

  const std::string initial_state =
      streams > 1 ? system.state_image(&platform) : std::string();
  std::vector<std::size_t> reference;  ///< committee label per image

  for (std::size_t r = 0; r < streams; ++r) {
    if (r > 0) system.load_state_image(initial_state, &platform);
    const bool traced = stages && r % 2 == 1;
    if (traced) {
      stages->attach(system);
    } else {
      system.set_stage_hook({});
    }
    run.outcomes.clear();
    std::optional<WorkerRotation> workers(std::in_place, kRotationPeriod);
    const auto s0 = Clock::now();
    for (const cl::dataset::SensingCycle& cycle : stream.cycles()) {
      ++run.attempted;
      const auto c0 = Clock::now();
      try {
        run.outcomes.push_back(system.run_cycle(setup.data, platform, cycle));
      } catch (...) {
        // The system is mid-cycle now; the rest of the stream is lost too.
        run.failed += stream.num_cycles() - run.outcomes.size();
        run.attempted += stream.num_cycles() - run.outcomes.size() - 1;
        break;
      }
      if (traced) stages->cycle_done();
      if (!traced) run.cycle_ms.push_back(ms_between(c0, Clock::now()));
      if (!labels_every_image(run.outcomes.back())) ++run.failed;
    }
    run.stream_s.push_back(seconds_between(s0, Clock::now()));
    workers.reset();  // the classify caller below moves itself (CpuRotation)
    run.stream_traced.push_back(traced);
    LabelTally tally;
    tally.add(setup.data, run.outcomes);
    run.f1.push_back(tally.macro_f1());
    if (classify_ids.empty()) continue;

    // One caller, one image per call, on a copy of the stream's final
    // committee without a pool: the single-image inference path with no
    // hand-off between threads. Every stream run ends in the same state, so
    // the reference is one batched read of every image through the system's
    // own committee and pool after the first run; each answer must equal it.
    cl::experts::ExpertCommittee& committee = system.committee();
    if (reference.empty()) {
      std::vector<std::size_t> all(setup.data.images.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      const auto batch = committee.expert_votes_batch(setup.data, all);
      for (std::size_t i = 0; i < all.size(); ++i)
        reference.push_back(cl::stats::argmax(committee.committee_vote(batch[i])));
    }
    cl::experts::ExpertCommittee reader = committee.clone();
    reader.set_thread_pool(nullptr);
    CpuRotation cpus;  // restores the caller's CPUs before the next stream run
    for (std::size_t k = classify_ids.size() * r / streams;
         k < classify_ids.size() * (r + 1) / streams; ++k) {
      if (k % kCallsPerCpu == 0) cpus.next();
      const std::size_t id = classify_ids[k];
      ++run.attempted;
      const auto r0 = Clock::now();
      const auto votes = reader.expert_votes_batch(setup.data, {id});
      const std::size_t answer = cl::stats::argmax(reader.committee_vote(votes[0]));
      run.classify_ms.push_back(ms_between(r0, Clock::now()));
      if (answer != reference[id]) ++run.failed;
    }
  }
  system.set_stage_hook({});
  if (after) after(system, platform);
  return run;
}

}  // namespace

Report run_loop(const Options& opt) {
  Report report;
  const LoopScale scale = loop_scale(opt);

  // Set-up: dataset generation plus the pilot study, several times.
  std::vector<double> setup_s;
  cl::core::ExperimentSetup setup;
  {
    CpuRotation cpus;  // make_setup starts no thread
    for (std::size_t k = 0; k < scale.setup_reps; ++k) {
      cpus.next();
      const auto t0 = Clock::now();
      setup = cl::core::make_setup(scale.experiment);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  }
  std::mt19937_64 rng(opt.seed);
  std::uniform_int_distribution<std::size_t> pick(0, setup.data.images.size() - 1);
  std::vector<std::size_t> classify_ids(scale.classify_requests);
  for (std::size_t& id : classify_ids) id = pick(rng);

  if (!opt.trace) {
    const std::size_t streams = repetitions(opt.seconds, scale.nominal_stream_s);
    const LoopRun run = run_loop_once(setup, scale, streams, classify_ids, nullptr, {});
    report.ops(run.attempted, run.failed);
    for (double f1 : run.f1)
      report.check(f1 == run.f1.front(), "f1_macro differs across stream runs of one seed");
    if (opt.smoke) {
      // The library's own Table II path on the same setup must give the
      // same answer as the benchmark's loop.
      cl::core::CrowdLearnRunner runner(cl::core::default_crowdlearn_config(setup));
      const cl::core::SchemeEvaluation eval = cl::core::evaluate_scheme(runner, setup);
      report.check(eval.report.f1 == run.f1.front(),
                   "f1_macro differs from core::evaluate_scheme on the same setup");
    }
    // The host slows a core by up to 1.6x for stretches of milliseconds to
    // minutes (see README.md), and the share of slow time drifts between
    // runs. Each short window of consecutive calls runs on one core, so the
    // figures come from the host's quick windows: the 10th percentile over
    // windows of each window's quantile, and for the rate the 90th
    // percentile of each window's calls per second.
    auto quick_windows = [&](std::size_t window, double q) {
      return quantile(per_window(run.classify_ms, window,
                                 [q](std::vector<double> v) { return quantile(std::move(v), q); }),
                      kQuickShare);
    };
    const double peak_rps = quantile(per_window(run.classify_ms, kRateWindow,
                                                [](const std::vector<double>& v) {
                                                  double busy_ms = 0.0;
                                                  for (double ms : v) busy_ms += ms;
                                                  return static_cast<double>(v.size()) * 1000.0 /
                                                         busy_ms;
                                                }),
                                     1.0 - kQuickShare);
    const double stream_s = median(run.stream_s);
    std::ostringstream inits;
    for (double s : run.init_s) inits << (inits.tellp() > 0 ? " " : "") << s;
    report.note("init_s samples (initialize calls): " + inits.str());
    report.note("stream runs", static_cast<double>(streams));
    report.note("setup_s samples", static_cast<double>(setup_s.size()));
    report.note("cycle latency samples", static_cast<double>(run.cycle_ms.size()));
    report.note("classify latency samples (closed loop, 1 caller)",
                static_cast<double>(run.classify_ms.size()));
    report.note("classify_p50_ms windows of 100 calls",
                static_cast<double>(run.classify_ms.size() / kRateWindow));
    report.note("classify_p99_ms windows of 1000 calls",
                static_cast<double>(run.classify_ms.size() / kLatencyWindow));
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("init_s", median(run.init_s), "s");
    report.metric("stream_s", stream_s, "s");
    report.metric("cycle_p50_ms", quantile(run.cycle_ms, 0.50), "ms");
    report.metric("cycle_p75_ms", quantile(run.cycle_ms, 0.75), "ms");
    report.metric("cycle_p90_ms", quantile(run.cycle_ms, 0.90), "ms");
    // Cycles of one stream run over its median wall-clock.
    report.metric("cycles_per_s",
                  static_cast<double>(run.cycle_ms.size()) / static_cast<double>(streams) / stream_s,
                  "1/s");
    report.metric("f1_macro", run.f1.front(), "ratio");
    report.metric("classify_p50_ms", quick_windows(kRateWindow, 0.50), "ms");
    report.metric("classify_p99_ms", quick_windows(kLatencyWindow, 0.99), "ms");
    // One closed-loop caller: calls over the time spent in them.
    report.metric("classify_peak_rps", peak_rps, "req/s");
    return report;
  }

  // Traced run: one initialize, then stream runs that alternate untraced
  // and traced, then the per-module probes on the same data.
  Tracer tracer;
  LoopScale traced_scale = scale;
  traced_scale.inits = 1;
  const LoopRun run =
      run_loop_once(setup, traced_scale, scale.traced_streams, {}, &tracer,
                    [&](cl::core::CrowdLearnSystem& system, cl::crowd::CrowdPlatform& platform) {
                      probe_votes(report, system.committee(), setup.data, opt.seed);
                      probe_checkpoint(report, system, platform, opt.workdir + "/ring");
                    });
  report.ops(run.attempted, run.failed);
  for (double f1 : run.f1) report.check(f1 == run.f1.front(), "tracing changed f1_macro");
  std::vector<double> plain_s, traced_s;
  double traced_total_s = 0.0;
  for (std::size_t r = 0; r < run.stream_s.size(); ++r) {
    (run.stream_traced[r] ? traced_s : plain_s).push_back(run.stream_s[r]);
    if (run.stream_traced[r]) traced_total_s += run.stream_s[r];
  }
  report_stages(report, tracer, traced_total_s * 1000.0);
  report_crowd(report, run.outcomes);
  cl::util::ThreadPool pool(scale.threads);
  probe_expert_training(report, tracer, setup.data, pool, opt.seed);
  probe_cqc_fit(report, setup, pool);
  report.metric("dataset.make_setup_ms", median(setup_s) * 1000.0, "ms");
  // No service layer on this workload.
  for (const char* name : {"service.evictions", "service.rehydrations", "service.cold_starts"})
    report.metric(name, 0.0, "count");
  report.metric("service.cycle_ms.resident_p50", 0.0, "ms");
  report.metric("service.cycle_ms.rehydrate_p50", 0.0, "ms");
  report.metric("service.classify_call_ms.b64", 0.0, "ms");
  report.metric("service.images_per_batch", 0.0, "count");
  // Nothing here is an open loop: nothing is ever late.
  report.metric("bench.gen_late_p99_ms", 0.0, "ms");
  report.metric("bench.backlog_end", 0.0, "count");
  report.metric("bench.trace_overhead_pct", (median(traced_s) / median(plain_s) - 1.0) * 100.0,
                "%");
  return report;
}

}  // namespace perfbench
