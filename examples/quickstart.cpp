// Quickstart: the smallest end-to-end CrowdLearn run.
//
// Generates a synthetic disaster-image dataset, runs the MTurk pilot study,
// initializes the CrowdLearn closed loop (QSS -> IPD -> CQC -> MIC), executes
// a handful of sensing cycles and prints what happened in each. Observability
// is enabled for the run, so it also drops two artifacts in the working
// directory (see docs/OBSERVABILITY.md):
//   quickstart_metrics.prom  - Prometheus text snapshot of every metric
//   quickstart_trace.json    - Chrome trace_event JSON (open in Perfetto)
//
// Usage: quickstart [seed] [flags]
//   --cycles N          run an N-cycle stream (default 8)
//   --images N          dataset size (default 300; --train must fit inside)
//   --train N           training-split size (default 220)
//   --fast-committee    two cheap BoVW experts instead of {VGG16, BoVW, DDM}
//   --threads N         worker threads (0 = auto; outputs identical anyway)
//   --stop-after K      execute only the first K remaining cycles (legacy path)
//   --checkpoint PATH   save the full loop state to PATH after the last cycle
//   --resume [PATH]     legacy: restore the loop state from the PATH file.
//                       With --supervise: no value — demand a loadable
//                       generation from the ring (exit 3 when none)
//   --cycle-log PATH    write/append the deterministic per-cycle CSV log
//   --metrics-json PATH write the deterministic metrics JSON snapshot
//   --weights-out PATH  final expert weights, one hexfloat per line
//   --cache-dir DIR     memoize expert/CQC retrains through a
//                       content-addressed artifact cache rooted at DIR
//                       (docs/CACHING.md; outputs identical either way)
//
// Supervised runtime (docs/RECOVERY.md):
//   --supervise DIR     run under runtime::Supervisor with a checkpoint
//                       generation ring in DIR (crash-safe, auto-recovery)
//   --ckpt-every K      checkpoint every K cycles (default 2)
//   --generations N     ring size (default 3)
//   --fault SPEC        arm a fault point, e.g. stage:qss:crash or
//                       ckpt:mid-write:io:1:0:1 (repeatable)
//   --max-retries N     snapshot retries per failed cycle (default 2)
//   --no-degraded       disable committee-only degraded completion
//   --strict-budget     exit 5 when the crowd budget dies mid-stream
//
// Exit codes (runtime::ExitCode, asserted by scripts/crash_drill.sh):
//   0 ok, 1 failure, 2 bad config, 3 checkpoint missing, 4 checkpoint
//   corrupt, 5 budget refused, 6 injected fault escaped, 70 crash fault.
//
// The checkpoint flags demonstrate docs/CHECKPOINTING.md: running
//   quickstart 42 --cycles 8 --stop-after 5 --checkpoint ckpt.bin --cycle-log a.csv
//   quickstart 42 --cycles 8 --resume ckpt.bin --cycle-log a.csv
// produces a cycle log byte-identical to the single uninterrupted run.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "ckpt/io.hpp"
#include "core/experiment.hpp"
#include "core/recorder.hpp"
#include "experts/bovw.hpp"
#include "runtime/exit.hpp"
#include "runtime/supervisor.hpp"
#include "util/csv.hpp"

namespace {

struct CliOptions {
  std::uint64_t seed = 42;
  std::size_t num_cycles = 8;
  std::size_t total_images = 300;
  std::size_t train_images = 220;
  bool fast_committee = false;
  std::size_t num_threads = 0;
  std::size_t stop_after = 0;  // 0 = run to the end of the stream
  std::string checkpoint_path;
  bool resume = false;
  std::string resume_path;  // legacy single-file resume
  std::string cycle_log_path;
  std::string metrics_json_path;
  std::string weights_out_path;
  std::string cache_dir;  // empty = no artifact cache (the default)
  // Supervised runtime.
  std::string supervise_dir;
  std::size_t ckpt_every = 2;
  std::size_t generations = 3;
  std::size_t max_retries = 2;
  bool no_degraded = false;
  bool strict_budget = false;
  std::vector<std::string> fault_specs;
};

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(flag) + " requires a value");
    return argv[++i];
  };
  auto count = [&](int& i, const char* flag) -> std::size_t {
    return std::strtoull(value(i, flag).c_str(), nullptr, 10);
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--cycles") == 0)
      opt.num_cycles = count(i, a);
    else if (std::strcmp(a, "--images") == 0)
      opt.total_images = count(i, a);
    else if (std::strcmp(a, "--train") == 0)
      opt.train_images = count(i, a);
    else if (std::strcmp(a, "--fast-committee") == 0)
      opt.fast_committee = true;
    else if (std::strcmp(a, "--threads") == 0)
      opt.num_threads = count(i, a);
    else if (std::strcmp(a, "--stop-after") == 0)
      opt.stop_after = count(i, a);
    else if (std::strcmp(a, "--checkpoint") == 0)
      opt.checkpoint_path = value(i, a);
    else if (std::strcmp(a, "--resume") == 0) {
      opt.resume = true;
      // Legacy form carries a file path; the supervised form is bare.
      if (i + 1 < argc && argv[i + 1][0] != '-') opt.resume_path = argv[++i];
    } else if (std::strcmp(a, "--cycle-log") == 0)
      opt.cycle_log_path = value(i, a);
    else if (std::strcmp(a, "--metrics-json") == 0)
      opt.metrics_json_path = value(i, a);
    else if (std::strcmp(a, "--weights-out") == 0)
      opt.weights_out_path = value(i, a);
    else if (std::strcmp(a, "--cache-dir") == 0)
      opt.cache_dir = value(i, a);
    else if (std::strcmp(a, "--supervise") == 0)
      opt.supervise_dir = value(i, a);
    else if (std::strcmp(a, "--ckpt-every") == 0)
      opt.ckpt_every = count(i, a);
    else if (std::strcmp(a, "--generations") == 0)
      opt.generations = count(i, a);
    else if (std::strcmp(a, "--fault") == 0)
      opt.fault_specs.push_back(value(i, a));
    else if (std::strcmp(a, "--max-retries") == 0)
      opt.max_retries = count(i, a);
    else if (std::strcmp(a, "--no-degraded") == 0)
      opt.no_degraded = true;
    else if (std::strcmp(a, "--strict-budget") == 0)
      opt.strict_budget = true;
    else if (a[0] == '-')
      throw std::invalid_argument(std::string("unknown flag: ") + a);
    else
      opt.seed = std::strtoull(a, nullptr, 10);
  }
  if (opt.num_cycles == 0) throw std::invalid_argument("--cycles must be positive");
  if (opt.train_images >= opt.total_images)
    throw std::invalid_argument("--train must be smaller than --images");
  if (!opt.supervise_dir.empty()) {
    if (opt.stop_after != 0)
      throw std::invalid_argument("--stop-after is a legacy-path flag; with --supervise, "
                                  "interrupt with a crash fault instead");
    if (!opt.resume_path.empty())
      throw std::invalid_argument("with --supervise, --resume takes no value (the ring at " +
                                  opt.supervise_dir + " is the source)");
  } else {
    if (!opt.fault_specs.empty())
      throw std::invalid_argument("--fault requires --supervise");
    if (opt.resume && opt.resume_path.empty())
      throw std::invalid_argument("--resume needs a checkpoint path (or --supervise)");
  }
  return opt;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace crowdlearn;
  const CliOptions opt = parse_cli(argc, argv);
  const bool supervised = !opt.supervise_dir.empty();

  std::cout << "CrowdLearn quickstart (seed " << opt.seed << ")\n\n";

  // A reduced setup so the quickstart finishes fast. A resumed run MUST
  // rebuild this setup with the same knobs — the checkpoint holds the loop's
  // mutable state, not the dataset or configuration.
  core::ExperimentConfig cfg;
  cfg.seed = opt.seed;
  cfg.dataset.total_images = opt.total_images;
  cfg.dataset.train_images = opt.train_images;
  cfg.dataset.seed = opt.seed;
  cfg.stream.num_cycles = opt.num_cycles;
  cfg.stream.images_per_cycle = 10;
  cfg.stream.grouped_contexts = false;  // rotate contexts so all four appear
  cfg.pilot.queries_per_cell = 6;

  std::cout << "Generating dataset and running the pilot study...\n";
  core::ExperimentSetup setup = core::make_setup(cfg);
  std::cout << "  " << setup.data.images.size() << " images ("
            << setup.data.train_indices.size() << " train / "
            << setup.data.test_indices.size() << " test), "
            << setup.data.failure_count(setup.data.test_indices)
            << " failure-mode images in the test set\n\n";

  core::CrowdLearnConfig cl_cfg = core::default_crowdlearn_config(
      setup, /*queries_per_cycle=*/5,
      /*total_budget_cents=*/8.0 * 5.0 * static_cast<double>(opt.num_cycles));
  cl_cfg.num_threads = opt.num_threads;
  if (!opt.cache_dir.empty()) {
    cl_cfg.artifact_cache =
        std::make_shared<cache::ArtifactCache>(cache::ArtifactCacheConfig{opt.cache_dir, 0});
    std::cout << "Artifact cache at " << opt.cache_dir
              << " (retrains memoized; outputs unchanged — docs/CACHING.md)\n";
  }

  std::unique_ptr<core::CrowdLearnRunner> runner;
  if (opt.fast_committee) {
    experts::BovwConfig fast;
    fast.train.epochs = 10;
    fast.train.learning_rate = 0.05;
    std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
    roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
    roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
    runner = std::make_unique<core::CrowdLearnRunner>(
        cl_cfg, experts::ExpertCommittee(std::move(roster)));
  } else {
    runner = std::make_unique<core::CrowdLearnRunner>(cl_cfg);
  }
  runner->system().enable_observability();

  crowd::CrowdPlatform platform = core::make_platform(setup, /*run_index=*/0);
  dataset::SensingCycleStream stream(setup.data, setup.stream_cfg);

  std::vector<core::CycleOutcome> outcomes;
  std::unique_ptr<runtime::Supervisor> supervisor;

  if (supervised) {
    runtime::SupervisorConfig scfg;
    scfg.checkpoint_dir = opt.supervise_dir;
    scfg.checkpoint_every = opt.ckpt_every;
    scfg.max_generations = opt.generations;
    scfg.max_retries = opt.max_retries;
    scfg.allow_degraded = !opt.no_degraded;
    scfg.fail_on_budget_exhausted = opt.strict_budget;
    scfg.require_resume = opt.resume;
    scfg.cycle_log_path = opt.cycle_log_path;
    scfg.cycle_log.include_wall_clock = false;
    for (const std::string& spec : opt.fault_specs)
      scfg.faults.push_back(runtime::parse_fault_spec(spec));
    supervisor = std::make_unique<runtime::Supervisor>(runner->system(), platform, scfg);

    std::cout << "Supervised runtime: ring " << opt.supervise_dir << " (every "
              << opt.ckpt_every << " cycles, " << opt.generations << " generations, "
              << scfg.faults.size() << " fault points armed)\n";
    const runtime::StartReport rep = supervisor->start(setup.data, setup.pilot);
    for (const auto& bad : rep.rejected)
      std::cout << "  skipped corrupt generation " << bad.path << " ("
                << ckpt::ckpt_errc_name(bad.code) << ")\n";
    if (rep.resumed)
      std::cout << "  resumed from generation " << rep.generation << " (" << rep.path
                << "), " << rep.cycles_run << " cycles already run\n\n";
    else
      std::cout << "  fresh start (generation 0 written)\n\n";

    outcomes = supervisor->run(setup.data, stream);
  } else {
    if (!opt.resume_path.empty()) {
      std::cout << "Resuming from checkpoint " << opt.resume_path << "...\n";
      runner->system().resume_from(opt.resume_path, &platform);
      std::cout << "  " << runner->system().cycles_run() << " cycles already run\n\n";
    } else {
      std::cout << "Training the committee and CQC...\n";
      runner->initialize(setup.data, &setup.pilot);
    }

    const std::size_t first_cycle = runner->system().cycles_run();
    std::size_t budget = opt.stop_after == 0 ? stream.cycles().size() : opt.stop_after;
    for (const dataset::SensingCycle& cycle : stream.cycles()) {
      if (cycle.index < first_cycle) continue;  // already covered by the checkpoint
      if (budget == 0) break;
      --budget;
      outcomes.push_back(runner->run_cycle(setup.data, platform, cycle));
    }
  }

  std::vector<std::string> columns{"cycle", "context", "queried", "incentive(c)",
                                   "crowd delay(s)", "accuracy"};
  const std::size_t num_experts =
      outcomes.empty() ? 0 : outcomes.front().expert_weights.size();
  for (std::size_t m = 0; m < num_experts; ++m)
    columns.push_back("w(expert" + std::to_string(m) + ")");
  TablePrinter table(columns);
  for (const core::CycleOutcome& out : outcomes) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < out.image_ids.size(); ++i)
      if (out.predictions[i] ==
          dataset::label_index(setup.data.image(out.image_ids[i]).true_label))
        ++correct;
    double mean_incentive = 0.0;
    for (double c : out.incentives_cents) mean_incentive += c;
    if (!out.incentives_cents.empty())
      mean_incentive /= static_cast<double>(out.incentives_cents.size());
    std::vector<std::string> row{std::to_string(out.cycle_index),
                                 dataset::context_name(out.context),
                                 std::to_string(out.queried_ids.size()),
                                 TablePrinter::num(mean_incentive, 1),
                                 TablePrinter::num(out.crowd_delay_seconds, 0),
                                 TablePrinter::num(static_cast<double>(correct) /
                                                       static_cast<double>(out.image_ids.size()),
                                                   2)};
    for (std::size_t m = 0; m < num_experts; ++m)
      row.push_back(m < out.expert_weights.size()
                        ? TablePrinter::num(out.expert_weights[m], 2)
                        : std::string(""));
    table.add_row(std::move(row));
  }
  table.print_ascii(std::cout);

  std::cout << "\nTotal crowd spend: " << platform.total_spent_cents() << " cents\n";

  if (cl_cfg.artifact_cache) {
    const cache::CacheStats cs = cl_cfg.artifact_cache->stats();
    std::cout << "Artifact cache: " << cs.hits << " hits / " << cs.misses
              << " misses, " << cs.stores << " stores\n";
  }

  if (supervisor) {
    const runtime::RecoveryStats& rs = supervisor->stats();
    if (rs.stage_failures + rs.checkpoint_failures + rs.resumes > 0)
      std::cout << "Recovery: " << rs.stage_failures << " stage failures, " << rs.retries
                << " retries, " << rs.rollbacks << " rollbacks (" << rs.replayed_cycles
                << " cycles replayed), " << rs.degraded_cycles << " degraded cycles, "
                << rs.checkpoint_failures << " checkpoint failures\n";
    std::cout << "Checkpoints: " << rs.checkpoints_written << " generations written to "
              << opt.supervise_dir << "\n";
  }

  if (!opt.checkpoint_path.empty()) {
    runner->system().save_checkpoint(opt.checkpoint_path, &platform);
    std::cout << "Saved checkpoint to " << opt.checkpoint_path << " ("
              << runner->system().cycles_run() << " cycles run)\n";
  }
  if (!opt.cycle_log_path.empty() && !supervised) {
    // On resume, append rows without a header so the two halves concatenate
    // into one valid CSV — byte-identical to the uninterrupted run's log.
    // (The supervised path streams the log row by row instead.)
    core::CycleLogOptions log_opts;
    log_opts.include_wall_clock = false;
    log_opts.include_header = opt.resume_path.empty();
    std::ofstream os(opt.cycle_log_path,
                     opt.resume_path.empty() ? std::ios::out : std::ios::app);
    if (!os) throw std::runtime_error("cannot open " + opt.cycle_log_path);
    core::write_cycle_log(setup.data, outcomes, os, log_opts);
  }
  if (!opt.cycle_log_path.empty())
    std::cout << "Wrote cycle log to " << opt.cycle_log_path << "\n";
  if (!opt.metrics_json_path.empty()) {
    core::write_metrics_json_deterministic_file(runner->system().observability(),
                                                opt.metrics_json_path);
    std::cout << "Wrote deterministic metrics JSON to " << opt.metrics_json_path << "\n";
  }
  if (!opt.weights_out_path.empty()) {
    std::ofstream os(opt.weights_out_path);
    if (!os) throw std::runtime_error("cannot open " + opt.weights_out_path);
    os << std::hexfloat;
    for (double w : runner->system().committee().weights()) os << w << "\n";
    if (!os) throw std::runtime_error("cannot write " + opt.weights_out_path);
    std::cout << "Wrote final expert weights to " << opt.weights_out_path << "\n";
  }

  if (const obs::Observability* o = runner->system().observability()) {
    const obs::MetricsRegistry& reg = o->metrics();
    std::cout << "\nObservability (" << reg.size() << " series collected):\n";
    if (const obs::Counter* c = reg.find_counter("crowdlearn_broker_retries_total"))
      std::cout << "  broker escalation retries: " << c->value() << "\n";
    if (const obs::Histogram* h =
            reg.find_histogram("crowdlearn_cycle_crowd_delay_seconds"))
      std::cout << "  mean crowd delay: " << h->snapshot().mean() << " s\n";
    core::write_metrics_text_file(o, "quickstart_metrics.prom");
    core::write_trace_file(o, "quickstart_trace.json");
    std::cout << "  wrote quickstart_metrics.prom and quickstart_trace.json "
                 "(load the trace at https://ui.perfetto.dev)\n";
  }

  std::cout << "\nDone. See examples/disaster_response.cpp for the full evaluation.\n";
  return 0;
}

int main(int argc, char** argv) {
  return crowdlearn::runtime::run_guarded_typed(run, argc, argv);
}
