#include "probes.hpp"

#include <algorithm>
#include <cctype>

#include "ckpt/generations.hpp"
#include "experts/committee.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

namespace cl = crowdlearn;
using cl::core::CycleStage;

void StageClock::attach(cl::core::CrowdLearnSystem& system) {
  seen_.fill(false);
  system.set_stage_hook([this](CycleStage s) {
    const auto i = static_cast<std::size_t>(s);
    marks_[i] = Clock::now();
    seen_[i] = true;
  });
}

void StageClock::cycle_done() {
  const auto end = Clock::now();
  // A stage ends where the next crossed stage begins; the last one ends
  // when run_cycle returns.
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    if (!seen_[i]) continue;
    auto stop = end;
    for (std::size_t j = i + 1; j < marks_.size(); ++j) {
      if (seen_[j]) {
        stop = marks_[j];
        break;
      }
    }
    tracer_.span(std::string("core.stage.") + cl::core::cycle_stage_name(static_cast<CycleStage>(i)),
                 marks_[i], stop);
  }
  seen_.fill(false);
}

void report_stages(Report& report, const Tracer& tracer, double stream_ms) {
  for (CycleStage s : kReportedStages) {
    const std::string name = cl::core::cycle_stage_name(s);
    const std::string span = "core.stage." + name;
    report.metric("core.stage_ms." + name, median(tracer.durations_ms(span)), "ms");
    report.metric("core.stage_share." + name,
                  stream_ms > 0.0 ? tracer.total_ms(span) / stream_ms : 0.0, "ratio");
  }
}

void report_crowd(Report& report, const std::vector<cl::core::CycleOutcome>& outcomes) {
  std::size_t queries = 0, retries = 0, failed = 0, fallbacks = 0;
  for (const auto& o : outcomes) {
    queries += o.queried_ids.size();
    retries += o.query_retries;
    failed += o.failed_queries;
    fallbacks += o.fallback_ids.size();
  }
  report.metric("crowd.queries", static_cast<double>(queries), "count");
  report.metric("crowd.retries", static_cast<double>(retries), "count");
  report.metric("crowd.failed", static_cast<double>(failed), "count");
  report.metric("crowd.fallbacks", static_cast<double>(fallbacks), "count");
  // Base: queries posted. A query is useful when the crowd, not the
  // committee fallback, answered it.
  report.metric("crowd.useful_ratio",
                queries == 0 ? 0.0
                             : static_cast<double>(queries - std::min(queries, fallbacks)) /
                                   static_cast<double>(queries),
                "ratio");
}

void probe_expert_training(Report& report, Tracer& tracer, const cl::dataset::Dataset& data,
                           cl::util::ThreadPool& pool, std::uint64_t seed) {
  cl::experts::ExpertCommittee solo = cl::experts::make_default_committee();
  double solo_sum = 0.0;
  for (std::size_t m = 0; m < solo.size(); ++m) {
    cl::experts::DdaAlgorithm& expert = solo.expert(m);
    std::string key = expert.name();
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    expert.set_thread_pool(&pool);
    cl::Rng rng(seed);
    const auto t0 = Clock::now();
    expert.train(data, data.train_indices, rng);
    const auto t1 = Clock::now();
    tracer.span("experts.train_solo." + key, t0, t1);
    report.metric("experts.train_solo_s." + key, seconds_between(t0, t1), "s");
    solo_sum += seconds_between(t0, t1);
  }
  cl::experts::ExpertCommittee all = cl::experts::make_default_committee();
  all.set_thread_pool(&pool);
  cl::Rng rng(seed);
  const auto t0 = Clock::now();
  all.train_all(data, data.train_indices, rng);
  const auto t1 = Clock::now();
  tracer.span("experts.train_all", t0, t1);
  const double train_all = seconds_between(t0, t1);
  report.metric("experts.train_all_s", train_all, "s");
  // Base: the sum of the three solo trainings.
  report.metric("experts.train_speedup", solo_sum / train_all, "ratio");
}

void probe_votes(Report& report, cl::experts::ExpertCommittee& committee,
                 const cl::dataset::Dataset& data, std::uint64_t seed) {
  std::vector<std::size_t> ids = data.test_indices;
  std::mt19937_64 rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.resize(std::min<std::size_t>(64, ids.size()));
  std::size_t next = 0;
  report.metric("experts.votes_batch_ms.b1", median_ms(31, [&] {
                  committee.expert_votes_batch(data, {ids[next++ % ids.size()]});
                }),
                "ms");
  report.metric("experts.votes_batch_ms.b64",
                median_ms(7, [&] { committee.expert_votes_batch(data, ids); }), "ms");
}

void probe_cqc_fit(Report& report, const cl::core::ExperimentSetup& setup,
                   cl::util::ThreadPool& pool) {
  const cl::core::CrowdLearnConfig cfg = cl::core::default_crowdlearn_config(setup);
  const double ms = median_ms(3, [&] {
    cl::core::CqcModule cqc(cfg.cqc);
    cqc.set_thread_pool(&pool);
    cqc.fit_from_pilot(setup.pilot, setup.data);
  });
  report.metric("gbdt.cqc_fit_s", ms / 1000.0, "s");
}

void probe_checkpoint(Report& report, cl::core::CrowdLearnSystem& system,
                      cl::crowd::CrowdPlatform& platform, const std::string& ring_dir) {
  std::string image;
  report.metric("ckpt.state_image_ms",
                median_ms(5, [&] { image = system.state_image(&platform); }), "ms");
  report.metric("ckpt.state_image_bytes", static_cast<double>(image.size()), "bytes");
  report.metric("ckpt.load_state_image_ms",
                median_ms(5, [&] { system.load_state_image(image, &platform); }), "ms");
  cl::ckpt::GenerationRing ring({ring_dir, 2});
  std::uint64_t generation = 0;
  report.metric("ckpt.ring_save_ms", median_ms(5, [&] { ring.save(image, generation++); }), "ms");
}

bool labels_every_image(const cl::core::CycleOutcome& outcome) {
  const std::size_t n = outcome.image_ids.size();
  if (n == 0 || outcome.predictions.size() != n || outcome.probabilities.size() != n) return false;
  for (std::size_t p : outcome.predictions)
    if (p >= cl::dataset::kNumSeverityClasses) return false;
  return true;
}

void LabelTally::add(const cl::dataset::Dataset& data,
                     const std::vector<cl::core::CycleOutcome>& outcomes) {
  const cl::core::FlattenedRun flat = cl::core::flatten_outcomes(data, outcomes);
  truth.insert(truth.end(), flat.truth.begin(), flat.truth.end());
  predicted.insert(predicted.end(), flat.predictions.begin(), flat.predictions.end());
}

double LabelTally::macro_f1() const {
  return cl::stats::evaluate_classification(truth, predicted, cl::dataset::kNumSeverityClasses).f1;
}

}  // namespace perfbench
