#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "experts/bovw.hpp"
#include "experts/vgg16_like.hpp"
#include "util/thread_pool.hpp"

// Determinism contract of the parallel execution layer: running the full
// CrowdLearn closed loop with the same seed must produce byte-identical
// CycleOutcomes at ANY thread count. Every floating-point comparison below is
// exact (operator== on doubles) on purpose — "close enough" would let
// nondeterministic reduction orders slip through.

namespace crowdlearn::core {
namespace {

experts::ExpertCommittee fast_committee() {
  experts::BovwConfig fast;
  fast.train.epochs = 6;
  fast.train.learning_rate = 0.05;
  std::vector<std::unique_ptr<experts::DdaAlgorithm>> experts_vec;
  for (int i = 0; i < 3; ++i)
    experts_vec.push_back(std::make_unique<experts::BovwClassifier>(fast));
  return experts::ExpertCommittee(std::move(experts_vec));
}

/// Rebuild the entire experiment from scratch (dataset, pilot, committee,
/// platform) and run the stream with the given thread count. Each invocation
/// is fully independent, so any cross-run difference can only come from the
/// thread count. `faults` applies to the deployment platform only (the pilot
/// study runs clean, as in the benches).
std::vector<CycleOutcome> run_loop(std::size_t num_threads,
                                   const crowd::FaultInjectionConfig& faults = {},
                                   bool observability = false) {
  ExperimentConfig cfg;
  cfg.dataset.total_images = 140;
  cfg.dataset.train_images = 90;
  cfg.stream.num_cycles = 3;
  cfg.stream.images_per_cycle = 8;
  cfg.stream.grouped_contexts = false;
  cfg.pilot.queries_per_cell = 6;
  cfg.seed = 97;
  ExperimentSetup setup = make_setup(cfg);
  setup.platform_cfg.faults = faults;

  CrowdLearnConfig sys_cfg = default_crowdlearn_config(setup, 4, 240.0);
  sys_cfg.num_threads = num_threads;
  sys_cfg.observability.enabled = observability;

  CrowdLearnSystem system(fast_committee(), sys_cfg);
  system.initialize(setup.data, setup.pilot);
  crowd::CrowdPlatform platform = make_platform(setup, 1);
  dataset::SensingCycleStream stream(setup.data, setup.stream_cfg);
  return system.run_stream(setup.data, platform, stream);
}

void expect_identical(const std::vector<CycleOutcome>& a, const std::vector<CycleOutcome>& b,
                      const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(std::string(label) + ", cycle " + std::to_string(c));
    EXPECT_EQ(a[c].cycle_index, b[c].cycle_index);
    EXPECT_EQ(a[c].image_ids, b[c].image_ids);
    EXPECT_EQ(a[c].predictions, b[c].predictions);
    EXPECT_EQ(a[c].probabilities, b[c].probabilities);  // exact, element-wise
    EXPECT_EQ(a[c].queried_ids, b[c].queried_ids);
    EXPECT_EQ(a[c].incentives_cents, b[c].incentives_cents);
    EXPECT_EQ(a[c].expert_losses, b[c].expert_losses);
    EXPECT_EQ(a[c].expert_weights, b[c].expert_weights);
    EXPECT_EQ(a[c].crowd_delay_seconds, b[c].crowd_delay_seconds);
    EXPECT_EQ(a[c].spent_cents, b[c].spent_cents);
    EXPECT_EQ(a[c].fallback_ids, b[c].fallback_ids);
    EXPECT_EQ(a[c].query_retries, b[c].query_retries);
    EXPECT_EQ(a[c].partial_queries, b[c].partial_queries);
    EXPECT_EQ(a[c].failed_queries, b[c].failed_queries);
  }
}

TEST(Determinism, CnnCommitteeTrainingIsByteIdenticalAcrossThreadCounts) {
  // The im2col+GEMM convolution path chunks its batch loops over the same
  // pool as the committee, so a CNN expert exercises pool nesting: the
  // committee parallelizes over experts/images and the conv kernels' joins,
  // started on the workers, spread over whichever workers are idle.
  // Training + batch inference must still be byte-identical at any thread
  // count.
  auto run = [](std::size_t threads) {
    dataset::DatasetConfig gen_cfg;
    gen_cfg.total_images = 60;
    gen_cfg.train_images = 40;
    gen_cfg.seed = 51;
    const dataset::Dataset data = dataset::generate_dataset(gen_cfg);

    experts::Vgg16Config tiny;
    tiny.conv1_channels = 4;
    tiny.conv2_channels = 6;
    tiny.hidden = 16;
    tiny.train.epochs = 2;
    std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
    roster.push_back(std::make_unique<experts::Vgg16Like>(tiny));
    roster.push_back(std::make_unique<experts::Vgg16Like>(tiny));
    experts::ExpertCommittee committee(std::move(roster));

    util::ThreadPool pool(threads);
    committee.set_thread_pool(&pool);
    std::vector<std::size_t> train_ids, eval_ids;
    for (std::size_t i = 0; i < 40; ++i) train_ids.push_back(i);
    for (std::size_t i = 40; i < 60; ++i) eval_ids.push_back(i);
    Rng rng(53);
    committee.train_all(data, train_ids, rng);
    return committee.expert_votes_batch(data, eval_ids);
  };
  const auto serial = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(serial.size(), two.size());
  ASSERT_EQ(serial.size(), eight.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], two[i]) << "CNN votes, 1 vs 2 threads, image " << i;
    EXPECT_EQ(serial[i], eight[i]) << "CNN votes, 1 vs 8 threads, image " << i;
  }
}

TEST(Determinism, RunStreamIsByteIdenticalAcrossThreadCounts) {
  const std::vector<CycleOutcome> serial = run_loop(1);
  const std::vector<CycleOutcome> two = run_loop(2);
  const std::vector<CycleOutcome> eight = run_loop(8);
  expect_identical(serial, two, "1 vs 2 threads");
  expect_identical(serial, eight, "1 vs 8 threads");
}

TEST(Determinism, RepeatedRunsAtSameThreadCountAreByteIdentical) {
  const std::vector<CycleOutcome> first = run_loop(2);
  const std::vector<CycleOutcome> second = run_loop(2);
  expect_identical(first, second, "2 threads, run 1 vs run 2");
}

TEST(Determinism, ZeroProbabilityFaultLayerLeavesOutcomesByteIdentical) {
  // The fault layer armed (any() == true via a never-reached outage window)
  // but with every probability at zero must produce the exact CycleOutcome
  // stream of a run with no fault layer at all: the behavioral RNG stream is
  // untouched and the broker's single clean attempt reduces to post_query.
  crowd::FaultInjectionConfig zero;
  zero.outages.push_back({1000000, 1000001});
  ASSERT_TRUE(zero.any());
  const std::vector<CycleOutcome> plain = run_loop(1);
  const std::vector<CycleOutcome> armed = run_loop(1, zero);
  expect_identical(plain, armed, "no fault layer vs zero-probability layer");
  for (const CycleOutcome& out : plain) {
    EXPECT_EQ(out.query_retries, 0u);
    EXPECT_EQ(out.partial_queries, 0u);
    EXPECT_EQ(out.failed_queries, 0u);
    EXPECT_TRUE(out.fallback_ids.empty());
  }
}

TEST(Determinism, ObservabilityDoesNotPerturbOutcomesAtAnyThreadCount) {
  // Instrumentation only reads the steady clock and writes to atomics — it
  // must never draw from the behavioral RNG streams or feed back into
  // control flow. Runs with observability enabled therefore have to be
  // byte-identical to runs without it, at every thread count.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<CycleOutcome> plain = run_loop(threads);
    const std::vector<CycleOutcome> instrumented = run_loop(threads, {}, true);
    expect_identical(plain, instrumented, "obs off vs obs on");
  }
}

TEST(Determinism, FaultyRunDegradesGracefullyAtAnyThreadCount) {
  // Heavy abandonment plus an outage window long enough to swallow a whole
  // query lifecycle (3 consecutive attempts): every cycle must still
  // complete, with committee fallbacks recorded, and the outcome stream must
  // stay byte-identical at 1/2/8 threads.
  crowd::FaultInjectionConfig faults;
  faults.abandonment_prob = 0.25;
  faults.outages.push_back({4, 10});

  const std::vector<CycleOutcome> serial = run_loop(1, faults);
  const std::vector<CycleOutcome> two = run_loop(2, faults);
  const std::vector<CycleOutcome> eight = run_loop(8, faults);
  expect_identical(serial, two, "faulty, 1 vs 2 threads");
  expect_identical(serial, eight, "faulty, 1 vs 8 threads");

  ASSERT_EQ(serial.size(), 3u);
  std::size_t fallbacks = 0, retries = 0;
  for (const CycleOutcome& out : serial) {
    // Every image got a final prediction despite the faults.
    ASSERT_EQ(out.predictions.size(), out.image_ids.size());
    for (const auto& p : out.probabilities) ASSERT_EQ(p.size(), dataset::kNumSeverityClasses);
    ASSERT_EQ(out.fallback_ids.size(), out.failed_queries);
    fallbacks += out.fallback_ids.size();
    retries += out.query_retries;
  }
  EXPECT_GE(fallbacks, 1u) << "the outage window must fail at least one query";
  EXPECT_GE(retries, 1u);
}

}  // namespace
}  // namespace crowdlearn::core
