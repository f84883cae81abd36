// Checkpoint/restore round trips (docs/CHECKPOINTING.md), from single modules
// up to the full closed loop. The headline property: "run 20 cycles" and
// "run 12, checkpoint, restore into fresh objects, run 8" must be
// byte-identical — same CycleOutcomes, same cycle-log CSV, same deterministic
// metrics JSON, same final expert weights, same platform ledgers — at any
// thread count, with the fault layer on or off. Fresh objects restored from
// the file stand in for a fresh process (the file is the only channel).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bandit/ucb_alp.hpp"
#include "ckpt/io.hpp"
#include "ckpt/state.hpp"
#include "core/experiment.hpp"
#include "core/recorder.hpp"
#include "experts/bovw.hpp"
#include "gbdt/adaboost.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/hist.hpp"
#include "truth/cqc.hpp"
#include "truth/td_em.hpp"

namespace crowdlearn {
namespace {

using core::CrowdLearnConfig;
using core::CrowdLearnSystem;
using core::CycleOutcome;

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// ---------------------------------------------------------------------------
// Module round trips
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> random_rows(std::size_t n, std::size_t d, Rng& rng) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(d));
  for (auto& row : rows)
    for (double& v : row) v = rng.uniform(0, 1);
  return rows;
}

TEST(CkptModuleRoundTrip, GbdtPredictionsAreBitExact) {
  Rng rng(5);
  const auto rows = random_rows(150, 8, rng);
  const auto x = gbdt::FeatureMatrix::from_rows(rows);
  std::vector<std::size_t> y(150);
  for (auto& v : y) v = rng.index(3);
  gbdt::GbdtConfig cfg;
  cfg.num_rounds = 12;
  gbdt::Gbdt model;
  model.fit(x, y, 3, cfg);

  ckpt::Writer w;
  model.save_state(w);
  gbdt::Gbdt restored;
  ckpt::Reader r(w.payload());
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());

  for (const auto& row : rows)
    EXPECT_EQ(model.predict_proba(row), restored.predict_proba(row));

  // Re-serialization is byte-identical: nothing was lost or reordered.
  ckpt::Writer w2;
  restored.save_state(w2);
  EXPECT_EQ(w.payload(), w2.payload());
}

TEST(CkptModuleRoundTrip, GbdtMalformedPayloadLeavesModelUntouched) {
  Rng rng(6);
  const auto x = gbdt::FeatureMatrix::from_rows(random_rows(80, 6, rng));
  std::vector<std::size_t> y(80);
  for (auto& v : y) v = rng.index(3);
  gbdt::GbdtConfig cfg;
  cfg.num_rounds = 6;
  gbdt::Gbdt model;
  model.fit(x, y, 3, cfg);

  ckpt::Writer before;
  model.save_state(before);

  // Truncate the serialized state mid-tree: parsing must fail typed and the
  // model must keep answering exactly as before.
  ckpt::Reader r(before.payload().substr(0, before.payload().size() / 2));
  try {
    model.load_state(r);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kMalformed);
  }
  ckpt::Writer after;
  model.save_state(after);
  EXPECT_EQ(before.payload(), after.payload());
}

/// Synthetic labeled crowd queries with valid questionnaires, enough signal
/// for a CQC retrain without standing up a dataset + platform.
std::vector<truth::LabeledQuery> synth_labeled_queries(std::size_t n, Rng& rng) {
  std::vector<truth::LabeledQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    truth::LabeledQuery lq;
    lq.true_label = rng.index(dataset::kNumSeverityClasses);
    const std::size_t answers = 3 + rng.index(4);
    for (std::size_t wid = 0; wid < answers; ++wid) {
      crowd::WorkerAnswer a;
      a.worker_id = wid;
      a.label = rng.uniform(0, 1) < 0.7 ? lq.true_label
                                        : rng.index(dataset::kNumSeverityClasses);
      a.questionnaire.resize(dataset::Questionnaire::kDims);
      for (double& q : a.questionnaire)
        q = rng.uniform(0, 1) < 0.5 + 0.1 * static_cast<double>(lq.true_label) ? 1.0 : 0.0;
      a.delay_seconds = rng.uniform(20.0, 400.0);
      lq.response.answers.push_back(std::move(a));
    }
    out.push_back(std::move(lq));
  }
  return out;
}

TEST(CkptModuleRoundTrip, HistogramCqcMidTrainingResumeIsByteIdentical) {
  // CQC retrains every cycle; a checkpoint lands between two retrains. The
  // forest (docs/GBDT.md) must resume byte-identically, and the resumed
  // aggregator's next retrain — which rebuilds its bin boundaries from the
  // new training set — must match the uninterrupted one.
  Rng rng(31);
  const auto first_batch = synth_labeled_queries(120, rng);
  const auto second_batch = synth_labeled_queries(180, rng);

  truth::CqcAggregator cqc;
  cqc.fit(first_batch);

  // Checkpoint mid-training (after retrain #1, before retrain #2).
  ckpt::Writer w;
  cqc.save_state(w);
  truth::CqcAggregator resumed;
  ckpt::Reader r(w.payload());
  resumed.load_state(r);
  EXPECT_TRUE(r.at_end());

  ckpt::Writer w2;
  resumed.save_state(w2);
  EXPECT_EQ(w.payload(), w2.payload());

  // Aggregations agree exactly before the next retrain...
  std::vector<crowd::QueryResponse> eval;
  for (const auto& lq : second_batch) eval.push_back(lq.response);
  EXPECT_EQ(cqc.aggregate(eval), resumed.aggregate(eval));

  // ...and after it: resume-then-retrain == never-interrupted retrain.
  cqc.fit(second_batch);
  resumed.fit(second_batch);
  ckpt::Writer wa, wb;
  cqc.save_state(wa);
  resumed.save_state(wb);
  EXPECT_EQ(wa.payload(), wb.payload());
}

TEST(CkptModuleRoundTrip, AdaBoostPredictionsAreBitExact) {
  Rng rng(7);
  const auto rows = random_rows(120, 6, rng);
  const auto x = gbdt::FeatureMatrix::from_rows(rows);
  std::vector<std::size_t> y(120);
  for (auto& v : y) v = rng.index(3);
  gbdt::AdaBoostConfig cfg;
  cfg.num_rounds = 8;
  gbdt::AdaBoostSamme model;
  model.fit(x, y, 3, cfg);

  ckpt::Writer w;
  model.save_state(w);
  gbdt::AdaBoostSamme restored;
  ckpt::Reader r(w.payload());
  restored.load_state(r);

  EXPECT_EQ(restored.num_learners(), model.num_learners());
  EXPECT_EQ(restored.learner_weights(), model.learner_weights());
  for (const auto& row : rows)
    EXPECT_EQ(model.predict_proba(row), restored.predict_proba(row));
}

TEST(CkptModuleRoundTrip, UcbAlpContinuationIsBitExact) {
  bandit::UcbAlpConfig cfg;
  cfg.action_costs = {1, 2, 4, 6, 8, 10, 20};
  cfg.num_contexts = 4;
  cfg.total_budget_cents = 600.0;
  cfg.horizon = 150;
  cfg.seed = 13;
  bandit::UcbAlpPolicy policy(cfg);
  Rng delays(99);
  for (int i = 0; i < 40; ++i) {
    const std::size_t ctx = static_cast<std::size_t>(i) % 4;
    policy.observe(ctx, policy.choose(ctx), delays.uniform(20, 900));
  }

  ckpt::Writer w;
  policy.save_state(w);
  bandit::UcbAlpPolicy restored(cfg);
  ckpt::Reader r(w.payload());
  restored.load_state(r);

  EXPECT_EQ(restored.remaining_budget_cents(), policy.remaining_budget_cents());
  EXPECT_EQ(restored.remaining_rounds(), policy.remaining_rounds());
  for (std::size_t c = 0; c < 4; ++c)
    for (std::size_t a = 0; a < cfg.action_costs.size(); ++a) {
      EXPECT_EQ(restored.pull_count(c, a), policy.pull_count(c, a));
      EXPECT_EQ(restored.mean_reward(c, a), policy.mean_reward(c, a));
    }

  // The continuation — choices AND their internal RNG tie-breaks — must
  // agree exactly for a long horizon.
  Rng delays2(99);
  for (int i = 0; i < 60; ++i) {
    const std::size_t ctx = static_cast<std::size_t>(i) % 4;
    const double a = policy.choose(ctx);
    const double b = restored.choose(ctx);
    EXPECT_EQ(a, b) << "diverged at step " << i;
    const double delay = delays2.uniform(20, 900);
    policy.observe(ctx, a, delay);
    restored.observe(ctx, b, delay);
  }
}

TEST(CkptModuleRoundTrip, UcbAlpWrongDimensionsAreMalformed) {
  bandit::UcbAlpConfig small;
  small.action_costs = {1, 2, 4};
  small.num_contexts = 2;
  small.total_budget_cents = 100.0;
  small.horizon = 50;
  bandit::UcbAlpPolicy policy(small);
  ckpt::Writer w;
  policy.save_state(w);

  bandit::UcbAlpConfig big = small;
  big.action_costs = {1, 2, 4, 6};
  bandit::UcbAlpPolicy other(big);
  ckpt::Reader r(w.payload());
  try {
    other.load_state(r);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kMalformed);
  }
}

TEST(CkptModuleRoundTrip, TdEmReliabilityRoundTrips) {
  crowd::QueryResponse resp;
  for (std::size_t wid = 0; wid < 5; ++wid)
    resp.answers.push_back({wid, wid % 3, {}, 30.0 + static_cast<double>(wid)});
  truth::TdEm em;
  em.aggregate({resp});
  ASSERT_FALSE(em.worker_reliability().empty());

  ckpt::Writer w;
  em.save_state(w);
  truth::TdEm restored;
  ckpt::Reader r(w.payload());
  restored.load_state(r);
  EXPECT_EQ(restored.worker_reliability(), em.worker_reliability());
  EXPECT_EQ(restored.iterations_used(), em.iterations_used());
}

TEST(CkptModuleRoundTrip, MetricsRegistryRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("requests_total").inc(41);
  reg.gauge("queue_depth").set(-2.5);
  obs::Histogram& h = reg.histogram("latency", obs::Histogram::linear_bounds(1, 1, 4));
  h.observe(0.5);
  h.observe(2.5);
  h.observe(100.0);

  ckpt::Writer w;
  ckpt::save_metrics(w, reg);
  obs::MetricsRegistry restored;
  ckpt::Reader r(w.payload());
  ckpt::load_metrics(r, restored);

  std::ostringstream a, b;
  reg.write_json(a);
  restored.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------------------
// Full-system resume
// ---------------------------------------------------------------------------

experts::ExpertCommittee fast_committee(std::size_t n = 2) {
  experts::BovwConfig fast;
  fast.train.epochs = 10;
  fast.train.learning_rate = 0.05;
  std::vector<std::unique_ptr<experts::DdaAlgorithm>> experts_vec;
  for (std::size_t i = 0; i < n; ++i)
    experts_vec.push_back(std::make_unique<experts::BovwClassifier>(fast));
  return experts::ExpertCommittee(std::move(experts_vec));
}

class CkptSystemTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kTotalCycles = 20;
  static constexpr std::size_t kSplitAt = 12;

  static const core::ExperimentSetup& setup() {
    static const core::ExperimentSetup s = [] {
      core::ExperimentConfig cfg;
      cfg.dataset.total_images = 160;
      cfg.dataset.train_images = 100;
      cfg.stream.num_cycles = kTotalCycles;
      cfg.stream.images_per_cycle = 3;
      cfg.stream.grouped_contexts = false;
      cfg.pilot.queries_per_cell = 6;
      cfg.seed = 81;
      return core::make_setup(cfg);
    }();
    return s;
  }

  static CrowdLearnConfig system_config(std::size_t num_threads, bool faults) {
    CrowdLearnConfig cfg =
        core::default_crowdlearn_config(setup(), /*queries_per_cycle=*/2, 400.0);
    cfg.num_threads = num_threads;
    cfg.observability.enabled = true;
    (void)faults;  // faults live in the platform config, not the system's
    return cfg;
  }

  static crowd::CrowdPlatform make_platform(bool faults) {
    crowd::PlatformConfig pcfg = setup().platform_cfg;
    pcfg.seed = setup().seed + 17;
    if (faults) {
      pcfg.faults.abandonment_prob = 0.08;
      pcfg.faults.straggler_prob = 0.10;
      pcfg.faults.blank_questionnaire_prob = 0.05;
      pcfg.faults.malformed_label_prob = 0.05;
      pcfg.faults.duplicate_prob = 0.08;
      pcfg.faults.outages.push_back({9, 11});
    }
    return crowd::CrowdPlatform(&setup().data, pcfg);
  }

  /// Everything in a CycleOutcome except the wall-clock algorithm delay must
  /// match bit-for-bit.
  static void expect_outcomes_identical(const std::vector<CycleOutcome>& a,
                                        const std::vector<CycleOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE("cycle " + std::to_string(i));
      EXPECT_EQ(a[i].cycle_index, b[i].cycle_index);
      EXPECT_EQ(a[i].context, b[i].context);
      EXPECT_EQ(a[i].image_ids, b[i].image_ids);
      EXPECT_EQ(a[i].probabilities, b[i].probabilities);  // exact doubles
      EXPECT_EQ(a[i].predictions, b[i].predictions);
      EXPECT_EQ(a[i].queried_ids, b[i].queried_ids);
      EXPECT_EQ(a[i].incentives_cents, b[i].incentives_cents);
      EXPECT_EQ(a[i].crowd_delay_seconds, b[i].crowd_delay_seconds);
      EXPECT_EQ(a[i].spent_cents, b[i].spent_cents);
      EXPECT_EQ(a[i].expert_losses, b[i].expert_losses);
      EXPECT_EQ(a[i].expert_weights, b[i].expert_weights);
      EXPECT_EQ(a[i].fallback_ids, b[i].fallback_ids);
      EXPECT_EQ(a[i].query_retries, b[i].query_retries);
      EXPECT_EQ(a[i].partial_queries, b[i].partial_queries);
      EXPECT_EQ(a[i].failed_queries, b[i].failed_queries);
    }
  }

  static std::string deterministic_csv(const std::vector<CycleOutcome>& outcomes,
                                       bool include_header) {
    core::CycleLogOptions opts;
    opts.include_wall_clock = false;
    opts.include_header = include_header;
    std::ostringstream os;
    core::write_cycle_log(setup().data, outcomes, os, opts);
    return os.str();
  }

  static std::string deterministic_metrics(const CrowdLearnSystem& system) {
    std::ostringstream os;
    core::write_metrics_json_deterministic(system.observability(), os);
    return os.str();
  }

  /// The headline equivalence, for one (threads, faults) configuration.
  void run_split_equivalence(std::size_t num_threads, bool faults) {
    const dataset::SensingCycleStream stream(setup().data, setup().stream_cfg);

    // Reference: one uninterrupted 20-cycle run.
    CrowdLearnSystem full(fast_committee(), system_config(num_threads, faults));
    full.initialize(setup().data, setup().pilot);
    crowd::CrowdPlatform full_platform = make_platform(faults);
    std::vector<CycleOutcome> full_outcomes;
    for (const dataset::SensingCycle& cycle : stream.cycles())
      full_outcomes.push_back(full.run_cycle(setup().data, full_platform, cycle));

    // First half: 12 cycles, then checkpoint (system + platform).
    TempFile ckpt_file("ckpt_split_" + std::to_string(num_threads) +
                       (faults ? "_faults.bin" : "_clean.bin"));
    std::vector<CycleOutcome> first_half;
    {
      CrowdLearnSystem sys(fast_committee(), system_config(num_threads, faults));
      sys.initialize(setup().data, setup().pilot);
      crowd::CrowdPlatform platform = make_platform(faults);
      for (const dataset::SensingCycle& cycle : stream.cycles()) {
        if (cycle.index >= kSplitAt) break;
        first_half.push_back(sys.run_cycle(setup().data, platform, cycle));
      }
      EXPECT_EQ(sys.cycles_run(), kSplitAt);
      sys.save_checkpoint(ckpt_file.path, &platform);
    }  // everything from the first half dies here; only the file survives

    // Second half: fresh objects (standing in for a fresh process), resume,
    // run the remaining 8 cycles.
    CrowdLearnSystem resumed(fast_committee(), system_config(num_threads, faults));
    crowd::CrowdPlatform resumed_platform = make_platform(faults);
    resumed.resume_from(ckpt_file.path, &resumed_platform);
    EXPECT_TRUE(resumed.initialized());
    EXPECT_EQ(resumed.cycles_run(), kSplitAt);
    const std::size_t first_cycle = resumed.cycles_run();
    std::vector<CycleOutcome> second_half;
    for (const dataset::SensingCycle& cycle : stream.cycles()) {
      if (cycle.index < first_cycle) continue;
      second_half.push_back(resumed.run_cycle(setup().data, resumed_platform, cycle));
    }

    // Outcome-by-outcome equality (first 12 from the pre-checkpoint run,
    // last 8 from the resumed one).
    std::vector<CycleOutcome> stitched = first_half;
    stitched.insert(stitched.end(), second_half.begin(), second_half.end());
    expect_outcomes_identical(full_outcomes, stitched);

    // The recorder's deterministic CSV concatenates byte-identically.
    EXPECT_EQ(deterministic_csv(full_outcomes, true),
              deterministic_csv(first_half, true) +
                  deterministic_csv(second_half, false));

    // Deterministic metrics JSON of the resumed system matches the
    // uninterrupted run (checkpointed counters + restored registry).
    EXPECT_EQ(deterministic_metrics(full), deterministic_metrics(resumed));

    // Final expert weights and platform ledgers agree exactly.
    EXPECT_EQ(full.committee().weights(), resumed.committee().weights());
    EXPECT_EQ(full_platform.total_spent_cents(), resumed_platform.total_spent_cents());
    EXPECT_EQ(full_platform.queries_posted(), resumed_platform.queries_posted());
    EXPECT_EQ(full_platform.fault_stats().stragglers,
              resumed_platform.fault_stats().stragglers);
    EXPECT_EQ(full_platform.fault_stats().outage_refusals,
              resumed_platform.fault_stats().outage_refusals);
  }
};

TEST_F(CkptSystemTest, SplitRunIsByteIdentical_1Thread) {
  run_split_equivalence(1, /*faults=*/false);
}
TEST_F(CkptSystemTest, SplitRunIsByteIdentical_2Threads) {
  run_split_equivalence(2, /*faults=*/false);
}
TEST_F(CkptSystemTest, SplitRunIsByteIdentical_8Threads) {
  run_split_equivalence(8, /*faults=*/false);
}
TEST_F(CkptSystemTest, SplitRunIsByteIdentical_1Thread_Faults) {
  run_split_equivalence(1, /*faults=*/true);
}
TEST_F(CkptSystemTest, SplitRunIsByteIdentical_2Threads_Faults) {
  run_split_equivalence(2, /*faults=*/true);
}
TEST_F(CkptSystemTest, SplitRunIsByteIdentical_8Threads_Faults) {
  run_split_equivalence(8, /*faults=*/true);
}

TEST_F(CkptSystemTest, SaveBeforeInitializeThrows) {
  CrowdLearnSystem sys(fast_committee(), system_config(1, false));
  EXPECT_THROW(sys.save_checkpoint(::testing::TempDir() + "/never.bin"),
               std::logic_error);
}

TEST_F(CkptSystemTest, ConfigMismatchIsTypedAndLeavesSystemUntouched) {
  const dataset::SensingCycleStream stream(setup().data, setup().stream_cfg);

  // A checkpoint produced under a different system seed...
  TempFile foreign("ckpt_foreign.bin");
  {
    CrowdLearnConfig other_cfg = system_config(1, false);
    other_cfg.seed = other_cfg.seed + 1;
    CrowdLearnSystem other(fast_committee(), other_cfg);
    other.initialize(setup().data, setup().pilot);
    other.save_checkpoint(foreign.path);
  }

  // ...must be rejected with kConfigMismatch and roll the target back.
  CrowdLearnSystem sys(fast_committee(), system_config(1, false));
  sys.initialize(setup().data, setup().pilot);
  crowd::CrowdPlatform platform = make_platform(false);
  sys.run_cycle(setup().data, platform, stream.cycle(0));

  TempFile before("ckpt_before.bin"), after("ckpt_after.bin");
  sys.save_checkpoint(before.path);
  try {
    sys.resume_from(foreign.path);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kConfigMismatch);
  }
  sys.save_checkpoint(after.path);
  EXPECT_EQ(ckpt::read_file(before.path), ckpt::read_file(after.path));
  EXPECT_EQ(sys.cycles_run(), 1u);  // still exactly where it was
}

TEST_F(CkptSystemTest, PlatformPresenceMismatchIsTyped) {
  TempFile with_platform("ckpt_with_platform.bin");
  TempFile without_platform("ckpt_without_platform.bin");
  {
    CrowdLearnSystem sys(fast_committee(), system_config(1, false));
    sys.initialize(setup().data, setup().pilot);
    crowd::CrowdPlatform platform = make_platform(false);
    sys.save_checkpoint(with_platform.path, &platform);
    sys.save_checkpoint(without_platform.path);
  }

  CrowdLearnSystem sys(fast_committee(), system_config(1, false));
  sys.initialize(setup().data, setup().pilot);
  // Saved with platform state, resumed without the platform: typed refusal.
  try {
    sys.resume_from(with_platform.path);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kConfigMismatch);
  }
  // Saved without platform state, resumed with one: also typed.
  crowd::CrowdPlatform platform = make_platform(false);
  try {
    sys.resume_from(without_platform.path, &platform);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kConfigMismatch);
  }
}

TEST_F(CkptSystemTest, CorruptedCheckpointIsRejectedBeforeAnyMutation) {
  const dataset::SensingCycleStream stream(setup().data, setup().stream_cfg);
  CrowdLearnSystem sys(fast_committee(), system_config(1, false));
  sys.initialize(setup().data, setup().pilot);
  crowd::CrowdPlatform platform = make_platform(false);
  sys.run_cycle(setup().data, platform, stream.cycle(0));

  TempFile good("ckpt_good.bin");
  sys.save_checkpoint(good.path, &platform);

  // Flip one payload byte: the CRC gate must reject the file before
  // resume_from touches any state.
  std::ifstream is(good.path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  is.close();
  image[image.size() - 3] = static_cast<char>(image[image.size() - 3] ^ 0x10);
  TempFile bad("ckpt_bad.bin");
  std::ofstream os(bad.path, std::ios::binary);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  os.close();

  TempFile before("ckpt_state_before.bin"), after("ckpt_state_after.bin");
  sys.save_checkpoint(before.path, &platform);
  try {
    sys.resume_from(bad.path, &platform);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kCrcMismatch);
  }
  sys.save_checkpoint(after.path, &platform);
  EXPECT_EQ(ckpt::read_file(before.path), ckpt::read_file(after.path));
}

TEST_F(CkptSystemTest, Version1ImageIsBadVersionBeforeAnyMutation) {
  // An image of any older container version — 1 (decimal-text networks),
  // 2 (GBT2 forests with bin boundaries) — fails load_state_image with
  // kBadVersion and changes nothing.
  const dataset::SensingCycleStream stream(setup().data, setup().stream_cfg);
  CrowdLearnSystem sys(fast_committee(), system_config(1, false));
  sys.initialize(setup().data, setup().pilot);
  crowd::CrowdPlatform platform = make_platform(false);
  sys.run_cycle(setup().data, platform, stream.cycle(0));

  const std::string before = sys.state_image(&platform);
  for (std::uint32_t version = 1; version < ckpt::kFormatVersion; ++version) {
    std::string old = before;
    old[8] = static_cast<char>(version);  // version u32 little-endian at offset 8
    try {
      sys.load_state_image(old, &platform);
      ADD_FAILURE() << "expected CkptError for version " << version;
    } catch (const ckpt::CkptError& e) {
      EXPECT_EQ(e.code(), ckpt::CkptErrc::kBadVersion) << "version " << version;
    }
    EXPECT_EQ(sys.state_image(&platform), before) << "version " << version;
  }
}

TEST_F(CkptSystemTest, MalformedPayloadBehindValidCrcRollsBack) {
  // A truncated payload re-wrapped in a VALID container (fresh CRC) passes
  // every container gate and fails mid-apply — the rollback path must
  // restore the previous state exactly.
  const dataset::SensingCycleStream stream(setup().data, setup().stream_cfg);
  CrowdLearnSystem sys(fast_committee(), system_config(1, false));
  sys.initialize(setup().data, setup().pilot);
  crowd::CrowdPlatform platform = make_platform(false);
  sys.run_cycle(setup().data, platform, stream.cycle(0));

  TempFile good("ckpt_rollback_good.bin");
  sys.save_checkpoint(good.path, &platform);
  std::string payload = ckpt::read_file(good.path);
  payload.resize(payload.size() * 3 / 4);  // cut mid-module

  // Rebuild a structurally valid container around the damaged payload.
  std::string image(ckpt::kMagic, sizeof ckpt::kMagic);
  auto put32 = [&image](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) image.push_back(static_cast<char>(v >> (8 * i)));
  };
  auto put64 = [&image](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) image.push_back(static_cast<char>(v >> (8 * i)));
  };
  put32(ckpt::kFormatVersion);
  put64(payload.size());
  put32(ckpt::crc32(payload.data(), payload.size()));
  image += payload;
  TempFile crafted("ckpt_rollback_crafted.bin");
  std::ofstream os(crafted.path, std::ios::binary);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  os.close();

  TempFile before("ckpt_rb_before.bin"), after("ckpt_rb_after.bin");
  sys.save_checkpoint(before.path, &platform);
  try {
    sys.resume_from(crafted.path, &platform);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kMalformed);
  }
  sys.save_checkpoint(after.path, &platform);
  EXPECT_EQ(ckpt::read_file(before.path), ckpt::read_file(after.path));

  // And the rolled-back system still runs (state is coherent, not half-new).
  EXPECT_NO_THROW(sys.run_cycle(setup().data, platform, stream.cycle(1)));
}

TEST_F(CkptSystemTest, CommitteeRosterMismatchIsMalformed) {
  experts::ExpertCommittee two = fast_committee(2);
  ckpt::Writer w;
  two.save_state(w);

  experts::ExpertCommittee three = fast_committee(3);
  ckpt::Reader r(w.payload());
  try {
    three.load_state(r);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_EQ(e.code(), ckpt::CkptErrc::kMalformed);
  }
}

}  // namespace
}  // namespace crowdlearn
