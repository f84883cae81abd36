#pragma once
// Per-layer measurements taken from outside the library: stage-hook
// timestamps around run_cycle, and timed calls into each module's public
// functions. Layers are named by the src/ modules (experts, gbdt, core,
// crowd, ckpt, dataset, service).

#include <array>
#include <string>
#include <vector>

#include "core/crowdlearn_system.hpp"
#include "core/experiment.hpp"
#include "harness.hpp"

namespace perfbench {

/// The run_cycle stages the benchmark reports (ingest is a validation step
/// of a few microseconds and is folded into nothing).
inline constexpr std::array<crowdlearn::core::CycleStage, 6> kReportedStages = {
    crowdlearn::core::CycleStage::kCommittee, crowdlearn::core::CycleStage::kQss,
    crowdlearn::core::CycleStage::kCrowd,     crowdlearn::core::CycleStage::kCqc,
    crowdlearn::core::CycleStage::kMic,       crowdlearn::core::CycleStage::kRecord};

/// Times each stage of run_cycle from the gaps between StageHook calls; the
/// last stage ends when run_cycle returns. Spans land in the tracer as
/// "core.stage.<name>".
class StageClock {
 public:
  explicit StageClock(Tracer& tracer) : tracer_(tracer) {}
  void attach(crowdlearn::core::CrowdLearnSystem& system);
  /// Call right after run_cycle returns.
  void cycle_done();

 private:
  Tracer& tracer_;
  std::array<Clock::time_point, crowdlearn::core::kNumCycleStages> marks_{};
  std::array<bool, crowdlearn::core::kNumCycleStages> seen_{};
};

/// core.stage_ms.<stage> (p50) and core.stage_share.<stage> (sum over
/// `stream_ms`).
void report_stages(Report& report, const Tracer& tracer, double stream_ms);

/// crowd.{queries,retries,failed,fallbacks,useful_ratio} summed over cycles.
void report_crowd(Report& report, const std::vector<crowdlearn::core::CycleOutcome>& outcomes);

/// experts.train_solo_s.*, experts.train_all_s, experts.train_speedup: each
/// default-roster expert trained alone on a fresh instance, then a fresh
/// committee's train_all, all with the same data and pool.
void probe_expert_training(Report& report, Tracer& tracer, const crowdlearn::dataset::Dataset& data,
                           crowdlearn::util::ThreadPool& pool, std::uint64_t seed);

/// experts.votes_batch_ms.{b1,b64} on a trained committee.
void probe_votes(Report& report, crowdlearn::experts::ExpertCommittee& committee,
                 const crowdlearn::dataset::Dataset& data, std::uint64_t seed);

/// gbdt.cqc_fit_s: CqcModule::fit_from_pilot on a fresh module.
void probe_cqc_fit(Report& report, const crowdlearn::core::ExperimentSetup& setup,
                   crowdlearn::util::ThreadPool& pool);

/// ckpt.{state_image_ms,state_image_bytes,load_state_image_ms,ring_save_ms}
/// on a live system (the image is loaded back into the same system, which
/// leaves its state unchanged).
void probe_checkpoint(Report& report, crowdlearn::core::CrowdLearnSystem& system,
                      crowdlearn::crowd::CrowdPlatform& platform, const std::string& ring_dir);

/// True when a cycle produced one label distribution and one in-range label
/// per image it was given.
bool labels_every_image(const crowdlearn::core::CycleOutcome& outcome);

/// Golden vs final labels, pooled over any number of scenarios.
struct LabelTally {
  std::vector<std::size_t> truth, predicted;
  void add(const crowdlearn::dataset::Dataset& data,
           const std::vector<crowdlearn::core::CycleOutcome>& outcomes);
  double macro_f1() const;
};

}  // namespace perfbench
