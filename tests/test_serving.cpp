// Serving-path battery for the cross-tenant batch coalescer
// (src/service/coalescer.hpp, docs/SERVING.md). The load-bearing tests pin
// the determinism-under-batching contract:
//
//   1. Batched answers are byte-identical to per-request answers for the
//      same arrival order — classify is a pure read, so lifting requests
//      into a shared committee batch cannot move a single prediction.
//   2. Batch composition is deterministic given a fixed arrival order and
//      flush schedule: the greedy prefix cut depends only on the request
//      sizes, never on worker timing.
//
// Around them: cross-tenant lane isolation, error fan-out to every future
// of a failed batch, linger-timer liveness, ServiceQueue routing, and the
// drain()-concurrent-with-submit regression (timeout-guarded: a deadlock
// fails the watchdog instead of hanging the suite).

#include <unistd.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "experts/bovw.hpp"
#include "obs/observability.hpp"
#include "service/coalescer.hpp"
#include "service/queue.hpp"
#include "service/tenant.hpp"

namespace crowdlearn::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeedBase = 20260808;

struct TempDir {
  std::string path;
  // pid-suffixed: gtest_discover_tests runs each TEST as its own process, so
  // under `ctest -j` two tests sharing a fixture name would otherwise race on
  // the same directory (one destructor deleting the other's live ring).
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "/" + name + "." + std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { std::error_code ec; fs::remove_all(path, ec); }
};

experts::ExpertCommittee fast_committee() {
  experts::BovwConfig fast;
  fast.train.epochs = 10;
  fast.train.learning_rate = 0.05;
  std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
  roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
  roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
  return experts::ExpertCommittee(std::move(roster));
}

TenantSpec tenant_spec(const std::string& name, std::uint64_t seed) {
  TenantSpec spec;
  spec.name = name;
  spec.experiment.dataset.total_images = 120;
  spec.experiment.dataset.train_images = 70;
  spec.experiment.stream.num_cycles = 5;
  spec.experiment.stream.images_per_cycle = 4;
  spec.experiment.stream.grouped_contexts = false;
  spec.experiment.pilot.queries_per_cell = 6;
  spec.experiment.seed = seed;
  spec.queries_per_cycle = 2;
  spec.total_budget_cents = 400.0;
  spec.committee_factory = fast_committee;
  return spec;
}

/// A manager with one warm tenant per name (one training cycle run, so the
/// committee has non-trivial state for classify to read).
std::unique_ptr<TenantManager> make_manager(const TempDir& root,
                                            const std::vector<std::string>& names,
                                            std::size_t num_threads) {
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.num_threads = num_threads;
  auto mgr = std::make_unique<TenantManager>(mcfg);
  for (std::size_t i = 0; i < names.size(); ++i) {
    mgr->add_tenant(tenant_spec(names[i], kSeedBase + i));
    mgr->run_next_cycle(names[i]);
  }
  return mgr;
}

/// Deterministic coalescer config: no linger timer, dispatch only on
/// threshold or flush.
BatchCoalescerConfig deterministic_cfg(std::size_t max_batch) {
  BatchCoalescerConfig cfg;
  cfg.max_batch_images = max_batch;
  cfg.max_linger = std::chrono::milliseconds{0};
  return cfg;
}

/// A fixed arrival sequence of per-request image-id lists, with sizes that
/// straddle typical batch cuts.
std::vector<std::vector<std::size_t>> arrival_sequence() {
  const std::size_t sizes[] = {3, 3, 3, 1, 5, 2, 2, 8, 1, 1, 4, 6};
  std::vector<std::vector<std::size_t>> requests;
  std::size_t next_id = 0;
  for (std::size_t n : sizes) {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back((next_id++ * 7) % 120);
    requests.push_back(std::move(ids));
  }
  return requests;
}

// --- Determinism under batching ---------------------------------------------

TEST(ServingCoalescer, BatchedMatchesPerRequestBitwise) {
  TempDir root("serve_batched_eq");
  auto mgr = make_manager(root, {"quito"}, 2);
  const std::vector<std::vector<std::size_t>> requests = arrival_sequence();

  // Ground truth: one classify call per request, no batching.
  std::vector<std::vector<std::size_t>> per_request;
  for (const auto& ids : requests) per_request.push_back(mgr->classify("quito", ids));

  BatchCoalescer coalescer(*mgr, deterministic_cfg(6));
  std::vector<std::future<std::vector<std::size_t>>> futures;
  for (const auto& ids : requests) futures.push_back(coalescer.submit_classify("quito", ids));
  coalescer.flush();

  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(futures[i].get(), per_request[i]) << "request " << i;

  const CoalescerStats stats = coalescer.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_LT(stats.batches, stats.requests) << "no coalescing happened";
  EXPECT_GE(stats.largest_batch, 6u);
  EXPECT_EQ(coalescer.pending(), 0u);
}

TEST(ServingCoalescer, BatchCompositionIsDeterministic) {
  // Two independent coalescers fed the identical arrival order must cut the
  // identical batches: (request count, image count) sequences match. A
  // single-threaded pool makes dispatch order reproducible; composition
  // itself is pinned by the greedy prefix rule either way.
  TempDir root("serve_composition");
  auto mgr = make_manager(root, {"quito"}, 1);
  const std::vector<std::vector<std::size_t>> requests = arrival_sequence();

  using Cut = std::vector<std::pair<std::size_t, std::size_t>>;
  const auto run = [&] {
    Cut cuts;
    BatchCoalescer coalescer(*mgr, deterministic_cfg(6));
    coalescer.set_batch_observer(
        [&cuts](const std::string&, std::size_t reqs, std::size_t images) {
          cuts.emplace_back(reqs, images);
        });
    std::vector<std::future<std::vector<std::size_t>>> futures;
    for (const auto& ids : requests) futures.push_back(coalescer.submit_classify("quito", ids));
    coalescer.flush();
    for (auto& f : futures) f.get();
    return cuts;
  };

  const Cut first = run();
  const Cut second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Every batch respects the cap unless a single oversized request forced it.
  for (const auto& [reqs, images] : first)
    EXPECT_TRUE(images <= 6 || reqs == 1) << images << " images in " << reqs << " requests";
}

TEST(ServingCoalescer, CrossTenantLanesStayIsolated) {
  // Interleaved submissions across tenants: each future must carry its own
  // tenant's predictions, identical to a direct per-tenant classify.
  TempDir root("serve_cross_tenant");
  auto mgr = make_manager(root, {"quito", "ambato"}, 4);
  const std::vector<std::size_t> ids = {5, 17, 40, 88};
  const std::vector<std::size_t> want_q = mgr->classify("quito", ids);
  const std::vector<std::size_t> want_a = mgr->classify("ambato", ids);

  BatchCoalescer coalescer(*mgr, deterministic_cfg(16));
  std::vector<std::future<std::vector<std::size_t>>> q_futs, a_futs;
  for (int i = 0; i < 3; ++i) {
    q_futs.push_back(coalescer.submit_classify("quito", ids));
    a_futs.push_back(coalescer.submit_classify("ambato", ids));
  }
  coalescer.flush();
  for (auto& f : q_futs) EXPECT_EQ(f.get(), want_q);
  for (auto& f : a_futs) EXPECT_EQ(f.get(), want_a);
}

TEST(ServingCoalescer, OversizedRequestDispatchesAlone) {
  TempDir root("serve_oversized");
  auto mgr = make_manager(root, {"quito"}, 2);
  std::vector<std::size_t> big;
  for (std::size_t i = 0; i < 20; ++i) big.push_back(i);
  const std::vector<std::size_t> want = mgr->classify("quito", big);

  BatchCoalescer coalescer(*mgr, deterministic_cfg(4));
  std::size_t observed_reqs = 0, observed_images = 0;
  coalescer.set_batch_observer([&](const std::string&, std::size_t reqs, std::size_t images) {
    observed_reqs = reqs;
    observed_images = images;
  });
  // 20 images >= max_batch 4 crosses the threshold immediately: no flush
  // needed, the request dispatches alone (never split).
  std::future<std::vector<std::size_t>> fut = coalescer.submit_classify("quito", big);
  EXPECT_EQ(fut.get(), want);
  EXPECT_EQ(observed_reqs, 1u);
  EXPECT_EQ(observed_images, 20u);
}

// --- Error fan-out ----------------------------------------------------------

TEST(ServingCoalescer, ErrorsReachEveryFutureOfTheBatch) {
  TempDir root("serve_errors");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  TenantManager mgr(mcfg);  // no tenants: every classify throws out_of_range

  BatchCoalescer coalescer(mgr, deterministic_cfg(64));
  std::future<std::vector<std::size_t>> f1 = coalescer.submit_classify("missing", {1, 2});
  std::future<std::vector<std::size_t>> f2 = coalescer.submit_classify("missing", {3});
  coalescer.flush();
  EXPECT_THROW(f1.get(), std::out_of_range);
  EXPECT_THROW(f2.get(), std::out_of_range);
  EXPECT_EQ(coalescer.pending(), 0u);  // failed requests still retire
}

// --- Linger liveness --------------------------------------------------------

TEST(ServingCoalescer, LingerDispatchesPartialBatchWithoutFlush) {
  // A lone request far below the threshold must still complete on its own —
  // the linger timer is the liveness backstop. Generous timeout: the test
  // asserts "eventually", not "within 2ms".
  TempDir root("serve_linger");
  auto mgr = make_manager(root, {"quito"}, 2);
  const std::vector<std::size_t> ids = {7, 9};
  const std::vector<std::size_t> want = mgr->classify("quito", ids);

  BatchCoalescerConfig cfg;
  cfg.max_batch_images = 1024;
  cfg.max_linger = std::chrono::milliseconds{2};
  BatchCoalescer coalescer(*mgr, cfg);
  std::future<std::vector<std::size_t>> fut = coalescer.submit_classify("quito", ids);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "linger timer never dispatched the partial batch";
  EXPECT_EQ(fut.get(), want);
}

TEST(ServingCoalescer, ThresholdCutRemainderDispatchesOnLingerWithoutFlush) {
  // A 64 + k burst on one lane: the threshold cut dispatches 64 images and
  // leaves a k-image remainder. The first batch is held (via the batch
  // observer) past the linger deadline, so the linger thread has already
  // skipped the active lane and parked without a deadline. Retiring the
  // lane with its remainder must wake it: every future is ready within a
  // small multiple of max_linger after the first batch, with no flush().
  TempDir root("serve_linger_remainder");
  auto mgr = make_manager(root, {"quito"}, 2);
  constexpr std::size_t kBurst = 64 + 5;
  std::vector<std::vector<std::size_t>> requests;
  for (std::size_t i = 0; i < kBurst; ++i) requests.push_back({(i * 7) % 120});
  std::vector<std::vector<std::size_t>> want;
  for (const auto& ids : requests) want.push_back(mgr->classify("quito", ids));

  BatchCoalescerConfig cfg;
  cfg.max_batch_images = 64;
  cfg.max_linger = std::chrono::milliseconds{20};
  BatchCoalescer coalescer(*mgr, cfg);
  std::atomic<int> batches{0};
  coalescer.set_batch_observer([&](const std::string&, std::size_t, std::size_t) {
    if (batches.fetch_add(1) == 0) std::this_thread::sleep_for(5 * cfg.max_linger);
  });
  std::vector<std::future<std::vector<std::size_t>>> futures;
  for (const auto& ids : requests) futures.push_back(coalescer.submit_classify("quito", ids));

  ASSERT_EQ(futures.front().wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "the threshold batch never dispatched";
  const auto first_ready = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_until(first_ready + 25 * cfg.max_linger),
              std::future_status::ready)
        << "request " << i << " of the sub-threshold remainder was never dispatched";
    EXPECT_EQ(futures[i].get(), want[i]) << "request " << i;
  }
  EXPECT_GE(batches.load(), 2);
}

// --- ServiceQueue routing ---------------------------------------------------

TEST(ServingQueue, ClassifyRoutesThroughCoalescerAndDrainFlushes) {
  TempDir root("serve_queue_route");
  auto mgr = make_manager(root, {"quito"}, 2);
  const std::vector<std::size_t> ids = {11, 22, 33};
  const std::vector<std::size_t> want = mgr->classify("quito", ids);

  BatchCoalescer coalescer(*mgr, deterministic_cfg(1024));
  ServiceQueue queue(*mgr, &coalescer);
  // Far below threshold and linger disabled: only drain()'s flush can
  // complete these. (No cycle in flight: a concurrent retrain would move
  // the state the pinned answers were read from.)
  std::future<std::vector<std::size_t>> f1 = queue.submit_classify("quito", ids);
  std::future<std::vector<std::size_t>> f2 = queue.submit_classify("quito", ids);
  EXPECT_EQ(coalescer.pending(), 2u);  // routed to the coalescer, not a lane
  queue.drain();
  EXPECT_EQ(f1.get(), want);
  EXPECT_EQ(f2.get(), want);
  // Both requests coalesced into one committee call.
  EXPECT_EQ(coalescer.stats().batches, 1u);
  EXPECT_EQ(coalescer.stats().largest_batch, 6u);

  // Cycle requests still drain per request through the lanes.
  std::future<core::CycleOutcome> cycle = queue.submit_cycle("quito");
  queue.drain();
  EXPECT_EQ(cycle.get().cycle_index, 1u);  // cycle 0 ran in make_manager
}

// --- drain() vs concurrent submit regression (timeout-guarded) --------------

TEST(ServingQueue, DrainConcurrentWithSubmitNeverDeadlocks) {
  // Pins the documented drain() contract: concurrent submits extend the
  // wait but can never deadlock it. The scenario runs under a watchdog —
  // if any drain()/flush() wedges, the watchdog fails the test instead of
  // hanging the suite forever.
  std::future<void> scenario = std::async(std::launch::async, [] {
    TempDir root("serve_drain_race");
    auto mgr = make_manager(root, {"quito"}, 4);
    BatchCoalescer coalescer(*mgr, deterministic_cfg(5));
    ServiceQueue queue(*mgr, &coalescer);

    // The submit stream is bounded: on heavily slowed builds (sanitizers),
    // classify can take longer than the submit period, and an unbounded
    // stream would keep drain() from ever observing quiescence — a livelock
    // of the test harness, not of the contract under test. A finite stream
    // keeps the race window while guaranteeing termination.
    constexpr std::size_t kMaxSubmits = 1000;
    std::atomic<bool> stop{false};
    std::vector<std::future<std::vector<std::size_t>>> futures;
    std::mutex futures_mutex;
    std::thread submitter([&] {
      std::size_t n = 0;
      while (!stop.load(std::memory_order_relaxed) && n < kMaxSubmits) {
        std::future<std::vector<std::size_t>> f =
            queue.submit_classify("quito", {n % 120, (n + 1) % 120});
        {
          std::lock_guard<std::mutex> lk(futures_mutex);
          futures.push_back(std::move(f));
        }
        ++n;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    // Repeated drains racing the submitter: each must return at some
    // quiescent point rather than waiting for "no more submits ever".
    for (int i = 0; i < 5; ++i) queue.drain();
    stop.store(true, std::memory_order_relaxed);
    submitter.join();
    queue.drain();  // final drain with the submitter stopped: full quiescence

    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(coalescer.pending(), 0u);
    std::lock_guard<std::mutex> lk(futures_mutex);
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      EXPECT_EQ(f.get().size(), 2u);
    }
  });
  ASSERT_EQ(scenario.wait_for(std::chrono::minutes(4)), std::future_status::ready)
      << "drain() deadlocked against concurrent submit_classify";
  scenario.get();  // rethrow any assertion-fatal exception from the scenario
}

// --- Serving metrics --------------------------------------------------------

TEST(ServingCoalescer, MetricsRecordBatchSizesAndQueueDepth) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  TempDir root("serve_metrics");
  auto mgr = make_manager(root, {"quito"}, 2);

  obs::ObservabilityConfig ocfg;
  ocfg.enabled = true;
  obs::Observability observability(ocfg);
  BatchCoalescerConfig cfg = deterministic_cfg(6);
  cfg.observability = &observability;
  BatchCoalescer coalescer(*mgr, cfg);
  std::vector<std::future<std::vector<std::size_t>>> futures;
  for (const auto& ids : arrival_sequence())
    futures.push_back(coalescer.submit_classify("quito", ids));
  coalescer.flush();
  for (auto& f : futures) f.get();

  const obs::Histogram* h =
      observability.metrics().find_histogram("crowdlearn_serve_batch_size");
  ASSERT_NE(h, nullptr);
  const obs::Histogram::Snapshot snap = h->snapshot();
  EXPECT_EQ(snap.count, coalescer.stats().batches);
  EXPECT_EQ(snap.sum, static_cast<double>(coalescer.stats().images));
  EXPECT_EQ(snap.max, static_cast<double>(coalescer.stats().largest_batch));
}

}  // namespace
}  // namespace crowdlearn::service
