// Content-addressed artifact cache battery (docs/CACHING.md). The
// load-bearing test is the hit≡recompute differential: a full CrowdLearn run
// with caching OFF, a cold cached run (all misses) and a warm cached run
// (all hits) must produce byte-identical cycle-log CSV, deterministic
// metrics JSON and expert weights — at 1/2/8 threads, faults on and off.
// Around it: the 128-bit FNV-1a digest, store/lookup mechanics, the
// corruption battery (every truncation length, bit flips, wrong-key entries
// — all typed misses that fall back to recompute, never crashes), the
// single-flight contract, sibling-key isolation, and eviction racing hits.

#include <unistd.h>
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"
#include "core/experiment.hpp"
#include "core/recorder.hpp"
#include "experts/bovw.hpp"
#include "service/tenant.hpp"

namespace crowdlearn::cache {
namespace {

namespace fs = std::filesystem;
using ckpt::Digest128;
using ckpt::Hasher128;

struct TempDir {
  std::string path;
  // pid-suffixed: gtest_discover_tests runs each TEST as its own process, so
  // under `ctest -j` two tests sharing a fixture name would otherwise race
  // on the same directory.
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "/" + name + "." + std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { std::error_code ec; fs::remove_all(path, ec); }
};

Digest128 key_of(const std::string& tag) { return ckpt::digest_bytes(tag); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Digest -----------------------------------------------------------------

TEST(Digest128, EmptyInputIsTheOffsetBasis) {
  // FNV-1a: the digest of zero bytes is the 128-bit offset basis.
  Hasher128 h;
  const Digest128 d = h.digest();
  EXPECT_EQ(d.hi, 0x6C62272E07BB0142ULL);
  EXPECT_EQ(d.lo, 0x62B821756295C58DULL);
  EXPECT_EQ(ckpt::digest_bytes(""), d);
}

TEST(Digest128, StreamingEqualsOneShot) {
  const std::string bytes = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    Hasher128 h;
    h.update(bytes.data(), split);
    h.update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(h.digest(), ckpt::digest_bytes(bytes)) << "split " << split;
  }
}

TEST(Digest128, HexIs32LowercaseCharsHiFirst) {
  const Digest128 d{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Digest128{}.hex(), std::string(32, '0'));
}

TEST(Digest128, DistinctInputsDistinctDigests) {
  // Not a collision-resistance proof — a regression net over the framing:
  // every pair below must differ, including the concatenation ambiguities
  // the length prefixes exist to break.
  std::vector<Digest128> seen;
  auto add = [&](const Digest128& d) {
    for (const Digest128& prev : seen) EXPECT_NE(d, prev);
    seen.push_back(d);
  };
  add(ckpt::digest_bytes(""));
  add(ckpt::digest_bytes("a"));
  add(ckpt::digest_bytes("b"));
  add(ckpt::digest_bytes("ab"));
  {
    Hasher128 h;
    h.str("ab");
    h.str("c");
    add(h.digest());
  }
  {
    Hasher128 h;
    h.str("a");
    h.str("bc");
    add(h.digest());
  }
  {
    Hasher128 h;
    h.vec_f64({1.0, 2.0});
    add(h.digest());
  }
  {
    Hasher128 h;
    h.vec_f64({1.0});
    h.vec_f64({2.0});
    add(h.digest());
  }
  {
    Hasher128 h;
    h.f64(0.0);
    add(h.digest());
  }
  {
    Hasher128 h;
    h.f64(-0.0);  // distinct bit pattern, distinct digest (bit-exact hashing)
    add(h.digest());
  }
}

TEST(Digest128, TypedHelpersMatchRawBytes) {
  // u64 folds little-endian bytes; str length-prefixes.
  Hasher128 typed;
  typed.u64(0x0807060504030201ULL);
  Hasher128 raw;
  const unsigned char bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  raw.update(bytes, 8);
  EXPECT_EQ(typed.digest(), raw.digest());
}

TEST(Digest128, DatasetContentDigestIsStableAndSeedSensitive) {
  dataset::DatasetConfig cfg;
  cfg.total_images = 24;
  cfg.train_images = 16;
  const dataset::Dataset a = dataset::generate_dataset(cfg);
  const dataset::Dataset b = dataset::generate_dataset(cfg);
  EXPECT_EQ(a.content_digest(), b.content_digest());
  // The memo travels with copies and does not change the value.
  const dataset::Dataset c = a;
  EXPECT_EQ(c.content_digest(), a.content_digest());
  cfg.seed += 1;
  const dataset::Dataset d = dataset::generate_dataset(cfg);
  EXPECT_NE(d.content_digest(), a.content_digest());
}

// --- Store / lookup mechanics ----------------------------------------------

TEST(ArtifactCache, EmptyDirThrows) {
  EXPECT_THROW(ArtifactCache(ArtifactCacheConfig{"", 0}), std::invalid_argument);
}

TEST(ArtifactCache, StoreThenLookupRoundTrips) {
  TempDir dir("cache_roundtrip");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("k");
  const std::string payload = "artifact-bytes\x00\x01\x02";
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.store(k, payload);
  const auto got = cache.lookup(k);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.corrupt_entries, 0u);
  EXPECT_GT(s.written_bytes, payload.size());
  EXPECT_EQ(s.read_bytes, payload.size());
}

TEST(ArtifactCache, EntryPathIsShardedByHexPrefix) {
  TempDir dir("cache_shard");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("sharding");
  const std::string hex = k.hex();
  EXPECT_EQ(cache.entry_path(k), dir.path + "/" + hex.substr(0, 2) + "/" + hex + ".art");
  cache.store(k, "x");
  EXPECT_TRUE(fs::exists(cache.entry_path(k)));
}

TEST(ArtifactCache, FetchOrComputeMissComputesAndStores) {
  TempDir dir("cache_fetch");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("fetch");
  int computes = 0;
  const FetchResult first = cache.fetch_or_compute(k, [&] {
    ++computes;
    return std::string("bytes");
  });
  EXPECT_TRUE(first.computed);
  EXPECT_EQ(first.payload, "bytes");
  const FetchResult second = cache.fetch_or_compute(k, [&] {
    ++computes;
    return std::string("bytes");
  });
  EXPECT_FALSE(second.computed);
  EXPECT_EQ(second.payload, "bytes");
  EXPECT_EQ(computes, 1);
}

TEST(ArtifactCache, ComputeExceptionPropagatesAndStoresNothing) {
  TempDir dir("cache_throw");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("throw");
  EXPECT_THROW(cache.fetch_or_compute(
                   k, []() -> std::string { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_FALSE(cache.lookup(k).has_value());
  // The flight is cleaned up: the next caller computes normally.
  const FetchResult r = cache.fetch_or_compute(k, [] { return std::string("ok"); });
  EXPECT_TRUE(r.computed);
}

// --- Corruption battery -----------------------------------------------------

TEST(ArtifactCacheCorruption, TruncationAtEveryLengthIsATypedMiss) {
  TempDir dir("cache_trunc");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("trunc");
  cache.store(k, "payload-to-truncate");
  const std::string image = read_file(cache.entry_path(k));
  ASSERT_FALSE(image.empty());
  for (std::size_t len = 0; len < image.size(); ++len) {
    write_file(cache.entry_path(k), image.substr(0, len));
    EXPECT_FALSE(cache.lookup(k).has_value()) << "prefix length " << len;
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.corrupt_entries, image.size());
  EXPECT_EQ(s.hits, 0u);
}

TEST(ArtifactCacheCorruption, BitFlipsAreTypedMissesThatRecompute) {
  TempDir dir("cache_flip");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("flip");
  cache.store(k, "payload-to-flip");
  const std::string image = read_file(cache.entry_path(k));
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::string mutant = image;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x10);
    write_file(cache.entry_path(k), mutant);
    EXPECT_FALSE(cache.lookup(k).has_value()) << "byte " << pos;
    // The poisoned entry never blocks progress: fetch_or_compute recomputes
    // and heals the entry in place.
    const FetchResult r = cache.fetch_or_compute(k, [] { return std::string("payload-to-flip"); });
    EXPECT_TRUE(r.computed) << "byte " << pos;
    EXPECT_EQ(cache.lookup(k).value_or(""), "payload-to-flip") << "byte " << pos;
    write_file(cache.entry_path(k), image);  // restore for the next position
  }
  EXPECT_GT(cache.stats().corrupt_entries, 0u);
}

TEST(ArtifactCacheCorruption, Version1EntryIsACountedMissThatRecomputes) {
  // Entries written by any older container version — 1 (decimal-text
  // networks), 2 (GBT2 forests with bin boundaries) — are typed misses,
  // recomputed and rewritten at the current version.
  for (std::uint32_t version = 1; version < ckpt::kFormatVersion; ++version) {
    TempDir dir("cache_v" + std::to_string(version));
    ArtifactCache cache({dir.path, 0});
    const Digest128 k = key_of("v" + std::to_string(version));
    cache.store(k, "current-bytes");
    std::string image = read_file(cache.entry_path(k));
    image[8] = static_cast<char>(version);  // version u32 little-endian at offset 8
    write_file(cache.entry_path(k), image);

    int computes = 0;
    const FetchResult r = cache.fetch_or_compute(k, [&] {
      ++computes;
      return std::string("current-bytes");
    });
    EXPECT_TRUE(r.computed) << "version " << version;
    EXPECT_EQ(computes, 1) << "version " << version;
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u) << "version " << version;
    EXPECT_EQ(s.corrupt_entries, 1u) << "version " << version;
    EXPECT_EQ(cache.lookup(k).value_or(""), "current-bytes") << "version " << version;
    EXPECT_EQ(static_cast<unsigned char>(read_file(cache.entry_path(k))[8]),
              ckpt::kFormatVersion)
        << "version " << version;
  }
}

TEST(ArtifactCacheCorruption, WrongKeyEntryIsATypedMiss) {
  // A valid container copied to another key's path (renamed/cross-copied
  // entry) must be rejected by the key echo, not deserialized.
  TempDir dir("cache_wrongkey");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k1 = key_of("origin");
  const Digest128 k2 = key_of("imposter");
  cache.store(k1, "origin-bytes");
  fs::create_directories(fs::path(cache.entry_path(k2)).parent_path());
  fs::copy_file(cache.entry_path(k1), cache.entry_path(k2));
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_EQ(cache.stats().wrong_key, 1u);
  // The real entry still hits.
  EXPECT_EQ(cache.lookup(k1).value_or(""), "origin-bytes");
}

TEST(ArtifactCacheCorruption, InvalidateRemovesTheEntry) {
  TempDir dir("cache_invalidate");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("inv");
  cache.store(k, "x");
  cache.invalidate(k);
  EXPECT_FALSE(fs::exists(cache.entry_path(k)));
  EXPECT_FALSE(cache.lookup(k).has_value());
}

// --- Eviction ---------------------------------------------------------------

TEST(ArtifactCacheGc, LruEvictionKeepsStoreUnderCap) {
  TempDir dir("cache_gc");
  // Each entry is ~1 KiB of payload plus container overhead; cap at ~3 KiB.
  ArtifactCache cache({dir.path, 3 * 1024});
  const std::string payload(1024, 'p');
  for (int i = 0; i < 8; ++i) cache.store(key_of("gc" + std::to_string(i)), payload);
  EXPECT_GT(cache.stats().evictions, 0u);
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path))
    if (e.is_regular_file()) total += e.file_size();
  EXPECT_LE(total, 3u * 1024u);
}

TEST(ArtifactCacheGc, UnboundedCacheNeverEvicts) {
  TempDir dir("cache_nogc");
  ArtifactCache cache({dir.path, 0});
  for (int i = 0; i < 8; ++i) cache.store(key_of("n" + std::to_string(i)), "x");
  EXPECT_EQ(cache.gc(), 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// --- Concurrency (TSan targets; `concurrency` + `cache` ctest labels) -------

TEST(ArtifactCacheConcurrency, SameKeyRaceComputesExactlyOnce) {
  TempDir dir("cache_singleflight");
  ArtifactCache cache({dir.path, 0});
  const Digest128 k = key_of("race");
  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<FetchResult> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[i] = cache.fetch_or_compute(k, [&] {
        computes.fetch_add(1);
        // Hold the flight open long enough that the losers must wait on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return std::string("winner");
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  int computed_count = 0;
  for (const FetchResult& r : results) {
    EXPECT_EQ(r.payload, "winner");
    if (r.computed) ++computed_count;
  }
  EXPECT_EQ(computed_count, 1);
}

TEST(ArtifactCacheConcurrency, SiblingKeysNeverCrossContaminate) {
  TempDir dir("cache_siblings");
  ArtifactCache cache({dir.path, 0});
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const Digest128 k = key_of("sibling" + std::to_string(i));
      const std::string want = "payload-" + std::to_string(i);
      for (int r = 0; r < kRounds && !failed.load(); ++r) {
        const FetchResult got = cache.fetch_or_compute(k, [&] { return want; });
        if (got.payload != want) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(ArtifactCacheConcurrency, EvictionRacingHitsRehydratesCorrectly) {
  TempDir dir("cache_evict_race");
  // Tight cap: the writer thread constantly pushes the store over it, so
  // the reader's key is evicted out from under it repeatedly.
  ArtifactCache cache({dir.path, 2 * 1024});
  const Digest128 hot = key_of("hot");
  const std::string hot_payload(512, 'h');
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const FetchResult r = cache.fetch_or_compute(hot, [&] { return hot_payload; });
      if (r.payload != hot_payload) failed.store(true);
    }
  });
  std::thread writer([&] {
    const std::string filler(512, 'f');
    for (int i = 0; i < 200; ++i) cache.store(key_of("filler" + std::to_string(i)), filler);
    stop.store(true);
  });
  reader.join();
  writer.join();
  EXPECT_FALSE(failed.load());
  // Final state still serves the right bytes.
  EXPECT_EQ(cache.fetch_or_compute(hot, [&] { return hot_payload; }).payload, hot_payload);
}

// --- Hit ≡ recompute differential -------------------------------------------

constexpr std::size_t kCycles = 4;
constexpr std::uint64_t kSeed = 20260808;

core::ExperimentConfig experiment_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.dataset.total_images = 120;
  cfg.dataset.train_images = 70;
  cfg.stream.num_cycles = kCycles;
  cfg.stream.images_per_cycle = 4;
  cfg.stream.grouped_contexts = false;
  cfg.pilot.queries_per_cell = 6;
  cfg.seed = seed;
  return cfg;
}

experts::ExpertCommittee fast_committee() {
  experts::BovwConfig fast;
  fast.train.epochs = 10;
  fast.train.learning_rate = 0.05;
  std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
  roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
  roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
  return experts::ExpertCommittee(std::move(roster));
}

crowd::FaultInjectionConfig fault_profile() {
  crowd::FaultInjectionConfig faults;
  faults.abandonment_prob = 0.12;
  faults.straggler_prob = 0.10;
  faults.malformed_label_prob = 0.08;
  faults.duplicate_prob = 0.05;
  return faults;
}

struct RunArtifacts {
  std::string csv;
  std::string metrics_json;
  std::vector<double> weights;
};

/// One full closed-loop run: committee train, CQC pilot fit, kCycles cycles.
/// `cache` null = caching off.
RunArtifacts full_run(std::size_t num_threads, bool faults,
                      std::shared_ptr<ArtifactCache> cache) {
  const core::ExperimentSetup setup = core::make_setup(experiment_config(kSeed));
  core::CrowdLearnConfig cfg =
      core::default_crowdlearn_config(setup, /*queries_per_cycle=*/2,
                                      /*total_budget_cents=*/400.0);
  cfg.num_threads = num_threads;
  cfg.observability.enabled = true;
  cfg.artifact_cache = std::move(cache);
  core::CrowdLearnSystem system(fast_committee(), cfg);
  system.initialize(setup.data, setup.pilot);
  crowd::CrowdPlatform platform =
      core::make_platform(setup, /*run_index=*/0,
                          faults ? fault_profile() : crowd::FaultInjectionConfig{});
  const dataset::SensingCycleStream stream(setup.data, setup.stream_cfg);
  std::vector<core::CycleOutcome> outcomes;
  for (const dataset::SensingCycle& cycle : stream.cycles())
    outcomes.push_back(system.run_cycle(setup.data, platform, cycle));

  RunArtifacts a;
  core::CycleLogOptions opts;
  opts.include_wall_clock = false;
  std::ostringstream csv;
  core::write_cycle_log(setup.data, outcomes, csv, opts);
  a.csv = csv.str();
  std::ostringstream metrics;
  core::write_metrics_json_deterministic(system.observability(), metrics);
  a.metrics_json = metrics.str();
  a.weights = system.committee().weights();
  return a;
}

void run_differential(std::size_t num_threads, bool faults) {
  const std::string ctx =
      "threads=" + std::to_string(num_threads) + " faults=" + std::to_string(faults);
  TempDir dir("cache_diff_" + std::to_string(num_threads) + "_" + std::to_string(faults));
  const RunArtifacts off = full_run(num_threads, faults, nullptr);

  auto cache = std::make_shared<ArtifactCache>(ArtifactCacheConfig{dir.path, 0});
  const RunArtifacts cold = full_run(num_threads, faults, cache);
  const CacheStats after_cold = cache->stats();
  EXPECT_EQ(after_cold.hits, 0u) << ctx;
  EXPECT_GT(after_cold.stores, 0u) << ctx;

  const RunArtifacts warm = full_run(num_threads, faults, cache);
  const CacheStats after_warm = cache->stats();
  EXPECT_GT(after_warm.hits, 0u) << ctx;
  EXPECT_EQ(after_warm.stores, after_cold.stores) << ctx << " (warm run stored new entries)";

  // The contract: caching is invisible in every deterministic artifact.
  EXPECT_EQ(cold.csv, off.csv) << ctx;
  EXPECT_EQ(cold.metrics_json, off.metrics_json) << ctx;
  EXPECT_EQ(cold.weights, off.weights) << ctx;
  EXPECT_EQ(warm.csv, off.csv) << ctx;
  EXPECT_EQ(warm.metrics_json, off.metrics_json) << ctx;
  EXPECT_EQ(warm.weights, off.weights) << ctx;
}

TEST(CacheDifferential, HitEqualsRecompute1Thread) { run_differential(1, false); }
TEST(CacheDifferential, HitEqualsRecompute2Threads) { run_differential(2, false); }
TEST(CacheDifferential, HitEqualsRecompute8Threads) { run_differential(8, false); }
TEST(CacheDifferential, HitEqualsRecomputeWithFaults2Threads) { run_differential(2, true); }
TEST(CacheDifferential, HitEqualsRecomputeWithFaults8Threads) { run_differential(8, true); }

// --- Cross-tenant dedup through the service --------------------------------

TEST(CacheTenancy, DuplicateSpecTenantsShareRetrains) {
  TempDir root("cache_tenancy");
  service::TenantManagerConfig mcfg;
  mcfg.root_dir = root.path + "/tenants";
  mcfg.num_threads = 2;
  mcfg.cache_dir = root.path + "/artifacts";
  service::TenantManager mgr(mcfg);
  ASSERT_NE(mgr.artifact_cache(), nullptr);

  // Two tenants with IDENTICAL specs: the second tenant's committee train,
  // CQC fit and every retrain should be served from the first tenant's
  // stored artifacts.
  auto spec = [](const std::string& name) {
    service::TenantSpec s;
    s.name = name;
    s.experiment = experiment_config(kSeed);
    s.queries_per_cycle = 2;
    s.total_budget_cents = 400.0;
    s.observability = true;
    s.committee_factory = fast_committee;
    return s;
  };
  mgr.add_tenant(spec("a"));
  mgr.add_tenant(spec("b"));

  for (std::size_t c = 0; c < 2; ++c) mgr.run_next_cycle("a");
  const CacheStats after_a = mgr.artifact_cache()->stats();
  EXPECT_GT(after_a.stores, 0u);

  for (std::size_t c = 0; c < 2; ++c) mgr.run_next_cycle("b");
  const CacheStats after_b = mgr.artifact_cache()->stats();
  EXPECT_GT(after_b.hits, after_a.hits);
  // Identical inputs → identical keys → no new artifacts for tenant b.
  EXPECT_EQ(after_b.stores, after_a.stores);
}

TEST(CacheTenancy, NoCacheDirMeansNoCache) {
  TempDir root("cache_tenancy_off");
  service::TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  service::TenantManager mgr(mcfg);
  EXPECT_EQ(mgr.artifact_cache(), nullptr);
}

}  // namespace
}  // namespace crowdlearn::cache
