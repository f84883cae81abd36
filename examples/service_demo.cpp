// Multi-tenant service demo (docs/TENANCY.md): one TenantManager hosting K
// independent CrowdLearn scenarios behind the async ServiceQueue, with a
// residency cap forcing checkpoint-backed eviction churn.
//
// Each tenant is a full closed loop (QSS -> IPD -> CQC -> MIC) with its own
// seed, budget and fault profile. Requests arrive in a mixed order — the
// submission loop rotates which tenant goes first each round — so tenants
// constantly page each other in and out through their private generation
// rings under <root>/<tenant>/gen-*.ckpt. Because rehydration restores state
// byte-identically, every tenant's trace matches the same scenario run
// standalone regardless of the eviction schedule or thread count.
//
// Usage: service_demo [seed] [flags]
//   --tenants K       number of tenants (default 4)
//   --cycles N        sensing cycles per tenant (default 4)
//   --max-resident N  residency cap; 0 = unbounded (default 2)
//   --threads N       shared worker-pool size (0 = auto; default 2)
//   --images N        dataset size per tenant (default 120)
//   --root DIR        checkpoint root directory (default service_demo_ckpt)
//   --faults          arm a deployment fault profile on every odd tenant
//   --cache-dir DIR   memoize retrains through a shared artifact cache rooted
//                     at DIR (default: no cache; docs/CACHING.md)

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "experts/bovw.hpp"
#include "runtime/exit.hpp"
#include "service/queue.hpp"
#include "service/tenant.hpp"
#include "util/csv.hpp"

namespace {

struct CliOptions {
  std::uint64_t seed = 7;
  std::size_t tenants = 4;
  std::size_t cycles = 4;
  std::size_t max_resident = 2;
  std::size_t threads = 2;
  std::size_t images = 120;
  std::string root = "service_demo_ckpt";
  bool faults = false;
  std::string cache_dir;  // empty = no artifact cache (the default)
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
    if (std::strcmp(a, "--tenants") == 0)
      opt.tenants = count(i, a);
    else if (std::strcmp(a, "--cycles") == 0)
      opt.cycles = count(i, a);
    else if (std::strcmp(a, "--max-resident") == 0)
      opt.max_resident = count(i, a);
    else if (std::strcmp(a, "--threads") == 0)
      opt.threads = count(i, a);
    else if (std::strcmp(a, "--images") == 0)
      opt.images = count(i, a);
    else if (std::strcmp(a, "--root") == 0)
      opt.root = value(i, a);
    else if (std::strcmp(a, "--faults") == 0)
      opt.faults = true;
    else if (std::strcmp(a, "--cache-dir") == 0)
      opt.cache_dir = value(i, a);
    else if (a[0] == '-')
      throw std::invalid_argument(std::string("unknown flag: ") + a);
    else
      opt.seed = std::strtoull(a, nullptr, 10);
  }
  if (opt.tenants == 0) throw std::invalid_argument("--tenants must be positive");
  if (opt.cycles == 0) throw std::invalid_argument("--cycles must be positive");
  if (opt.images < 40) throw std::invalid_argument("--images must be at least 40");
  if (opt.root.empty()) throw std::invalid_argument("--root must be non-empty");
  return opt;
}

crowdlearn::service::TenantSpec make_spec(const CliOptions& opt, std::size_t index) {
  using namespace crowdlearn;
  service::TenantSpec spec;
  spec.name = "tenant-" + std::to_string(index);

  core::ExperimentConfig cfg;
  cfg.seed = opt.seed + 100 * index;
  cfg.dataset.total_images = opt.images;
  cfg.dataset.train_images = opt.images * 3 / 5;
  cfg.dataset.seed = cfg.seed;
  cfg.stream.num_cycles = opt.cycles;
  cfg.stream.images_per_cycle = 6;
  cfg.stream.grouped_contexts = false;
  cfg.pilot.queries_per_cell = 6;
  spec.experiment = cfg;

  spec.queries_per_cycle = 3;
  spec.total_budget_cents = 8.0 * 3.0 * static_cast<double>(opt.cycles);
  if (opt.faults && index % 2 == 1) {
    spec.faults.abandonment_prob = 0.10;
    spec.faults.straggler_prob = 0.10;
    spec.faults.malformed_label_prob = 0.05;
    spec.faults.duplicate_prob = 0.05;
  }
  // A cheap two-expert committee keeps the demo snappy; swap for the full
  // paper roster by leaving committee_factory null.
  spec.committee_factory = [] {
    experts::BovwConfig fast;
    fast.train.epochs = 10;
    fast.train.learning_rate = 0.05;
    std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
    roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
    roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
    return experts::ExpertCommittee(std::move(roster));
  };
  return spec;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace crowdlearn;
  const CliOptions opt = parse_cli(argc, argv);

  std::cout << "CrowdLearn multi-tenant service demo (seed " << opt.seed << ")\n"
            << "  " << opt.tenants << " tenants x " << opt.cycles << " cycles, max "
            << (opt.max_resident == 0 ? std::string("unbounded")
                                      : std::to_string(opt.max_resident))
            << " resident, checkpoint root " << opt.root << "\n\n";

  std::filesystem::remove_all(opt.root);

  service::TenantManagerConfig mgr_cfg;
  mgr_cfg.root_dir = opt.root;
  mgr_cfg.max_resident = opt.max_resident;
  mgr_cfg.max_generations = 2;
  mgr_cfg.num_threads = opt.threads;
  // The shared retrain cache is opt-in: the default tenants draw distinct
  // seeds, so they never share a retrain and every lookup would miss.
  mgr_cfg.cache_dir = opt.cache_dir;
  service::TenantManager manager(mgr_cfg);
  for (std::size_t i = 0; i < opt.tenants; ++i) manager.add_tenant(make_spec(opt, i));

  // Mixed arrival order: round r starts at tenant r % K, so every tenant
  // periodically goes cold and has to be rehydrated past the residency cap.
  service::ServiceQueue queue(manager);
  std::map<std::string, std::vector<std::future<core::CycleOutcome>>> futures;
  for (std::size_t round = 0; round < opt.cycles; ++round) {
    for (std::size_t k = 0; k < opt.tenants; ++k) {
      const std::size_t i = (round + k) % opt.tenants;
      const std::string name = "tenant-" + std::to_string(i);
      futures[name].push_back(queue.submit_cycle(name));
    }
  }
  queue.drain();

  TablePrinter table({"tenant", "phase", "cycles", "cold", "rehydrated", "evicted",
                      "accuracy", "spend(c)"});
  for (std::size_t i = 0; i < opt.tenants; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    std::size_t correct = 0;
    std::size_t total = 0;
    double spend = 0.0;
    manager.with_resident(name, [&](core::CrowdLearnSystem&, crowd::CrowdPlatform& platform,
                                    const core::ExperimentSetup& setup) {
      spend = platform.total_spent_cents();
      for (std::future<core::CycleOutcome>& f : futures[name]) {
        const core::CycleOutcome out = f.get();
        for (std::size_t j = 0; j < out.image_ids.size(); ++j) {
          total += 1;
          if (out.predictions[j] ==
              dataset::label_index(setup.data.image(out.image_ids[j]).true_label))
            ++correct;
        }
      }
    });
    const service::TenantStats st = manager.stats(name);
    table.add_row({name, service::tenant_phase_name(st.phase),
                   std::to_string(st.cycles_run), std::to_string(st.cold_starts),
                   std::to_string(st.rehydrations), std::to_string(st.evictions),
                   TablePrinter::num(total == 0 ? 0.0
                                                : static_cast<double>(correct) /
                                                      static_cast<double>(total),
                                     2),
                   TablePrinter::num(spend, 0)});
  }
  table.print_ascii(std::cout);

  std::cout << "\nResidency: " << manager.resident_count() << "/" << opt.tenants
            << " tenants in memory, " << manager.total_evictions()
            << " evictions total (rings under " << opt.root << "/<tenant>/)\n";
  if (cache::ArtifactCache* c = manager.artifact_cache()) {
    const cache::CacheStats cs = c->stats();
    std::cout << "Artifact cache: " << cs.hits << " hits / " << cs.misses
              << " misses, " << cs.stores << " stores ("
              << c->config().dir << "; hit==recompute, docs/CACHING.md)\n";
  } else {
    std::cout << "Artifact cache: off (enable with --cache-dir DIR)\n";
  }
  std::cout
            << "\nEvery tenant's trace above is byte-identical to running it "
               "standalone —\nsee docs/TENANCY.md and tests/test_service.cpp.\n";
  return 0;
}

int main(int argc, char** argv) {
  return crowdlearn::runtime::run_guarded_typed(run, argc, argv);
}
