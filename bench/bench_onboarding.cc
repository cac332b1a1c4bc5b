// Streaming source onboarding under live serving (docs/benchmarks.md,
// "Streaming onboarding"): time to first appearance. On a k=3 system of
// isolated community views (head-room above the two per-community base
// trees), N query workers hammer QueryView/ReadView while the bench
// registers a source that provably belongs in one community's view and
// polls ReadView until the onboarded relation shows up in a compiled
// query's atoms: the register->rebuild->search->install latency an
// onboarded source experiences before it serves. The registration ack
// under real traffic is measured by the benchmark's onboard workload
// (register_ack_p50_ms).
//
// Usage: bench_onboarding [--json=PATH] [--smoke] [--communities=N]
//                         [--readers=N] [--seed=N]
// (--smoke is accepted and changes nothing: the run is already small.)
//
// JSON-lines schema (shared with scripts/check.sh's perf gate):
//   {"kernel":"onboarding_first_appearance_ms","n":1,"median_us":<ms>}
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/onboarding.h"

namespace q::bench {
namespace {

struct OnboardingConfig {
  std::size_t communities = 32;  // >= 32 views: the acceptance floor
  int readers = 4;
  std::uint64_t seed = 42;
  const char* json_path = "bench/out/BENCH_onboarding.json";
};

struct System {
  data::OnboardingDataset dataset;
  std::unique_ptr<core::QSystem> q;
  std::vector<std::size_t> view_ids;
};

System BuildSystem(const OnboardingConfig& bench, int k) {
  System sys;
  sys.dataset = data::BuildOnboardingDataset(bench.communities);
  core::QSystemConfig config;
  config.view.top_k.k = k;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  // MAD only: the metadata matcher would align the shared link-attribute
  // names across communities and merge the islands.
  config.use_metadata_matcher = false;
  config.steiner_threads = -1;
  config.async_refresh = true;
  config.async_repair_threads = 2;
  sys.q = std::make_unique<core::QSystem>(config);
  for (const auto& src : sys.dataset.sources) {
    Q_CHECK_OK(sys.q->RegisterSource(src));
  }
  for (const auto& keywords : sys.dataset.keyword_queries) {
    auto id = sys.q->CreateView(keywords);
    Q_CHECK_OK(id.status());
    sys.view_ids.push_back(*id);
  }
  Q_CHECK_OK(sys.q->DrainRefreshes());
  return sys;
}

// Serving pressure: readers loop QueryView (copies of each view's
// published snapshot) and ReadView probes until stopped. Any failure is
// counted and fails the bench — registrations must never wedge a reader.
struct ReaderPool {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;

  void Start(const System& sys, int readers, std::uint64_t seed) {
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([this, &sys, seed, r] {
        util::Rng rng(seed + 100 + static_cast<std::uint64_t>(r));
        while (!stop.load(std::memory_order_acquire)) {
          const std::size_t id =
              sys.view_ids[rng.Uniform(sys.view_ids.size())];
          if (rng.Uniform(4) == 0) {
            if (sys.q->ReadView(id).state == nullptr) ++failures;
          } else {
            auto result = sys.q->QueryView(id);
            if (!result.ok() || result->trees.empty()) ++failures;
          }
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  void Stop() {
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    threads.clear();
  }
};

int Run(const OnboardingConfig& bench) {
  using Clock = std::chrono::steady_clock;
  PrintHeader("Streaming source onboarding under live serving",
              "async structural deltas (docs/query_engine.md, "
              "\"Streaming onboarding contract\")");

  System appear = BuildSystem(bench, /*k=*/3);
  ReaderPool readers;
  readers.Start(appear, bench.readers, bench.seed + 9000);
  constexpr std::size_t kTarget = 0;
  const std::size_t target_view = appear.view_ids[kTarget];
  const auto appear_start = Clock::now();
  Q_CHECK_OK(appear.q
                 ->RegisterAndAlignSource(
                     data::MakeOverlappingSource(/*serial=*/0, kTarget))
                 .status());
  double first_appearance_ms = -1.0;
  while (std::chrono::duration<double>(Clock::now() - appear_start).count() <
         30.0) {
    query::ViewResult read = appear.q->ReadView(target_view);
    bool appears = false;
    if (read.state != nullptr) {
      for (const auto& query : read.state->queries) {
        for (const std::string& atom : query.atoms) {
          if (atom.find("osrc") != std::string::npos) appears = true;
        }
      }
    }
    if (appears) {
      first_appearance_ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - appear_start)
                                .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  readers.Stop();
  if (!appear.q->DrainRefreshes().ok()) {
    std::fprintf(stderr, "onboarding: drain failed\n");
    return 2;
  }
  if (first_appearance_ms < 0.0) {
    std::fprintf(stderr,
                 "onboarding: source never appeared in the relevant view's "
                 "top-k within 30s\n");
    return 2;
  }
  if (readers.failures.load() != 0) {
    std::fprintf(stderr, "onboarding: %llu reader failures\n",
                 static_cast<unsigned long long>(readers.failures.load()));
    return 1;
  }
  std::printf("first appearance in view %zu after %.2fms (%llu reader ops)\n",
              kTarget, first_appearance_ms,
              static_cast<unsigned long long>(readers.ops.load()));

  // --- JSON ---------------------------------------------------------------
  FILE* json = OpenBenchJson(bench.json_path);
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", bench.json_path);
    return 1;
  }
  std::fprintf(json,
               "{\"kernel\":\"onboarding_first_appearance_ms\",\"n\":1,"
               "\"median_us\":%.3f}\n",
               first_appearance_ms);
  std::fclose(json);
  return 0;
}

}  // namespace
}  // namespace q::bench

int main(int argc, char** argv) {
  q::bench::OnboardingConfig bench;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      continue;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      bench.json_path = arg + 7;
    } else if (std::strncmp(arg, "--communities=", 14) == 0) {
      bench.communities = static_cast<std::size_t>(std::atoi(arg + 14));
    } else if (std::strncmp(arg, "--readers=", 10) == 0) {
      bench.readers = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      bench.seed = static_cast<std::uint64_t>(std::atoll(arg + 7));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--smoke] [--communities=N] "
                   "[--readers=N] [--seed=N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (bench.communities < 2 || bench.readers < 1) {
    std::fprintf(stderr, "onboarding: invalid config\n");
    return 1;
  }
  return q::bench::Run(bench);
}
