// Micro-benchmarks for the hot kernels behind the paper's experiments:
// top-k Steiner search (legacy SteinerProblem rebuild vs the CSR fast
// path, with and without use_sp_cache and the thread pool),
// MAD propagation, query-graph expansion, conjunctive-query execution,
// and alpha-neighborhood Dijkstra.
//
// Emits a human-readable table on stdout and machine-readable JSON lines
// ({"kernel":..., "n":..., "median_us":...}) to --json=PATH (default
// bench/out/BENCH_micro_kernels.json) so the perf trajectory is trackable across
// PRs. The Steiner section also cross-checks that every fast-path
// configuration reproduces the legacy engine's trees and exits non-zero
// on mismatch, so a perf run doubles as a correctness smoke test.
//
// Usage: bench_micro_kernels [--json=PATH] [--smoke]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/interpro_go.h"
#include "graph/graph_builder.h"
#include "match/mad_matcher.h"
#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "query/query_graph.h"
#include "steiner/top_k.h"
#include "text/text_index.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

bool g_smoke = false;

// Runs `fn` once to warm up, then enough times (at most `max_reps`) to
// spend roughly a fixed budget, and returns the median duration.
double MedianMicros(const std::function<void()>& fn, int max_reps = 25) {
  q::util::WallTimer warmup;
  fn();
  double warmup_us = warmup.ElapsedMicros();
  double budget_us = g_smoke ? 2e5 : 2e6;
  int reps = warmup_us > 0.0 ? static_cast<int>(budget_us / warmup_us) : max_reps;
  reps = std::max(3, std::min(reps, g_smoke ? 5 : max_reps));
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    q::util::WallTimer timer;
    fn();
    us.push_back(timer.ElapsedMicros());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

struct Reporter {
  FILE* json = nullptr;

  double Run(const std::string& kernel, std::size_t n,
             const std::function<void()>& fn) {
    double median = MedianMicros(fn);
    std::printf("%-28s n=%-7zu median_us=%12.1f\n", kernel.c_str(), n,
                median);
    std::fflush(stdout);
    if (json != nullptr) {
      std::fprintf(json, "{\"kernel\":\"%s\",\"n\":%zu,\"median_us\":%.3f}\n",
                   kernel.c_str(), n, median);
      std::fflush(json);
    }
    return median;
  }
};

// ---------------------------------------------------------------------------
// Synthetic Steiner workload: a 1k-node random connected graph with
// distinct edge costs (one feature per edge), 4 keyword terminals, k=10.
// ---------------------------------------------------------------------------

struct SteinerFixture {
  q::graph::FeatureSpace space;
  q::graph::SearchGraph graph;
  std::unique_ptr<q::graph::WeightVector> weights;
  std::vector<q::graph::NodeId> terminals;

  SteinerFixture(std::size_t n, std::size_t m, std::size_t t,
                 std::uint64_t seed) {
    q::util::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      graph.AddNode(q::graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    weights = std::make_unique<q::graph::WeightVector>(&space);
    auto add_edge = [&](q::graph::NodeId u, q::graph::NodeId v) {
      q::graph::Edge e;
      e.u = u;
      e.v = v;
      e.kind = q::graph::EdgeKind::kAssociation;
      q::graph::FeatureVec f;
      f.Add(space.Intern("e" + std::to_string(graph.num_edges()),
                         0.1 + rng.UniformDouble() * 2.0),
            1.0);
      e.features = std::move(f);
      graph.AddEdge(std::move(e));
    };
    // Random spanning tree first so the graph is connected, then extras.
    for (std::size_t i = 1; i < n; ++i) {
      add_edge(static_cast<q::graph::NodeId>(rng.Uniform(i)),
               static_cast<q::graph::NodeId>(i));
    }
    while (graph.num_edges() < m) {
      auto u = static_cast<q::graph::NodeId>(rng.Uniform(n));
      auto v = static_cast<q::graph::NodeId>(rng.Uniform(n));
      if (u != v) add_edge(u, v);
    }
    while (terminals.size() < t) {
      auto c = static_cast<q::graph::NodeId>(rng.Uniform(n));
      if (std::find(terminals.begin(), terminals.end(), c) ==
          terminals.end()) {
        terminals.push_back(c);
      }
    }
  }
};

bool SameTrees(const std::vector<q::steiner::SteinerTree>& a,
               const std::vector<q::steiner::SteinerTree>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].edges != b[i].edges) return false;
    if (std::abs(a[i].cost - b[i].cost) > 1e-9) return false;
  }
  return true;
}

// Benchmarks one solver family (exact or KMB) across engine configs and
// verifies every fast configuration against the legacy baseline. Returns
// false on a correctness mismatch.
bool BenchTopK(Reporter& report, const SteinerFixture& f, bool approximate,
               const std::string& tag, q::util::ThreadPool* pool) {
  q::steiner::TopKConfig config;
  config.k = 10;
  config.approximate = approximate;

  auto run = [&](q::steiner::SteinerEngine engine, bool cache,
                 q::util::ThreadPool* p) {
    q::steiner::TopKConfig c = config;
    c.engine = engine;
    c.use_sp_cache = cache;
    c.pool = p;
    return q::steiner::TopKSteinerTrees(f.graph, *f.weights, f.terminals, c);
  };

  auto legacy = run(q::steiner::SteinerEngine::kLegacy, false, nullptr);
  // `cache` is TopKConfig::use_sp_cache, which only says whether an
  // engine built from the config carries the enumeration memo. These
  // runs use the self-contained overload, whose per-call engine never
  // has one, so fast and fast_nocache run the same code.
  struct Variant {
    const char* name;
    bool cache;
    q::util::ThreadPool* pool;
  };
  const Variant variants[] = {
      {"fast", true, nullptr},
      {"fast_nocache", false, nullptr},
      {"fast_pool", true, pool},
  };
  bool ok = true;
  for (const Variant& v : variants) {
    auto trees = run(q::steiner::SteinerEngine::kFast, v.cache, v.pool);
    if (!SameTrees(legacy, trees)) {
      std::printf("MISMATCH: %s_%s differs from legacy output\n", tag.c_str(),
                  v.name);
      ok = false;
    }
  }

  std::size_t n = f.graph.num_nodes();
  double legacy_us = report.Run(tag + "_legacy", n, [&] {
    auto trees = run(q::steiner::SteinerEngine::kLegacy, false, nullptr);
    (void)trees;
  });
  double fast_us = 0.0;
  for (const Variant& v : variants) {
    double us = report.Run(tag + "_" + v.name, n, [&] {
      auto trees = run(q::steiner::SteinerEngine::kFast, v.cache, v.pool);
      (void)trees;
    });
    if (std::strcmp(v.name, "fast") == 0) fast_us = us;
  }
  if (fast_us > 0.0) {
    std::printf("%-28s speedup=%.2fx (legacy/fast), output %s\n",
                (tag + "_speedup").c_str(), legacy_us / fast_us,
                ok ? "verified identical" : "MISMATCH");
  }
  return ok;
}

// ---------------------------------------------------------------------------
// InterPro-GO fixture for the non-Steiner kernels (as before).
// ---------------------------------------------------------------------------

struct Fixture {
  q::data::InterProGoDataset dataset;
  q::graph::FeatureSpace space;
  std::unique_ptr<q::graph::CostModel> model;
  q::graph::SearchGraph graph;
  std::unique_ptr<q::graph::WeightVector> weights;
  q::text::TextIndex index;

  Fixture() {
    q::data::InterProGoConfig config;
    config.declare_foreign_keys = true;
    dataset = q::data::BuildInterProGo(config);
    model = std::make_unique<q::graph::CostModel>(&space,
                                                  q::graph::CostModelConfig{});
    graph = q::graph::BuildSearchGraph(dataset.catalog, model.get());
    weights = std::make_unique<q::graph::WeightVector>(&space);
    index.IndexCatalog(dataset.catalog);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "bench/out/BENCH_micro_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  Reporter report;
  report.json = q::bench::OpenBenchJson(json_path);
  if (report.json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    return 2;
  }

  bool ok = true;
  {
    q::util::ThreadPool pool;
    SteinerFixture kmb_fixture(1000, 3000, 4, /*seed=*/42);
    ok = BenchTopK(report, kmb_fixture, /*approximate=*/true,
                   "topk_steiner_kmb", &pool) &&
         ok;
    // The exact DP is the default solver below the approximate_above_nodes
    // threshold; a smaller graph keeps its 2^t x n tables comparable.
    SteinerFixture exact_fixture(1000, 2200, 4, /*seed=*/7);
    ok = BenchTopK(report, exact_fixture, /*approximate=*/false,
                   "topk_steiner_exact", &pool) &&
         ok;
  }

  Fixture f;
  report.Run("query_graph_expansion", f.graph.num_nodes(), [&] {
    auto qg = q::query::BuildQueryGraph(
        f.graph, f.index, {"plasma membrane", "pub title"}, f.model.get(),
        *f.weights, q::query::QueryGraphOptions{});
    (void)qg;
  });

  {
    auto rel = f.graph.FindRelationNode("interpro.pub");
    Q_CHECK(rel.has_value());
    report.Run("alpha_dijkstra", f.graph.num_nodes(), [&] {
      auto dist = f.graph.Dijkstra({{*rel, 0.0}}, *f.weights, 3.0);
      (void)dist;
    });
  }

  {
    std::vector<const q::relational::Table*> tables;
    for (const auto& t : f.dataset.catalog.AllTables()) {
      tables.push_back(t.get());
    }
    report.Run("mad_propagation", tables.size(), [&] {
      q::match::MadMatcher matcher;
      auto result = matcher.InduceAlignments(tables, 2);
      (void)result;
    });
  }

  {
    q::query::ConjunctiveQuery cq;
    cq.atoms = {"go.go_term", "interpro.interpro2go", "interpro.entry"};
    cq.joins = {
        {q::relational::AttributeId{"go", "go_term", "acc"},
         q::relational::AttributeId{"interpro", "interpro2go", "go_id"}},
        {q::relational::AttributeId{"interpro", "interpro2go", "entry_ac"},
         q::relational::AttributeId{"interpro", "entry", "entry_ac"}}};
    cq.select_list = {
        {q::relational::AttributeId{"go", "go_term", "name"}, "name"},
        {q::relational::AttributeId{"interpro", "entry", "name"},
         "entry_name"}};
    q::query::Executor executor(&f.dataset.catalog);
    report.Run("cq_execution", f.dataset.catalog.AllTables().size(), [&] {
      auto rows = executor.Execute(cq);
      (void)rows;
    });
  }

  report.Run("text_index_search", f.graph.num_nodes(), [&] {
    auto results = f.index.Search("plasma membrane kinase", 0.1, 16);
    (void)results;
  });

  std::fclose(report.json);
  std::printf("json written to %s\n", json_path);
  return ok ? 0 : 1;
}
