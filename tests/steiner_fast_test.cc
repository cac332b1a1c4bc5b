// Determinism and equivalence tests for the CSR fast-path query engine
// (src/steiner/fast_solver.*): across seeded random graphs — including
// tie-heavy graphs with zero-cost edges and forced/banned overlays — the
// fast engine must produce byte-identical top-k results whether or not
// the enumeration memo and the thread pool are enabled, and must match
// the contracted referee (tests/reference_steiner.h) whenever edge costs
// are distinct.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "graph/search_graph.h"
#include "reference_steiner.h"
#include "steiner/fast_solver.h"
#include "steiner/top_k.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace q::steiner {
namespace {

using graph::EdgeId;
using graph::NodeId;

struct RandomGraph {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;
  std::vector<NodeId> terminals;

  // `zero_cost_fraction` introduces exact ties (the fixed_zero edges of
  // real query graphs), the stress case for canonical tie-breaking.
  RandomGraph(util::Rng* rng, std::size_t n, std::size_t m, std::size_t t,
              double zero_cost_fraction) {
    for (std::size_t i = 0; i < n; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    weights = std::make_unique<graph::WeightVector>(&space);
    auto add_edge = [&](NodeId u, NodeId v) {
      graph::Edge e;
      e.u = u;
      e.v = v;
      e.kind = graph::EdgeKind::kAssociation;
      if (rng->UniformDouble() < zero_cost_fraction) {
        e.fixed_zero = true;
      } else {
        graph::FeatureVec f;
        f.Add(space.Intern("e" + std::to_string(graph.num_edges()),
                           0.1 + rng->UniformDouble()),
              1.0);
        e.features = std::move(f);
      }
      graph.AddEdge(std::move(e));
    };
    for (std::size_t i = 1; i < n; ++i) {
      add_edge(static_cast<NodeId>(rng->Uniform(i)), static_cast<NodeId>(i));
    }
    while (graph.num_edges() < m) {
      auto u = static_cast<NodeId>(rng->Uniform(n));
      auto v = static_cast<NodeId>(rng->Uniform(n));
      if (u != v) add_edge(u, v);
    }
    std::set<NodeId> picked;
    while (picked.size() < t) {
      picked.insert(static_cast<NodeId>(rng->Uniform(n)));
    }
    terminals.assign(picked.begin(), picked.end());
  }
};

// `cache` runs on `memo_engine`, a memo engine over g that the caller
// keeps across runs, so a repeat is served from the memo; otherwise each
// run builds its own engine.
std::vector<SteinerTree> RunTopK(const RandomGraph& g, bool cache,
                                 util::ThreadPool* pool, bool approximate,
                                 int k = 6,
                                 FastSteinerEngine* memo_engine = nullptr) {
  TopKConfig config;
  config.k = k;
  config.approximate = approximate;
  config.use_sp_cache = cache;
  config.pool = pool;
  return TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                          cache ? memo_engine : nullptr);
}

// Byte-identical comparison: same trees, same order, same costs.
void ExpectIdentical(const std::vector<SteinerTree>& a,
                     const std::vector<SteinerTree>& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edges, b[i].edges) << label << " tree " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << label << " tree " << i;
  }
}

class FastPathIdentityTest : public ::testing::TestWithParam<int> {};

// Cache and thread pool must never change output, including on graphs
// riddled with exact cost ties.
TEST_P(FastPathIdentityTest, CacheAndPoolAreByteIdentical) {
  util::Rng rng(9000 + GetParam());
  RandomGraph g(&rng, 40 + rng.Uniform(40), 100 + rng.Uniform(60),
                3 + rng.Uniform(2), /*zero_cost_fraction=*/0.3);
  util::ThreadPool pool(4);
  FastSteinerEngine memo_engine(g.graph, *g.weights, /*use_memo=*/true);
  for (bool approximate : {false, true}) {
    auto base = RunTopK(g, false, nullptr, approximate);
    auto cached = RunTopK(g, true, nullptr, approximate, 6, &memo_engine);
    auto pooled = RunTopK(g, false, &pool, approximate);
    auto both = RunTopK(g, true, &pool, approximate, 6, &memo_engine);
    std::string label = approximate ? "kmb" : "exact";
    ExpectIdentical(base, cached, label + " cache");
    ExpectIdentical(base, pooled, label + " pool");
    ExpectIdentical(base, both, label + " cache+pool");
    // Re-running with a warm engine state must also be stable.
    auto again = RunTopK(g, true, &pool, approximate, 6, &memo_engine);
    ExpectIdentical(base, again, label + " rerun");
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, FastPathIdentityTest,
                         ::testing::Range(0, 12));

class FastVsLegacyTest : public ::testing::TestWithParam<int> {};

// With distinct random costs (no ties), the fast engine must reproduce
// the referee's trees exactly, for both solver families.
TEST_P(FastVsLegacyTest, MatchesLegacyOnDistinctCosts) {
  util::Rng rng(9100 + GetParam());
  RandomGraph g(&rng, 30 + rng.Uniform(30), 70 + rng.Uniform(50),
                3 + rng.Uniform(2), /*zero_cost_fraction=*/0.0);
  util::ThreadPool pool(2);
  for (bool approximate : {false, true}) {
    TopKConfig config;
    config.k = 6;
    config.approximate = approximate;
    auto legacy = reference::TopKSteinerTrees(g.graph, *g.weights,
                                              g.terminals, config);
    auto fast = RunTopK(g, true, &pool, approximate);
    std::string label = approximate ? "kmb" : "exact";
    ASSERT_EQ(legacy.size(), fast.size()) << label;
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(legacy[i].edges, fast[i].edges) << label << " tree " << i;
      EXPECT_NEAR(legacy[i].cost, fast[i].cost, 1e-9) << label << " tree "
                                                      << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, FastVsLegacyTest,
                         ::testing::Range(0, 12));

// Direct solver-level check of forced/banned overlays against the
// referee's contraction semantics, including infeasible subproblems.
TEST(FastSolverOverlayTest, ForcedAndBannedMatchContraction) {
  util::Rng rng(77);
  RandomGraph g(&rng, 24, 60, 3, 0.0);
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/true);

  // Take the best tree, then force/ban prefixes of it like Lawler does.
  auto base = engine.SolveKmb(g.terminals, {}, {});
  ASSERT_TRUE(base.has_value());
  ASSERT_FALSE(base->edges.empty());
  std::vector<EdgeId> forced;
  std::vector<EdgeId> banned;
  for (EdgeId e : base->edges) {
    banned.assign(1, e);
    auto fast = engine.SolveKmb(g.terminals, forced, banned);
    reference::SteinerProblem problem(g.graph, *g.weights, g.terminals,
                                      forced, banned);
    auto legacy = reference::SolveKmbSteiner(problem);
    ASSERT_EQ(fast.has_value(), legacy.has_value());
    if (fast.has_value()) {
      EXPECT_EQ(fast->edges, legacy->edges);
      EXPECT_NEAR(fast->cost, legacy->cost, 1e-9);
    }

    auto fast_exact = engine.SolveExact(g.terminals, forced, banned);
    auto legacy_exact = reference::SolveExactSteiner(problem);
    ASSERT_EQ(fast_exact.has_value(), legacy_exact.has_value());
    if (fast_exact.has_value()) {
      EXPECT_EQ(fast_exact->edges, legacy_exact->edges);
      EXPECT_NEAR(fast_exact->cost, legacy_exact->cost, 1e-9);
    }
    forced.push_back(e);
  }

  // Forced and banned overlapping -> infeasible.
  EXPECT_FALSE(engine
                   .SolveKmb(g.terminals, {base->edges[0]}, {base->edges[0]})
                   .has_value());
  EXPECT_FALSE(engine
                   .SolveExact(g.terminals, {base->edges[0]},
                               {base->edges[0]})
                   .has_value());
}

// Snapshot pin/unpin (the async refresh scheduler's search-vs-recost
// isolation): a pin freezes the CSR cost buffer, a concurrent re-cost
// copies-on-write onto a fresh buffer and new generation, and a
// solve that started under the pinned costs keeps producing exactly the
// pinned snapshot's output.
TEST(FastSolverPinTest, PinnedSnapshotSurvivesRecost) {
  util::Rng rng(555);
  RandomGraph g(&rng, 30, 70, 3, 0.0);
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/true);
  auto before = engine.SolveKmb(g.terminals, {}, {});
  ASSERT_TRUE(before.has_value());

  // Pin, then re-cost under perturbed weights: the pinned buffer must
  // keep the old costs byte for byte while the engine moves on.
  SnapshotPin pin = engine.Pin();
  std::vector<double> pinned_costs = pin.csr->edge_cost;
  for (graph::FeatureId id = 1;
       id < static_cast<graph::FeatureId>(g.space.size()); ++id) {
    g.weights->Set(id, g.weights->At(id) * 1.5);
  }
  engine.Recost(g.graph, *g.weights);
  EXPECT_EQ(pin.csr->edge_cost, pinned_costs);      // frozen
  EXPECT_NE(&engine.csr(), pin.csr.get());          // copied on write
  EXPECT_GT(engine.generation(), pin.generation);

  // The engine serves the new weights; a twin engine pinned-equivalent
  // at the old weights reproduces the pinned solve.
  auto after = engine.SolveKmb(g.terminals, {}, {});
  FastSteinerEngine fresh_new(g.graph, *g.weights, /*use_memo=*/true);
  auto reference_new = fresh_new.SolveKmb(g.terminals, {}, {});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->edges, reference_new->edges);
  EXPECT_EQ(after->cost, reference_new->cost);

  // Delta re-costs under a pin take the same copy-on-write path.
  SnapshotPin pin2 = engine.Pin();
  std::vector<double> pinned2 = pin2.csr->edge_cost;
  std::uint64_t rev = g.weights->revision();
  g.weights->Set(1, g.weights->At(1) * 2.0);
  std::vector<graph::FeatureDelta> deltas;
  ASSERT_TRUE(g.weights->DeltaSince(rev, &deltas));
  auto outcome = engine.RecostDelta(g.graph, *g.weights, deltas);
  ASSERT_TRUE(outcome.applied);
  if (outcome.edges_repriced > 0) {
    EXPECT_EQ(pin2.csr->edge_cost, pinned2);
    EXPECT_NE(&engine.csr(), pin2.csr.get());
  }
  // Released pins let the next mutation go back in place.
  pin = SnapshotPin{};
  pin2 = SnapshotPin{};
  const CsrGraph* current = &engine.csr();
  engine.Recost(g.graph, *g.weights);
  EXPECT_EQ(&engine.csr(), current);  // unpinned: mutated in place
}

}  // namespace
}  // namespace q::steiner
