#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "graph/search_graph.h"
#include "reference_steiner.h"
#include "steiner/fast_solver.h"
#include "steiner/steiner_tree.h"
#include "steiner/top_k.h"
#include "util/random.h"

namespace q::steiner {
namespace {

using graph::EdgeId;
using graph::FeatureSpace;
using graph::FeatureVec;
using graph::NodeId;
using graph::SearchGraph;
using graph::WeightVector;
using reference::SolveExactSteiner;
using reference::SolveKmbSteiner;
using reference::SteinerProblem;

// Test harness: a graph whose edge i costs costs[i], encoded as one
// feature per edge with the cost as initial weight.
struct TestGraph {
  FeatureSpace space;
  SearchGraph graph;
  std::unique_ptr<WeightVector> weights;

  explicit TestGraph(std::size_t num_nodes) {
    for (std::size_t i = 0; i < num_nodes; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    weights = std::make_unique<WeightVector>(&space);
  }

  EdgeId AddEdge(NodeId u, NodeId v, double cost) {
    graph::Edge e;
    e.u = u;
    e.v = v;
    e.kind = graph::EdgeKind::kAssociation;
    FeatureVec f;
    f.Add(space.Intern("e" + std::to_string(graph.num_edges()), cost), 1.0);
    e.features = std::move(f);
    return graph.AddEdge(std::move(e));
  }
};

// Brute force: all edge subsets that form a *proper* Steiner tree (every
// leaf a terminal), which is the space TopKSteinerTrees enumerates.
std::vector<SteinerTree> BruteForceAllTrees(
    const TestGraph& tg, const std::vector<NodeId>& terminals) {
  std::vector<SteinerTree> trees;
  std::size_t m = tg.graph.num_edges();
  for (std::size_t mask = 0; mask < (1u << m); ++mask) {
    SteinerTree t;
    for (std::size_t e = 0; e < m; ++e) {
      if (mask & (1u << e)) t.edges.push_back(static_cast<EdgeId>(e));
    }
    if (!IsProperSteinerTree(tg.graph, t, terminals)) continue;
    t.cost = TreeCost(tg.graph, *tg.weights, t);
    trees.push_back(std::move(t));
  }
  std::sort(trees.begin(), trees.end(), TreeLess);
  return trees;
}

// A single-tree solver under test: the subspace optimum holding every
// forced edge and no banned one, or nullopt. The hand-built cases below
// run against both the contracted referee and the production engine.
using Solve = std::optional<SteinerTree> (*)(
    const TestGraph& tg, const std::vector<NodeId>& terminals,
    const std::vector<EdgeId>& forced, const std::vector<EdgeId>& banned);

template <bool kKmb>
std::optional<SteinerTree> Referee(const TestGraph& tg,
                                   const std::vector<NodeId>& terminals,
                                   const std::vector<EdgeId>& forced,
                                   const std::vector<EdgeId>& banned) {
  SteinerProblem problem(tg.graph, *tg.weights, terminals, forced, banned);
  return kKmb ? SolveKmbSteiner(problem) : SolveExactSteiner(problem);
}

template <bool kKmb>
std::optional<SteinerTree> Fast(const TestGraph& tg,
                                const std::vector<NodeId>& terminals,
                                const std::vector<EdgeId>& forced,
                                const std::vector<EdgeId>& banned) {
  FastSteinerEngine engine(tg.graph, *tg.weights, /*use_memo=*/false);
  return kKmb ? engine.SolveKmb(terminals, forced, banned)
              : engine.SolveExact(terminals, forced, banned);
}

struct SolverPair {
  const char* name;
  Solve exact;
  Solve kmb;
};

const SolverPair kSolvers[] = {{"referee", &Referee<false>, &Referee<true>},
                               {"fast", &Fast<false>, &Fast<true>}};

void PrintTo(const SolverPair& solver, std::ostream* os) { *os << solver.name; }

std::string SolverName(const ::testing::TestParamInfo<SolverPair>& info) {
  return info.param.name;
}

TEST(SteinerTreeTest, ValidityChecks) {
  TestGraph tg(4);
  EdgeId e01 = tg.AddEdge(0, 1, 1.0);
  EdgeId e12 = tg.AddEdge(1, 2, 1.0);
  EdgeId e02 = tg.AddEdge(0, 2, 1.0);
  EdgeId e23 = tg.AddEdge(2, 3, 1.0);

  SteinerTree path{{e01, e12}, 2.0};
  EXPECT_TRUE(IsValidSteinerTree(tg.graph, path, {0, 2}));
  EXPECT_TRUE(IsValidSteinerTree(tg.graph, path, {0, 1, 2}));
  EXPECT_FALSE(IsValidSteinerTree(tg.graph, path, {0, 3}));

  SteinerTree cycle{{e01, e12, e02}, 3.0};
  EXPECT_FALSE(IsValidSteinerTree(tg.graph, cycle, {0, 2}));

  SteinerTree disconnected{{e01, e23}, 2.0};
  EXPECT_FALSE(IsValidSteinerTree(tg.graph, disconnected, {0, 3}));

  SteinerTree empty{{}, 0.0};
  EXPECT_TRUE(IsValidSteinerTree(tg.graph, empty, {1, 1}));
  EXPECT_FALSE(IsValidSteinerTree(tg.graph, empty, {0, 1}));
}

TEST(SteinerTreeTest, SymmetricLoss) {
  SteinerTree a{{1, 2, 3}, 0.0};
  SteinerTree b{{2, 3, 4, 5}, 0.0};
  EXPECT_DOUBLE_EQ(SymmetricEdgeLoss(a, b), 3.0);  // {1} and {4,5}
  EXPECT_DOUBLE_EQ(SymmetricEdgeLoss(a, a), 0.0);
  SteinerTree empty{{}, 0.0};
  EXPECT_DOUBLE_EQ(SymmetricEdgeLoss(a, empty), 3.0);
}

class ExactSolverTest : public ::testing::TestWithParam<SolverPair> {};

TEST_P(ExactSolverTest, TwoTerminalsIsShortestPath) {
  TestGraph tg(4);
  tg.AddEdge(0, 1, 1.0);
  tg.AddEdge(1, 3, 1.0);
  tg.AddEdge(0, 2, 0.5);
  tg.AddEdge(2, 3, 0.6);

  auto tree = GetParam().exact(tg, {0, 3}, {}, {});
  ASSERT_TRUE(tree.has_value());
  EXPECT_NEAR(tree->cost, 1.1, 1e-9);
  EXPECT_EQ(tree->edges.size(), 2u);
}

TEST_P(ExactSolverTest, ClassicSteinerPointCase) {
  // Star: terminals 0,1,2 all connect to hub 3 with cost 1; pairwise
  // terminal edges cost 1.9. Optimum uses the hub (cost 3 < 3.8).
  TestGraph tg(4);
  tg.AddEdge(0, 3, 1.0);
  tg.AddEdge(1, 3, 1.0);
  tg.AddEdge(2, 3, 1.0);
  tg.AddEdge(0, 1, 1.9);
  tg.AddEdge(1, 2, 1.9);

  auto tree = GetParam().exact(tg, {0, 1, 2}, {}, {});
  ASSERT_TRUE(tree.has_value());
  EXPECT_NEAR(tree->cost, 3.0, 1e-9);
  EXPECT_EQ(tree->edges.size(), 3u);
}

TEST_P(ExactSolverTest, DisconnectedTerminalsReturnNullopt) {
  TestGraph tg(4);
  tg.AddEdge(0, 1, 1.0);
  tg.AddEdge(2, 3, 1.0);
  EXPECT_FALSE(GetParam().exact(tg, {0, 3}, {}, {}).has_value());
}

TEST_P(ExactSolverTest, ForcedEdgesAreContractedAndCharged) {
  TestGraph tg(4);
  EdgeId e01 = tg.AddEdge(0, 1, 5.0);  // expensive but forced
  tg.AddEdge(1, 2, 1.0);
  tg.AddEdge(0, 2, 0.5);
  tg.AddEdge(2, 3, 1.0);

  auto tree = GetParam().exact(tg, {0, 3}, {e01}, {});
  ASSERT_TRUE(tree.has_value());
  // Must contain the forced edge plus the cheapest completion.
  EXPECT_NE(std::find(tree->edges.begin(), tree->edges.end(), e01),
            tree->edges.end());
  EXPECT_NEAR(tree->cost, 5.0 + 0.5 + 1.0, 1e-9);
}

TEST_P(ExactSolverTest, BannedEdgesAreAvoided) {
  TestGraph tg(3);
  EdgeId cheap = tg.AddEdge(0, 2, 0.1);
  tg.AddEdge(0, 1, 1.0);
  tg.AddEdge(1, 2, 1.0);
  auto tree = GetParam().exact(tg, {0, 2}, {}, {cheap});
  ASSERT_TRUE(tree.has_value());
  EXPECT_NEAR(tree->cost, 2.0, 1e-9);
}

TEST_P(ExactSolverTest, SingleTerminalYieldsEmptyTree) {
  TestGraph tg(3);
  tg.AddEdge(0, 1, 1.0);
  auto tree = GetParam().exact(tg, {1}, {}, {});
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->edges.empty());
  EXPECT_DOUBLE_EQ(tree->cost, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Solvers, ExactSolverTest,
                         ::testing::ValuesIn(kSolvers), SolverName);

// Property test: exact solver matches brute force on random graphs.
class ExactVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsBruteForceTest, OptimalCostMatches) {
  util::Rng rng(1000 + GetParam());
  std::size_t n = 5 + rng.Uniform(3);        // 5-7 nodes
  std::size_t m = 6 + rng.Uniform(5);        // 6-10 edges
  TestGraph tg(n);
  std::set<std::pair<NodeId, NodeId>> used;
  for (std::size_t e = 0; e < m; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (u == v || used.count({std::min(u, v), std::max(u, v)}) > 0) continue;
    used.insert({std::min(u, v), std::max(u, v)});
    tg.AddEdge(u, v, 0.1 + rng.UniformDouble() * 2.0);
  }
  std::size_t t = 2 + rng.Uniform(2);  // 2-3 terminals
  std::vector<NodeId> terminals;
  for (std::size_t i = 0; i < t; ++i) {
    terminals.push_back(static_cast<NodeId>(rng.Uniform(n)));
  }

  auto brute = BruteForceAllTrees(tg, terminals);
  for (const SolverPair& solver : kSolvers) {
    SCOPED_TRACE(solver.name);
    auto tree = solver.exact(tg, terminals, {}, {});
    if (brute.empty()) {
      EXPECT_FALSE(tree.has_value());
      continue;
    }
    ASSERT_TRUE(tree.has_value());
    EXPECT_NEAR(tree->cost, brute[0].cost, 1e-9);
    EXPECT_TRUE(IsValidSteinerTree(tg.graph, *tree, terminals));
    EXPECT_NEAR(TreeCost(tg.graph, *tg.weights, *tree), tree->cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ExactVsBruteForceTest,
                         ::testing::Range(0, 25));

TEST(KmbSolverTest, ValidAndWithinApproximationBound) {
  for (int trial = 0; trial < 15; ++trial) {
    util::Rng rng(2000 + trial);
    std::size_t n = 6 + rng.Uniform(3);
    TestGraph tg(n);
    std::set<std::pair<NodeId, NodeId>> used;
    for (std::size_t e = 0; e < 12; ++e) {
      NodeId u = static_cast<NodeId>(rng.Uniform(n));
      NodeId v = static_cast<NodeId>(rng.Uniform(n));
      if (u == v || used.count({std::min(u, v), std::max(u, v)}) > 0) {
        continue;
      }
      used.insert({std::min(u, v), std::max(u, v)});
      tg.AddEdge(u, v, 0.1 + rng.UniformDouble());
    }
    std::vector<NodeId> terminals{0, static_cast<NodeId>(n - 1),
                                  static_cast<NodeId>(n / 2)};
    for (const SolverPair& solver : kSolvers) {
      SCOPED_TRACE(std::string(solver.name) + " trial " +
                   std::to_string(trial));
      auto exact = solver.exact(tg, terminals, {}, {});
      auto approx = solver.kmb(tg, terminals, {}, {});
      ASSERT_EQ(exact.has_value(), approx.has_value());
      if (!exact.has_value()) continue;
      EXPECT_TRUE(IsValidSteinerTree(tg.graph, *approx, terminals));
      // KMB guarantees 2(1 - 1/t) * OPT.
      EXPECT_LE(approx->cost, 2.0 * exact->cost + 1e-9);
      EXPECT_GE(approx->cost, exact->cost - 1e-9);
    }
  }
}

TEST(TopKTest, EnumeratesInOrderWithoutDuplicates) {
  TestGraph tg(4);
  tg.AddEdge(0, 1, 1.0);
  tg.AddEdge(1, 3, 1.0);
  tg.AddEdge(0, 2, 1.5);
  tg.AddEdge(2, 3, 1.5);
  tg.AddEdge(0, 3, 4.0);

  TopKConfig config;
  config.k = 3;
  auto trees = TopKSteinerTrees(tg.graph, *tg.weights, {0, 3}, config);
  ASSERT_EQ(trees.size(), 3u);
  EXPECT_NEAR(trees[0].cost, 2.0, 1e-9);
  EXPECT_NEAR(trees[1].cost, 3.0, 1e-9);
  EXPECT_NEAR(trees[2].cost, 4.0, 1e-9);
  std::set<std::vector<EdgeId>> unique;
  for (const auto& t : trees) {
    EXPECT_TRUE(unique.insert(t.edges).second);
    EXPECT_TRUE(IsValidSteinerTree(tg.graph, t, {0, 3}));
  }
}

// Property test: top-k equals the k best brute-force trees.
class TopKVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKVsBruteForceTest, MatchesBruteForceEnumeration) {
  util::Rng rng(3000 + GetParam());
  std::size_t n = 5;
  TestGraph tg(n);
  std::set<std::pair<NodeId, NodeId>> used;
  for (std::size_t e = 0; e < 8; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (u == v || used.count({std::min(u, v), std::max(u, v)}) > 0) continue;
    used.insert({std::min(u, v), std::max(u, v)});
    // Distinct costs to make the ordering unambiguous.
    tg.AddEdge(u, v, 0.5 + 0.37 * static_cast<double>(tg.graph.num_edges()));
  }
  std::vector<NodeId> terminals{0, 4};
  auto brute = BruteForceAllTrees(tg, terminals);

  TopKConfig config;
  config.k = 4;
  auto trees = TopKSteinerTrees(tg.graph, *tg.weights, terminals, config);
  std::size_t expect = std::min<std::size_t>(4, brute.size());
  ASSERT_EQ(trees.size(), expect);
  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_NEAR(trees[i].cost, brute[i].cost, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TopKVsBruteForceTest,
                         ::testing::Range(0, 20));

// Three terminals and tied integer costs: the enumeration returns the k
// cheapest proper trees, each once, and certifies them with a gap that
// never overstates the slack to the cheapest proper tree it did not
// return.
class TopKTiedCostsVsBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKTiedCostsVsBruteForceTest, CheapestTreesAndSoundGap) {
  util::Rng rng(5000 + GetParam());
  const std::size_t n = 7;
  TestGraph tg(n);
  std::set<std::pair<NodeId, NodeId>> used;
  for (std::size_t e = 0; e < 13; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (u == v || used.count({std::min(u, v), std::max(u, v)}) > 0) continue;
    used.insert({std::min(u, v), std::max(u, v)});
    tg.AddEdge(u, v, static_cast<double>(1 + rng.Uniform(3)));
  }
  const std::vector<NodeId> terminals{0, 3, 5};
  const auto brute = BruteForceAllTrees(tg, terminals);

  TopKConfig config;
  config.k = 5;
  RelevanceCertificate certificate;
  const auto trees =
      TopKSteinerTrees(tg.graph, *tg.weights, terminals, config,
                       /*shared_engine=*/nullptr, &certificate);
  const std::size_t expect = std::min<std::size_t>(5, brute.size());
  ASSERT_EQ(trees.size(), expect);
  std::set<std::vector<EdgeId>> returned;
  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_NEAR(trees[i].cost, brute[i].cost, 1e-9) << "rank " << i;
    EXPECT_TRUE(IsProperSteinerTree(tg.graph, trees[i], terminals))
        << "rank " << i;
    EXPECT_TRUE(returned.insert(trees[i].edges).second) << "rank " << i;
  }
  ASSERT_TRUE(certificate.valid);
  double cheapest_missing = std::numeric_limits<double>::infinity();
  for (const SteinerTree& tree : brute) {
    if (returned.count(tree.edges) == 0) {
      cheapest_missing = std::min(cheapest_missing, tree.cost);
    }
  }
  if (std::isinf(cheapest_missing)) return;  // every proper tree returned
  ASSERT_FALSE(std::isinf(certificate.gap));
  const double kth = trees.empty() ? 0.0 : trees.back().cost;
  EXPECT_LE(certificate.gap, cheapest_missing - kth + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TopKTiedCostsVsBruteForceTest,
                         ::testing::Range(0, 40));

// A forced prefix that strands a node. Branched in edge-id order, the
// third pivot of this enumeration forces edges 6, 9 and 10 and bans 11:
// an improper tree of cost 9 whose node 3 is a non-terminal leaf, so
// three expansions emit only two trees. Branched depth-first from the
// terminals, every forced prefix hangs off a terminal and three
// expansions emit all three.
TEST(TopKTest, DepthFirstBranchingKeepsForcedPrefixesAttached) {
  TestGraph tg(8);
  const std::vector<std::tuple<NodeId, NodeId, double>> edges = {
      {6, 3, 3}, {5, 6, 4}, {6, 2, 2}, {7, 5, 3}, {0, 5, 4}, {7, 1, 3},
      {1, 4, 3}, {6, 4, 1}, {0, 7, 1}, {3, 2, 1}, {1, 0, 2}, {3, 4, 2}};
  for (const auto& [u, v, cost] : edges) tg.AddEdge(u, v, cost);
  const std::vector<NodeId> terminals{0, 1, 2};
  const std::vector<std::vector<EdgeId>> want = {
      {6, 9, 10, 11}, {2, 6, 7, 10}, {0, 6, 7, 9, 10}};
  const std::vector<double> want_cost = {8, 8, 10};

  TopKConfig config;
  config.k = 3;
  config.max_subproblems = 3;
  const auto capped =
      TopKSteinerTrees(tg.graph, *tg.weights, terminals, config);
  config.max_subproblems = TopKConfig{}.max_subproblems;
  const auto uncapped =
      TopKSteinerTrees(tg.graph, *tg.weights, terminals, config);
  for (const auto* trees : {&capped, &uncapped}) {
    ASSERT_EQ(trees->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*trees)[i].edges, want[i]) << "rank " << i;
      EXPECT_NEAR((*trees)[i].cost, want_cost[i], 1e-9) << "rank " << i;
    }
  }
}

// Approximate mode: trees remain valid and cost at least the exact
// optimum; the best approximate tree is within the KMB bound. KMB output
// is heuristic, so it never certifies.
class ApproximateTopKTest : public ::testing::TestWithParam<int> {};

TEST_P(ApproximateTopKTest, ValidAndBounded) {
  util::Rng rng(4000 + GetParam());
  std::size_t n = 6 + rng.Uniform(3);
  TestGraph tg(n);
  std::set<std::pair<NodeId, NodeId>> used;
  for (std::size_t e = 0; e < 12; ++e) {
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (u == v || used.count({std::min(u, v), std::max(u, v)}) > 0) continue;
    used.insert({std::min(u, v), std::max(u, v)});
    tg.AddEdge(u, v, 0.1 + rng.UniformDouble());
  }
  std::vector<NodeId> terminals{0, static_cast<NodeId>(n - 1)};

  TopKConfig exact_config;
  exact_config.k = 1;
  auto exact = TopKSteinerTrees(tg.graph, *tg.weights, terminals,
                                exact_config);
  TopKConfig approx_config;
  approx_config.k = 3;
  approx_config.approximate = true;
  RelevanceCertificate certificate;
  auto approx = TopKSteinerTrees(tg.graph, *tg.weights, terminals,
                                 approx_config, /*shared_engine=*/nullptr,
                                 &certificate);
  EXPECT_FALSE(certificate.valid);
  if (exact.empty()) {
    EXPECT_TRUE(approx.empty());
    return;
  }
  ASSERT_FALSE(approx.empty());
  for (const auto& t : approx) {
    EXPECT_TRUE(IsProperSteinerTree(tg.graph, t, terminals));
    EXPECT_GE(t.cost, exact[0].cost - 1e-9);
  }
  // 2 terminals: KMB returns the true shortest path, so the best
  // approximate tree is optimal here.
  EXPECT_NEAR(approx[0].cost, exact[0].cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ApproximateTopKTest,
                         ::testing::Range(0, 10));

TEST(TopKTest, AutoSwitchesToApproximationAboveNodeLimit) {
  TestGraph tg(4);
  tg.AddEdge(0, 1, 1.0);
  tg.AddEdge(1, 3, 1.0);
  tg.AddEdge(0, 2, 1.5);
  tg.AddEdge(2, 3, 1.5);
  TopKConfig config;
  config.k = 2;
  config.approximate_above_nodes = 2;  // force the KMB path
  auto trees = TopKSteinerTrees(tg.graph, *tg.weights, {0, 3}, config);
  ASSERT_FALSE(trees.empty());
  EXPECT_TRUE(IsProperSteinerTree(tg.graph, trees[0], {0, 3}));
  EXPECT_NEAR(trees[0].cost, 2.0, 1e-9);
}

TEST(TopKTest, EmptyTerminalsAndZeroK) {
  TestGraph tg(3);
  tg.AddEdge(0, 1, 1.0);
  TopKConfig config;
  config.k = 0;
  EXPECT_TRUE(TopKSteinerTrees(tg.graph, *tg.weights, {0, 1}, config).empty());
  config.k = 3;
  EXPECT_TRUE(TopKSteinerTrees(tg.graph, *tg.weights, {}, config).empty());
}

TEST(ProblemTest, ForcedCycleInvalid) {
  TestGraph tg(3);
  EdgeId a = tg.AddEdge(0, 1, 1.0);
  EdgeId b = tg.AddEdge(1, 2, 1.0);
  EdgeId c = tg.AddEdge(0, 2, 1.0);
  SteinerProblem cycle(tg.graph, *tg.weights, {0}, {a, b, c}, {});
  EXPECT_FALSE(cycle.valid());
  SteinerProblem conflicted(tg.graph, *tg.weights, {0}, {a}, {a});
  EXPECT_FALSE(conflicted.valid());
}

TEST(ProblemTest, ContractionMergesTerminals) {
  TestGraph tg(3);
  EdgeId a = tg.AddEdge(0, 1, 1.0);
  tg.AddEdge(1, 2, 1.0);
  SteinerProblem problem(tg.graph, *tg.weights, {0, 1}, {a}, {});
  ASSERT_TRUE(problem.valid());
  EXPECT_EQ(problem.terminals().size(), 1u);
  EXPECT_DOUBLE_EQ(problem.base_cost(), 1.0);
  auto tree = SolveExactSteiner(problem);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->edges.size(), 1u);  // just the forced edge
}

}  // namespace
}  // namespace q::steiner
