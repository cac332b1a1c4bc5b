// Randomized differential harness for the fast Steiner engine: across ~50
// seeded (random graph x weight perturbation) configurations, and on the
// micro-kernel bench's two 1,000-node graphs, the fast-path top-k
// enumeration must reproduce the contracted referee's output
// (tests/reference_steiner.h) exactly — same tree costs and same edge
// sets — for both solver families, under forced/banned-edge overlays, and
// through the weight-only re-cost fast path (a re-costed snapshot must be
// indistinguishable from a freshly built one).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "graph/search_graph.h"
#include "reference_steiner.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "steiner/top_k.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace q::steiner {
namespace {

using graph::EdgeId;
using graph::NodeId;

// Connected random graph with one feature per edge so every weight
// perturbation re-prices every edge independently. Distinct random
// initial weights keep costs tie-free, which is the regime where the fast
// engine and the referee must agree edge-for-edge. Costs are drawn from
// [0.1, 0.1 + cost_span).
struct DiffGraph {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;
  std::vector<NodeId> terminals;

  DiffGraph(util::Rng* rng, std::size_t n, std::size_t m, std::size_t t,
            double cost_span = 1.0) {
    for (std::size_t i = 0; i < n; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    weights = std::make_unique<graph::WeightVector>(&space);
    auto add_edge = [&](NodeId u, NodeId v) {
      graph::Edge e;
      e.u = u;
      e.v = v;
      e.kind = graph::EdgeKind::kAssociation;
      graph::FeatureVec f;
      f.Add(space.Intern("e" + std::to_string(graph.num_edges()),
                         0.1 + rng->UniformDouble() * cost_span),
            1.0);
      e.features = std::move(f);
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
    while (terminals.size() < t) {
      auto c = static_cast<NodeId>(rng->Uniform(n));
      bool seen = false;
      for (NodeId existing : terminals) {
        if (existing == c) seen = true;
      }
      if (!seen) terminals.push_back(c);
    }
  }

  // Multiplies every per-edge feature weight by a random factor in
  // [0.5, 1.5) — a MIRA-update stand-in that keeps costs positive and
  // (almost surely) distinct.
  void PerturbWeights(util::Rng* rng) {
    for (graph::FeatureId id = 1;
         id < static_cast<graph::FeatureId>(space.size()); ++id) {
      weights->Set(id, weights->At(id) * (0.5 + rng->UniformDouble()));
    }
  }

  // Sparse MIRA-style update: rescales `count` randomly chosen per-edge
  // feature weights, leaving the rest untouched.
  void PerturbSparse(util::Rng* rng, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      auto id = static_cast<graph::FeatureId>(
          1 + rng->Uniform(space.size() - 1));
      weights->Set(id, weights->At(id) * (0.5 + rng->UniformDouble()));
    }
  }

  // Structural in-place edit: bumps one feature value on edge `e`
  // (changing its cost without touching topology), mirroring an
  // association-edge feature merge in the base graph.
  void MutateEdgeFeature(util::Rng* rng, graph::EdgeId e) {
    graph::FeatureVec features = graph.edge_features(e);
    if (features.empty()) return;
    graph::FeatureId id = features.entries()[0].first;
    features.Add(id, 0.1 + rng->UniformDouble());
    graph.SetEdgeFeatures(e, std::move(features));
  }

  // Structural topology edit: one new random edge with a fresh feature.
  void AddRandomEdge(util::Rng* rng) {
    NodeId u = static_cast<NodeId>(rng->Uniform(graph.num_nodes()));
    NodeId v = static_cast<NodeId>(rng->Uniform(graph.num_nodes()));
    if (u == v) v = (v + 1) % static_cast<NodeId>(graph.num_nodes());
    graph::Edge e;
    e.u = u;
    e.v = v;
    e.kind = graph::EdgeKind::kAssociation;
    graph::FeatureVec f;
    f.Add(space.Intern("e" + std::to_string(graph.num_edges()),
                       0.1 + rng->UniformDouble()),
          1.0);
    e.features = std::move(f);
    graph.AddEdge(std::move(e));
  }
};

TopKConfig Config(bool approximate) {
  TopKConfig config;
  config.k = 5;
  config.approximate = approximate;
  return config;
}

// Same trees: edge sets exact, costs to float tolerance (the engines sum
// edge costs in different orders).
void ExpectSameTrees(const std::vector<SteinerTree>& legacy,
                     const std::vector<SteinerTree>& fast,
                     const std::string& label) {
  ASSERT_EQ(legacy.size(), fast.size()) << label;
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].edges, fast[i].edges) << label << " tree " << i;
    EXPECT_NEAR(legacy[i].cost, fast[i].cost, 1e-9) << label << " tree " << i;
  }
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

// 10 graphs x (1 initial + 4 perturbed) weight vectors = 50 fast-vs-referee
// top-k configurations, each checked for KMB and the exact DP.
TEST_P(DifferentialTest, FastMatchesLegacyAcrossWeightPerturbations) {
  util::Rng rng(31000 + GetParam());
  DiffGraph g(&rng, 28 + rng.Uniform(30), 60 + rng.Uniform(60),
              3 + rng.Uniform(2));
  for (int perturbation = 0; perturbation < 5; ++perturbation) {
    if (perturbation > 0) g.PerturbWeights(&rng);
    std::string label = "perturbation " + std::to_string(perturbation);
    for (bool approximate : {false, true}) {
      auto legacy = reference::TopKSteinerTrees(g.graph, *g.weights,
                                                g.terminals,
                                                Config(approximate));
      auto fast = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                   Config(approximate));
      ASSERT_FALSE(legacy.empty()) << label;
      ExpectSameTrees(legacy, fast,
                      label + (approximate ? " kmb" : " exact"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DifferentialTest,
                         ::testing::Range(0, 10));

// bench_micro_kernels' Steiner fixtures: 1,000 nodes, costs in [0.1, 2.1),
// 4 terminals, k = 10. The fast engine, with and without the pool, must
// return the referee's trees.
struct BenchFixture {
  const char* name;
  std::uint64_t seed;
  std::size_t edges;
  bool approximate;
};

void PrintTo(const BenchFixture& fixture, std::ostream* os) {
  *os << fixture.name;
}

class BenchFixtureDifferentialTest
    : public ::testing::TestWithParam<BenchFixture> {};

TEST_P(BenchFixtureDifferentialTest, FastMatchesRefereeWithAndWithoutPool) {
  const BenchFixture& fixture = GetParam();
  util::Rng rng(fixture.seed);
  DiffGraph g(&rng, 1000, fixture.edges, 4, /*cost_span=*/2.0);
  TopKConfig config;
  config.k = 10;
  config.approximate = fixture.approximate;
  const auto legacy =
      reference::TopKSteinerTrees(g.graph, *g.weights, g.terminals, config);
  ASSERT_EQ(legacy.size(), 10u);
  util::ThreadPool pool(2);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    config.pool = p;
    ExpectSameTrees(
        legacy, TopKSteinerTrees(g.graph, *g.weights, g.terminals, config),
        p != nullptr ? "pool" : "sequential");
  }
}

INSTANTIATE_TEST_SUITE_P(
    MicroKernelFixtures, BenchFixtureDifferentialTest,
    ::testing::Values(BenchFixture{"kmb", 42, 3000, true},
                      BenchFixture{"exact", 7, 2200, false}),
    [](const ::testing::TestParamInfo<BenchFixture>& info) {
      return std::string(info.param.name);
    });

class OverlayDifferentialTest : public ::testing::TestWithParam<int> {};

// Solver-level differential under forced/banned overlays after a weight
// perturbation: walk the best tree Lawler-style (force a growing prefix,
// ban the next edge) and require the overlay solver to match the
// referee's contraction semantics at every step.
TEST_P(OverlayDifferentialTest, ForcedBannedOverlaysMatchLegacy) {
  util::Rng rng(32000 + GetParam());
  DiffGraph g(&rng, 24, 55, 3);
  g.PerturbWeights(&rng);
  FastSteinerEngine engine(g.graph, *g.weights);

  auto base = engine.SolveKmb(g.terminals, {}, {});
  ASSERT_TRUE(base.has_value());
  ASSERT_FALSE(base->edges.empty());
  std::vector<EdgeId> forced;
  std::vector<EdgeId> banned;
  for (EdgeId e : base->edges) {
    banned.assign(1, e);
    reference::SteinerProblem problem(g.graph, *g.weights, g.terminals,
                                      forced, banned);
    auto legacy_kmb = reference::SolveKmbSteiner(problem);
    auto fast_kmb = engine.SolveKmb(g.terminals, forced, banned);
    ASSERT_EQ(legacy_kmb.has_value(), fast_kmb.has_value());
    if (fast_kmb.has_value()) {
      EXPECT_EQ(legacy_kmb->edges, fast_kmb->edges);
      EXPECT_NEAR(legacy_kmb->cost, fast_kmb->cost, 1e-9);
    }
    auto legacy_exact = reference::SolveExactSteiner(problem);
    auto fast_exact = engine.SolveExact(g.terminals, forced, banned);
    ASSERT_EQ(legacy_exact.has_value(), fast_exact.has_value());
    if (fast_exact.has_value()) {
      EXPECT_EQ(legacy_exact->edges, fast_exact->edges);
      EXPECT_NEAR(legacy_exact->cost, fast_exact->cost, 1e-9);
    }
    forced.push_back(e);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, OverlayDifferentialTest,
                         ::testing::Range(0, 6));

// A repair's re-cost: a re-costed copy of the engine's snapshot,
// installed. Returns how many edge costs moved.
std::size_t RecostAndInstall(FastSteinerEngine* engine,
                             const graph::SearchGraph& graph,
                             const graph::WeightVector& weights) {
  std::size_t moved = 0;
  engine->Install(engine->Recosted(graph, weights, &moved));
  return moved;
}

class RecostDifferentialTest : public ::testing::TestWithParam<int> {};

// The weight-only snapshot refresh: search an engine at w0, re-cost it to
// w1, and require byte-identical output to an engine freshly built at w1
// — for top-k through the shared-engine entry point and for raw overlay
// solves. A mis-recosted arc breaks this immediately.
TEST_P(RecostDifferentialTest, RecostedSnapshotEqualsFreshBuild) {
  util::Rng rng(33000 + GetParam());
  DiffGraph g(&rng, 30, 70, 3 + rng.Uniform(2));

  TopKConfig config;
  config.k = 5;
  auto shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights);
  // Search once under the initial weights.
  auto warm = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                               shared.get());
  ASSERT_FALSE(warm.empty());

  for (int perturbation = 0; perturbation < 3; ++perturbation) {
    g.PerturbWeights(&rng);
    EXPECT_GT(RecostAndInstall(shared.get(), g.graph, *g.weights), 0u);
    FastSteinerEngine fresh(g.graph, *g.weights);

    for (bool approximate : {false, true}) {
      config.approximate = approximate;
      auto recosted = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                       config, shared.get());
      auto rebuilt = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                      config, &fresh);
      auto standalone =
          TopKSteinerTrees(g.graph, *g.weights, g.terminals, config);
      std::string label = approximate ? "kmb" : "exact";
      ASSERT_EQ(recosted.size(), rebuilt.size()) << label;
      for (std::size_t i = 0; i < recosted.size(); ++i) {
        EXPECT_EQ(recosted[i].edges, rebuilt[i].edges) << label << " " << i;
        EXPECT_EQ(recosted[i].cost, rebuilt[i].cost) << label << " " << i;
      }
      ExpectSameTrees(standalone, recosted, label + " standalone");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RecostDifferentialTest,
                         ::testing::Range(0, 6));

class DeltaRecostDifferentialTest : public ::testing::TestWithParam<int> {};

// Randomized delta configs: a random sequence of MIRA-style sparse weight
// updates and edge additions is applied to a long-lived engine (a re-cost
// installed per weight update, a rebuild on topology change), and after
// every step the top-k output must be bit-identical to a freshly built
// snapshot.
TEST_P(DeltaRecostDifferentialTest, SparseRecostMatchesFreshSnapshot) {
  util::Rng rng(34000 + GetParam());
  DiffGraph g(&rng, 26 + rng.Uniform(20), 55 + rng.Uniform(40),
              3 + rng.Uniform(2));
  TopKConfig config;
  config.k = 5;
  auto shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights);
  auto warm = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                               shared.get());
  ASSERT_FALSE(warm.empty());

  std::size_t recosts = 0;
  for (int step = 0; step < 12; ++step) {
    int action = rng.Uniform(3);
    if (action == 2) {
      // Topology change: a re-cost cannot help; rebuild the engine (what
      // the RefreshEngine's rebuild classification does).
      g.AddRandomEdge(&rng);
      shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights);
    } else {
      // Sparse weight update, re-costed and installed exactly as the
      // RefreshEngine's repair does.
      g.PerturbSparse(&rng, 1 + rng.Uniform(3));
      if (RecostAndInstall(shared.get(), g.graph, *g.weights) > 0) ++recosts;
    }

    FastSteinerEngine fresh(g.graph, *g.weights);
    for (bool approximate : {false, true}) {
      config.approximate = approximate;
      auto recosted = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                       config, shared.get());
      auto rebuilt = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                      config, &fresh);
      std::string label = "step " + std::to_string(step) +
                          (approximate ? " kmb" : " exact");
      ASSERT_EQ(recosted.size(), rebuilt.size()) << label;
      for (std::size_t i = 0; i < recosted.size(); ++i) {
        EXPECT_EQ(recosted[i].edges, rebuilt[i].edges)
            << label << " tree " << i;
        EXPECT_EQ(recosted[i].cost, rebuilt[i].cost)
            << label << " tree " << i;
      }
    }
  }
  // The sequence must actually re-cost a long-lived engine, not only
  // rebuild it.
  EXPECT_GT(recosts, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DeltaRecostDifferentialTest,
                         ::testing::Range(0, 8));

// --- sharded terminal-local search differential ----------------------------
// The sharded solver's whole contract is "bit-identical output, fewer
// nodes touched": across random graphs, weight perturbations (dense and
// sparse), topology growth, shard granularities (including degenerate
// 1-node shards, which maximize boundary stitching and escalation
// pressure), and both solver families, the sharded enumeration must
// reproduce the unsharded fast enumeration exactly — trees, costs
// (bitwise), and certificates.

class ShardedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDifferentialTest, ShardedTopKBitIdenticalToUnsharded) {
  util::Rng rng(51000 + GetParam());
  DiffGraph g(&rng, 40 + rng.Uniform(40), 90 + rng.Uniform(80),
              3 + rng.Uniform(2));
  for (int step = 0; step < 4; ++step) {
    if (step > 0) {
      switch (rng.Uniform(4)) {
        case 0:
          g.PerturbWeights(&rng);
          break;
        case 1:
          g.PerturbSparse(&rng, 1 + rng.Uniform(3));
          break;
        case 2:
          g.MutateEdgeFeature(
              &rng, static_cast<graph::EdgeId>(rng.Uniform(g.graph.num_edges())));
          break;
        default:
          g.AddRandomEdge(&rng);
          break;
      }
    }
    for (bool approximate : {false, true}) {
      for (std::uint32_t target : {1u, 8u, 1u << 20}) {
        TopKConfig plain;
        plain.k = 5;
        plain.approximate = approximate;
        TopKConfig sharded = plain;
        sharded.sharded.enabled = true;
        sharded.sharded.target_shard_nodes = target;
        RelevanceCertificate plain_cert;
        RelevanceCertificate sharded_cert;
        auto a = TopKSteinerTrees(g.graph, *g.weights, g.terminals, plain,
                                  /*shared_engine=*/nullptr, &plain_cert);
        auto b = TopKSteinerTrees(g.graph, *g.weights, g.terminals, sharded,
                                  /*shared_engine=*/nullptr, &sharded_cert);
        std::string label = "step " + std::to_string(step) +
                            (approximate ? " kmb" : " exact") + " target " +
                            std::to_string(target);
        ASSERT_EQ(a.size(), b.size()) << label;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].edges, b[i].edges) << label << " tree " << i;
          EXPECT_EQ(a[i].cost, b[i].cost) << label << " tree " << i;
        }
        EXPECT_EQ(plain_cert.valid, sharded_cert.valid) << label;
        EXPECT_EQ(plain_cert.gap, sharded_cert.gap) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ShardedDifferentialTest,
                         ::testing::Range(0, 8));

class ShardedOverlayDifferentialTest : public ::testing::TestWithParam<int> {};

// Engine-level masked-vs-unmasked differential under forced/banned
// overlays: replicate the enumeration's escalation retry loop around the
// masked solvers (degenerate 1-node shards, so masks track the ball
// tightly) and require exact agreement with the unmasked solver at every
// Lawler step of the best tree's edge walk.
TEST_P(ShardedOverlayDifferentialTest, MaskedOverlaySolvesMatchUnmasked) {
  util::Rng rng(52000 + GetParam());
  DiffGraph g(&rng, 30, 70, 3);
  g.PerturbWeights(&rng);
  FastSteinerEngine engine(g.graph, *g.weights);
  SnapshotPin pin = engine.Pin();
  TerminalLocalizer localizer(pin.csr, engine.Shards(1), g.terminals);

  auto solve_sharded = [&](const std::vector<EdgeId>& forced,
                           const std::vector<EdgeId>& banned,
                           bool kmb) -> std::optional<SteinerTree> {
    for (;;) {
      TerminalLocalizer::Snapshot snap = localizer.Acquire();
      if (snap.mask->covers_all) {
        return kmb ? engine.SolveKmb(pin, g.terminals, forced, banned)
                   : engine.SolveExact(pin, g.terminals, forced, banned);
      }
      MaskedOutcome outcome;
      auto tree = kmb ? engine.SolveKmbMasked(pin, g.terminals, forced,
                                              banned, *snap.mask, &outcome)
                      : engine.SolveExactMasked(pin, g.terminals, forced,
                                                banned, *snap.mask, &outcome);
      if (outcome == MaskedOutcome::kOk) return tree;
      localizer.Escalate(snap.epoch);
    }
  };

  auto base = engine.SolveExact(pin, g.terminals, {}, {});
  ASSERT_TRUE(base.has_value());
  std::vector<EdgeId> forced;
  std::vector<EdgeId> banned;
  for (EdgeId e : base->edges) {
    banned.assign(1, e);
    for (bool kmb : {false, true}) {
      auto unmasked = kmb ? engine.SolveKmb(pin, g.terminals, forced, banned)
                          : engine.SolveExact(pin, g.terminals, forced,
                                              banned);
      auto masked = solve_sharded(forced, banned, kmb);
      ASSERT_EQ(unmasked.has_value(), masked.has_value())
          << (kmb ? "kmb" : "exact");
      if (masked.has_value()) {
        EXPECT_EQ(unmasked->edges, masked->edges) << (kmb ? "kmb" : "exact");
        EXPECT_EQ(unmasked->cost, masked->cost) << (kmb ? "kmb" : "exact");
      }
    }
    forced.push_back(e);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ShardedOverlayDifferentialTest,
                         ::testing::Range(0, 6));

// Deterministic escalation semantics on a hand-built path 0-1-2-3: a mask
// deliberately truncated to the two terminals, which clips the path
// between them, must report kEscalate and no tree; the full-graph mask
// must verify and reproduce the unmasked solve exactly. Both masks carry
// a compact view, as localizer-built masks do.
TEST(ShardedEscalationTest, UndersizedMaskEscalatesAdequateMaskVerifies) {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
  }
  auto add_edge = [&](NodeId u, NodeId v, const std::string& feature) {
    graph::Edge e;
    e.u = u;
    e.v = v;
    e.kind = graph::EdgeKind::kAssociation;
    graph::FeatureVec f;
    f.Add(space.Intern(feature, 1.0), 1.0);
    e.features = std::move(f);
    return graph.AddEdge(std::move(e));
  };
  add_edge(0, 1, "a");
  add_edge(1, 2, "b");
  add_edge(2, 3, "c");
  graph::WeightVector weights(&space);
  std::vector<NodeId> terminals = {0, 3};
  FastSteinerEngine engine(graph, weights);
  SnapshotPin pin = engine.Pin();

  // Mask holding only the endpoints: the connecting interior is missing,
  // so the terminal distance cannot be certified.
  ShardMask small;
  small.in_mask = {1, 0, 0, 1};
  small.nodes = {0, 3};
  small.BuildCompact(*pin.csr);
  MaskedOutcome outcome;
  auto masked = engine.SolveKmbMasked(pin, terminals, {}, {}, small,
                                      &outcome);
  EXPECT_EQ(outcome, MaskedOutcome::kEscalate);
  EXPECT_FALSE(masked.has_value());
  masked = engine.SolveExactMasked(pin, terminals, {}, {}, small,
                                   &outcome);
  EXPECT_EQ(outcome, MaskedOutcome::kEscalate);
  EXPECT_FALSE(masked.has_value());

  // Full mask: nothing is clipped, so it must verify and match the
  // unmasked solver bitwise.
  ShardMask full;
  full.in_mask = {1, 1, 1, 1};
  full.nodes = {0, 1, 2, 3};
  full.BuildCompact(*pin.csr);
  auto unmasked = engine.SolveExact(pin, terminals, {}, {});
  masked = engine.SolveExactMasked(pin, terminals, {}, {}, full,
                                   &outcome);
  EXPECT_EQ(outcome, MaskedOutcome::kOk);
  ASSERT_TRUE(masked.has_value());
  ASSERT_TRUE(unmasked.has_value());
  EXPECT_EQ(unmasked->edges, masked->edges);
  EXPECT_EQ(unmasked->cost, masked->cost);

  // A localizer over this graph bootstraps covers_all immediately (the
  // star ball reaches everything), so the enumeration would fall back to
  // plain solves rather than mask at all.
  TerminalLocalizer localizer(pin.csr, engine.Shards(1), terminals);
  EXPECT_TRUE(localizer.Acquire().mask->covers_all);
}

// A hand-built graph whose edge costs are given directly: one shared
// feature of weight 1 and per-edge feature value `cost`.
struct CostGraph {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;

  explicit CostGraph(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    space.Intern("w", 1.0);
    weights = std::make_unique<graph::WeightVector>(&space);
  }

  EdgeId Add(NodeId u, NodeId v, double cost) {
    graph::Edge e;
    e.u = u;
    e.v = v;
    e.kind = graph::EdgeKind::kAssociation;
    graph::FeatureVec f;
    f.Add(space.Intern("w", 1.0), cost);
    e.features = std::move(f);
    return graph.AddEdge(std::move(e));
  }
};

// The parked bound a masked solve reports for a pairwise overlay floor
// `floor` with no forced edges (the slack-shaved SubspaceCostBound).
double ParkedBound(double floor) { return floor - (floor * 1e-12 + 1e-12); }

// The boundary certificate decides: terminals 0 and 2 are joined inside
// the localizer's first mask (0-3-4-2, cost 10, once 0-1 is banned), but
// the cheaper path 0-5-2 (cost 9) leaves it through node 5, whose arcs
// offer 4.5 at the boundary. The masked solves must reject the in-mask
// distance (10 is not below the clip floor 4.5) and park on the floor,
// and the sharded enumeration — which parks and later re-solves that
// Lawler child — must equal the unsharded one.
TEST(ShardedEscalationTest, CheaperPathOutsideMaskEscalatesWithExactBound) {
  CostGraph g(6);
  const EdgeId e01 = g.Add(0, 1, 1.0);
  g.Add(1, 2, 1.0);
  g.Add(0, 3, 4.0);
  g.Add(3, 4, 2.0);
  g.Add(4, 2, 4.0);
  g.Add(0, 5, 4.5);
  g.Add(5, 2, 4.5);
  const std::vector<NodeId> terminals = {0, 2};
  FastSteinerEngine engine(g.graph, *g.weights);
  SnapshotPin pin = engine.Pin();

  // Star bound d(0, 2) = 2 gives radius 4: node 5 (4.5 from both
  // terminals) is clipped, everything else is in the 1-node-shard mask.
  TerminalLocalizer localizer(pin.csr, engine.Shards(1), terminals);
  const TerminalLocalizer::Snapshot snap = localizer.Acquire();
  ASSERT_FALSE(snap.mask->covers_all);
  ASSERT_EQ(snap.mask->nodes, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));

  const std::vector<EdgeId> banned = {e01};
  for (bool kmb : {true, false}) {
    MaskedOutcome outcome = MaskedOutcome::kOk;
    double bound = 0.0;
    auto masked =
        kmb ? engine.SolveKmbMasked(pin, terminals, {}, banned, *snap.mask,
                                    &outcome, &bound)
            : engine.SolveExactMasked(pin, terminals, {}, banned, *snap.mask,
                                      &outcome, &bound);
    const std::string label = kmb ? "kmb" : "exact";
    EXPECT_EQ(outcome, MaskedOutcome::kEscalate) << label;
    EXPECT_FALSE(masked.has_value()) << label;
    EXPECT_EQ(bound, ParkedBound(4.5)) << label;
    auto unmasked = kmb ? engine.SolveKmb(pin, terminals, {}, banned)
                        : engine.SolveExact(pin, terminals, {}, banned);
    ASSERT_TRUE(unmasked.has_value()) << label;
    EXPECT_EQ(unmasked->cost, 9.0) << label;
    EXPECT_LE(bound, unmasked->cost) << label;
  }

  for (bool approximate : {false, true}) {
    TopKConfig plain;
    plain.k = 3;
    plain.approximate = approximate;
    TopKConfig sharded = plain;
    sharded.sharded.enabled = true;
    sharded.sharded.target_shard_nodes = 1;
    RelevanceCertificate plain_cert;
    RelevanceCertificate sharded_cert;
    auto a = TopKSteinerTrees(g.graph, *g.weights, terminals, plain,
                              /*shared_engine=*/nullptr, &plain_cert);
    auto b = TopKSteinerTrees(g.graph, *g.weights, terminals, sharded,
                              /*shared_engine=*/nullptr, &sharded_cert);
    const std::string label = approximate ? "kmb" : "exact";
    ASSERT_EQ(a.size(), 3u) << label;
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].edges, b[i].edges) << label << " tree " << i;
      EXPECT_EQ(a[i].cost, b[i].cost) << label << " tree " << i;
    }
    EXPECT_EQ(a[1].cost, 9.0) << label;
    EXPECT_EQ(plain_cert.valid, sharded_cert.valid) << label;
    EXPECT_EQ(plain_cert.gap, sharded_cert.gap) << label;
  }
}

// KMB grows a terminal's tree only when Prim picks it, and never grows the
// last pick's. On the path 0-1-2 with a cheap exit arc 2-3 (0.5) out of
// the mask {0, 1, 2}, terminal 2's tree clips 0.5 below the distance 2 it
// would read, but with terminals {0, 2} Prim picks 2 last: the masked KMB
// solve certifies from terminal 0's tree alone and returns the unmasked
// tree. The exact solver grows and certifies both trees, so it escalates
// and parks on the pairwise floor min(2, clip of tree 0 = 2.5) = 2. With
// the terminals reversed, terminal 2 is Prim's first pick and the masked
// KMB solve escalates with that same bound.
TEST(ShardedEscalationTest, CheapExitAtLastPickedTerminalCertifiesKmb) {
  CostGraph g(4);
  g.Add(0, 1, 1.0);
  g.Add(1, 2, 1.0);
  g.Add(2, 3, 0.5);
  FastSteinerEngine engine(g.graph, *g.weights);
  SnapshotPin pin = engine.Pin();
  ShardMask mask;
  mask.in_mask = {1, 1, 1, 0};
  mask.nodes = {0, 1, 2};
  mask.BuildCompact(*pin.csr);

  const std::vector<NodeId> terminals = {0, 2};
  MaskedOutcome outcome = MaskedOutcome::kEscalate;
  double bound = 0.0;
  auto masked = engine.SolveKmbMasked(pin, terminals, {}, {}, mask, &outcome,
                                      &bound);
  auto unmasked = engine.SolveKmb(pin, terminals, {}, {});
  EXPECT_EQ(outcome, MaskedOutcome::kOk);
  ASSERT_TRUE(masked.has_value());
  ASSERT_TRUE(unmasked.has_value());
  EXPECT_EQ(masked->edges, unmasked->edges);
  EXPECT_EQ(masked->cost, unmasked->cost);
  EXPECT_EQ(masked->cost, 2.0);

  masked = engine.SolveExactMasked(pin, terminals, {}, {}, mask, &outcome,
                                   &bound);
  EXPECT_EQ(outcome, MaskedOutcome::kEscalate);
  EXPECT_FALSE(masked.has_value());
  EXPECT_EQ(bound, ParkedBound(2.0));

  const std::vector<NodeId> reversed = {2, 0};
  masked = engine.SolveKmbMasked(pin, reversed, {}, {}, mask, &outcome,
                                 &bound);
  EXPECT_EQ(outcome, MaskedOutcome::kEscalate);
  EXPECT_FALSE(masked.has_value());
  EXPECT_EQ(bound, ParkedBound(2.0));
}

// --- long-horizon async-repair differential --------------------------------
// Randomized interleavings of asynchronous repairs, reads, and feedback
// against a live QSystem, seeded and replayable: a seeded schedule drives
// {endorse feedback, epoch-tagged reads, WaitFresh, quiescence}, and at
// every quiescence point each view's published output is compared against
// a from-scratch TopKView rebuild over the current base state — the
// strongest possible reference, sharing no snapshot, cache, or journal
// state with the async pipeline.

class AsyncScheduleDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AsyncScheduleDifferentialTest, QuiescentStatesMatchFromScratch) {
  util::Rng rng(41000 + GetParam());

  data::InterProGoConfig dconfig;
  dconfig.num_go_terms = 60;
  dconfig.num_entries = 45;
  dconfig.num_pubs = 40;
  dconfig.num_journals = 8;
  dconfig.num_methods = 30;
  dconfig.interpro2go_links = 90;
  dconfig.entry2pub_links = 75;
  dconfig.method2pub_links = 60;
  data::InterProGoDataset dataset = data::BuildInterProGo(dconfig);

  core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = -1;
  config.async_refresh = true;
  config.async_repair_threads = 2;
  core::QSystem q(config);
  for (const auto& src : dataset.catalog.sources()) {
    Q_CHECK_OK(q.RegisterSource(src));
  }
  Q_CHECK_OK(q.RunInitialAlignment());
  std::vector<std::size_t> view_ids;
  for (std::size_t i = 0; i < 6; ++i) {
    auto id = q.CreateView(
        dataset.keyword_queries[i % dataset.keyword_queries.size()]);
    Q_CHECK_OK(id.status());
    view_ids.push_back(*id);
  }

  // Compares every view's published state against a from-scratch rebuild:
  // a fresh TopKView over the same keywords, refreshed against the
  // current graph/weights with no shared snapshot state. Valid only at
  // quiescence (the rebuild interns no new features — the keywords are
  // already expanded — but it must not race an in-flight repair).
  auto expect_matches_fresh = [&](const std::string& label) {
    for (std::size_t i = 0; i < view_ids.size(); ++i) {
      query::ViewResult read = q.ReadView(view_ids[i]);
      EXPECT_FALSE(read.stale) << label << " view " << i;
      query::TopKView fresh(q.view(view_ids[i]).keywords(),
                            q.config().view);
      Q_CHECK_OK(fresh.Refresh(q.search_graph(), q.catalog(),
                               q.text_index(), &q.cost_model(),
                               q.weights()));
      auto fresh_state = fresh.Snapshot();
      ASSERT_EQ(read.state->trees.size(), fresh_state->trees.size())
          << label << " view " << i;
      for (std::size_t t = 0; t < fresh_state->trees.size(); ++t) {
        EXPECT_EQ(read.state->trees[t].edges, fresh_state->trees[t].edges)
            << label << " view " << i << " tree " << t;
        EXPECT_EQ(read.state->trees[t].cost, fresh_state->trees[t].cost)
            << label << " view " << i << " tree " << t;
      }
      ASSERT_EQ(read.state->results.rows.size(),
                fresh_state->results.rows.size())
          << label << " view " << i;
      EXPECT_EQ(read.state->results.columns, fresh_state->results.columns)
          << label << " view " << i;
      for (std::size_t r = 0; r < fresh_state->results.rows.size(); ++r) {
        EXPECT_EQ(read.state->results.rows[r].cost,
                  fresh_state->results.rows[r].cost)
            << label << " view " << i << " row " << r;
        EXPECT_EQ(read.state->results.rows[r].values,
                  fresh_state->results.rows[r].values)
            << label << " view " << i << " row " << r;
      }
    }
  };

  // The seeded schedule: the op sequence (and every feedback's inputs)
  // is a pure function of the seed, so a failure replays exactly.
  int quiescence_points = 0;
  for (int op = 0; op < 24; ++op) {
    std::size_t view = view_ids[rng.Uniform(view_ids.size())];
    switch (rng.Uniform(6)) {
      case 0:
      case 1: {  // endorse feedback on a possibly-stale read
        query::ViewResult read = q.ReadView(view);
        if (read.state->trees.empty()) break;
        const auto& trees = read.state->trees;
        ASSERT_TRUE(
            q.ApplyFeedback(view, trees[rng.Uniform(trees.size())]).ok());
        break;
      }
      case 2: {  // epoch-tagged read: internal consistency only
        query::ViewResult read = q.ReadView(view);
        ASSERT_NE(read.state, nullptr);
        for (const auto& row : read.state->results.rows) {
          ASSERT_LT(row.query_index, read.state->queries.size());
        }
        break;
      }
      case 3: {  // block until the view catches up
        EXPECT_TRUE(
            q.WaitViewFresh(view, std::chrono::milliseconds(30000)));
        EXPECT_FALSE(q.ReadView(view).stale);
        break;
      }
      default: {  // quiescence point: drain and compare everything
        ASSERT_TRUE(q.DrainRefreshes().ok());
        expect_matches_fresh("op " + std::to_string(op));
        ++quiescence_points;
        break;
      }
    }
  }
  ASSERT_TRUE(q.DrainRefreshes().ok());
  expect_matches_fresh("final");
  EXPECT_GT(quiescence_points, 0);
  // The schedule must have exercised the async pipeline, not only acks.
  ASSERT_NE(q.async_scheduler(), nullptr);
  EXPECT_GT(q.async_scheduler()->stats().feedback_rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeededSchedules, AsyncScheduleDifferentialTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace q::steiner
