// Randomized differential harness for the fast Steiner engine: across ~50
// seeded (random graph x weight perturbation) configurations, the
// fast-path top-k enumeration must reproduce the legacy SteinerProblem
// engine's output exactly — same tree costs and same edge sets — for both
// solver families, under forced/banned-edge overlays, and through the
// weight-only Recost fast path (a re-costed snapshot must be
// indistinguishable from a freshly built one, including across a warm
// shortest-path cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "graph/search_graph.h"
#include "steiner/exact_solver.h"
#include "steiner/fast_solver.h"
#include "steiner/kmb_solver.h"
#include "steiner/problem.h"
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
// initial weights keep costs tie-free, which is the regime where fast and
// legacy engines must agree edge-for-edge.
struct DiffGraph {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;
  std::vector<NodeId> terminals;

  DiffGraph(util::Rng* rng, std::size_t n, std::size_t m, std::size_t t) {
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
                         0.1 + rng->UniformDouble()),
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

std::vector<SteinerTree> RunTopK(const DiffGraph& g, SteinerEngine engine,
                                 bool approximate) {
  TopKConfig config;
  config.k = 5;
  config.approximate = approximate;
  config.engine = engine;
  return TopKSteinerTrees(g.graph, *g.weights, g.terminals, config);
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

// 10 graphs x (1 initial + 4 perturbed) weight vectors = 50 fast-vs-legacy
// top-k configurations, each checked for KMB and the exact DP.
TEST_P(DifferentialTest, FastMatchesLegacyAcrossWeightPerturbations) {
  util::Rng rng(31000 + GetParam());
  DiffGraph g(&rng, 28 + rng.Uniform(30), 60 + rng.Uniform(60),
              3 + rng.Uniform(2));
  for (int perturbation = 0; perturbation < 5; ++perturbation) {
    if (perturbation > 0) g.PerturbWeights(&rng);
    std::string label = "perturbation " + std::to_string(perturbation);
    for (bool approximate : {false, true}) {
      auto legacy = RunTopK(g, SteinerEngine::kLegacy, approximate);
      auto fast = RunTopK(g, SteinerEngine::kFast, approximate);
      ASSERT_FALSE(legacy.empty()) << label;
      ExpectSameTrees(legacy, fast,
                      label + (approximate ? " kmb" : " exact"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DifferentialTest,
                         ::testing::Range(0, 10));

class OverlayDifferentialTest : public ::testing::TestWithParam<int> {};

// Solver-level differential under forced/banned overlays after a weight
// perturbation: walk the best tree Lawler-style (force a growing prefix,
// ban the next edge) and require the overlay solver to match the legacy
// contraction semantics at every step.
TEST_P(OverlayDifferentialTest, ForcedBannedOverlaysMatchLegacy) {
  util::Rng rng(32000 + GetParam());
  DiffGraph g(&rng, 24, 55, 3);
  g.PerturbWeights(&rng);
  FastSteinerEngine engine(g.graph, *g.weights, /*use_cache=*/true);

  auto base = engine.SolveKmb(g.terminals, {}, {});
  ASSERT_TRUE(base.has_value());
  ASSERT_FALSE(base->edges.empty());
  std::vector<EdgeId> forced;
  std::vector<EdgeId> banned;
  for (EdgeId e : base->edges) {
    banned.assign(1, e);
    SteinerProblem problem(g.graph, *g.weights, g.terminals, forced, banned);
    auto legacy_kmb = SolveKmbSteiner(problem);
    auto fast_kmb = engine.SolveKmb(g.terminals, forced, banned);
    ASSERT_EQ(legacy_kmb.has_value(), fast_kmb.has_value());
    if (fast_kmb.has_value()) {
      EXPECT_EQ(legacy_kmb->edges, fast_kmb->edges);
      EXPECT_NEAR(legacy_kmb->cost, fast_kmb->cost, 1e-9);
    }
    auto legacy_exact = SolveExactSteiner(problem);
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

class RecostDifferentialTest : public ::testing::TestWithParam<int> {};

// The weight-only snapshot refresh: warm an engine's cache at w0, Recost
// to w1, and require byte-identical output to an engine freshly built at
// w1 — for top-k through the shared-engine entry point and for raw
// overlay solves. A stale cache entry surviving the generation bump, or a
// mis-recosted arc, breaks this immediately.
TEST_P(RecostDifferentialTest, RecostedSnapshotEqualsFreshBuild) {
  util::Rng rng(33000 + GetParam());
  DiffGraph g(&rng, 30, 70, 3 + rng.Uniform(2));

  TopKConfig config;
  config.k = 5;
  auto shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights,
                                                    /*use_cache=*/true);
  // Warm the cache under the initial weights.
  auto warm = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                               shared.get());
  ASSERT_FALSE(warm.empty());
  EXPECT_EQ(shared->generation(), 0u);

  for (int perturbation = 0; perturbation < 3; ++perturbation) {
    g.PerturbWeights(&rng);
    shared->Recost(g.graph, *g.weights);
    EXPECT_EQ(shared->generation(),
              static_cast<std::uint64_t>(perturbation + 1));
    FastSteinerEngine fresh(g.graph, *g.weights, /*use_cache=*/true);

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
// updates, in-place edge feature mutations, and edge additions is applied
// to a long-lived engine through the delta pipeline (RecostDelta +
// selective cache invalidation, full Recost on dense deltas, rebuild on
// topology change), and after every step the top-k output must be
// bit-identical to a freshly built snapshot — with the shortest-path
// cache staying warm across steps, so a wrongly retained tree would
// surface immediately.
TEST_P(DeltaRecostDifferentialTest, DeltaPathMatchesFreshSnapshot) {
  util::Rng rng(34000 + GetParam());
  DiffGraph g(&rng, 26 + rng.Uniform(20), 55 + rng.Uniform(40),
              3 + rng.Uniform(2));
  TopKConfig config;
  config.k = 5;
  auto shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights,
                                                    /*use_cache=*/true);
  auto warm = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                               shared.get());
  ASSERT_FALSE(warm.empty());

  std::uint64_t weight_rev = g.weights->revision();
  std::size_t delta_recosts = 0;
  for (int step = 0; step < 12; ++step) {
    int action = rng.Uniform(4);
    if (action == 3) {
      // Topology change: delta pipeline cannot help; rebuild the engine
      // (what the RefreshEngine's rebuild classification does).
      g.AddRandomEdge(&rng);
      shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights,
                                                   /*use_cache=*/true);
    } else if (action == 2) {
      // In-place feature mutation: reprice exactly the mutated edge.
      auto e = static_cast<graph::EdgeId>(rng.Uniform(g.graph.num_edges()));
      g.MutateEdgeFeature(&rng, e);
      shared->InvalidateFeatureIndex();
      auto outcome = shared->RecostDelta(g.graph, *g.weights, {}, {e});
      if (!outcome.applied) shared->Recost(g.graph, *g.weights);
    } else {
      // Sparse weight update, fed through the journal exactly as the
      // RefreshEngine consumes it.
      g.PerturbSparse(&rng, 1 + rng.Uniform(3));
      std::vector<graph::FeatureDelta> deltas;
      ASSERT_TRUE(g.weights->DeltaSince(weight_rev, &deltas));
      graph::CoalesceFeatureDeltas(&deltas);
      auto outcome = shared->RecostDelta(g.graph, *g.weights, deltas);
      if (!outcome.applied) {
        shared->Recost(g.graph, *g.weights);
      } else if (outcome.edges_repriced > 0) {
        ++delta_recosts;
      }
    }
    weight_rev = g.weights->revision();

    FastSteinerEngine fresh(g.graph, *g.weights, /*use_cache=*/true);
    for (bool approximate : {false, true}) {
      config.approximate = approximate;
      auto delta_served = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                           config, shared.get());
      auto rebuilt = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                      config, &fresh);
      std::string label = "step " + std::to_string(step) +
                          (approximate ? " kmb" : " exact");
      ASSERT_EQ(delta_served.size(), rebuilt.size()) << label;
      for (std::size_t i = 0; i < delta_served.size(); ++i) {
        EXPECT_EQ(delta_served[i].edges, rebuilt[i].edges)
            << label << " tree " << i;
        EXPECT_EQ(delta_served[i].cost, rebuilt[i].cost)
            << label << " tree " << i;
      }
    }
  }
  // The sequence must actually exercise the selective path, not fall back
  // to full re-costs throughout.
  EXPECT_GT(delta_recosts, 0u);
}

// Same trees in the same order with bit-equal costs, and the same
// certificate down to every field.
void ExpectSameSearch(const std::vector<SteinerTree>& expected,
                      const RelevanceCertificate& expected_cert,
                      const std::vector<SteinerTree>& actual,
                      const RelevanceCertificate& actual_cert,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].edges, actual[i].edges) << label << " tree " << i;
    EXPECT_EQ(expected[i].cost, actual[i].cost) << label << " tree " << i;
  }
  EXPECT_EQ(expected_cert.valid, actual_cert.valid) << label;
  EXPECT_EQ(expected_cert.serial, actual_cert.serial) << label;
  EXPECT_EQ(expected_cert.edges, actual_cert.edges) << label;
  EXPECT_EQ(expected_cert.gap, actual_cert.gap) << label;
  EXPECT_EQ(expected_cert.structural_valid, actual_cert.structural_valid)
      << label;
  EXPECT_EQ(expected_cert.kth_cost, actual_cert.kth_cost) << label;
  EXPECT_EQ(expected_cert.alpha_radius, actual_cert.alpha_radius) << label;
  EXPECT_EQ(expected_cert.alpha_nodes, actual_cert.alpha_nodes) << label;
  EXPECT_EQ(expected_cert.alpha_dist, actual_cert.alpha_dist) << label;
  EXPECT_EQ(expected_cert.keyword_fingerprint,
            actual_cert.keyword_fingerprint)
      << label;
}

// The subproblem memo (FastSteinerEngine::SolveMemoized) under the same
// kind of long-lived engine: every enumeration on the cached engine is run
// twice, so the second replays from a warm memo, and both must equal an
// uncached referee engine (no memo, no shortest-path cache) byte for byte
// — trees, order, costs and certificate — for exact and KMB, with and
// without a pool, on 2 terminals (even params) and 3-4 (odd). Across a
// Recost and an effective RecostDelta the memo must start cold (no hit on
// the first enumeration after the bump); across a no-op RecostDelta its
// entries must survive and serve the whole repeat. An enumeration pinned
// before an effective RecostDelta landed must be neither served from nor
// inserted into the new generation's memo.
TEST_P(DeltaRecostDifferentialTest, MemoServedSearchesMatchUncachedReferee) {
  util::Rng rng(35000 + GetParam());
  const std::size_t num_terminals =
      GetParam() % 2 == 0 ? 2 : 3 + rng.Uniform(2);
  DiffGraph g(&rng, 26 + rng.Uniform(20), 55 + rng.Uniform(40),
              num_terminals);
  util::ThreadPool pool(2);
  TopKConfig config;
  config.k = 5;
  FastSteinerEngine cached(g.graph, *g.weights, /*use_cache=*/true);

  // Runs every (solver, pool) configuration twice on the cached engine
  // against the referee. `cold` asserts the first run of the first
  // configuration of each solver found nothing in the memo.
  auto check = [&](const std::string& step, bool cold) {
    FastSteinerEngine referee(g.graph, *g.weights, /*use_cache=*/false);
    for (bool approximate : {false, true}) {
      config.approximate = approximate;
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        config.pool = p;
        const std::string label = step + (approximate ? " kmb" : " exact") +
                                  (p != nullptr ? " pool" : "");
        RelevanceCertificate expected_cert;
        auto expected = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                         config, &referee, &expected_cert);
        ASSERT_FALSE(expected.empty()) << label;
        for (int run = 0; run < 2; ++run) {
          const FastSolveStats before = cached.stats();
          RelevanceCertificate cert;
          auto served = TopKSteinerTrees(g.graph, *g.weights, g.terminals,
                                         config, &cached, &cert);
          const FastSolveStats after = cached.stats();
          const std::string run_label = label + " run " + std::to_string(run);
          ExpectSameSearch(expected, expected_cert, served, cert, run_label);
          if (run == 1) {
            // A repeat replays the enumeration from the memo alone.
            EXPECT_GT(after.memo_hits, before.memo_hits) << run_label;
            EXPECT_EQ(after.memo_misses, before.memo_misses) << run_label;
          } else if (cold && p == nullptr) {
            EXPECT_EQ(after.memo_hits, before.memo_hits) << run_label;
          }
        }
      }
    }
    EXPECT_EQ(referee.stats().memo_entries, 0u) << step;
  };

  check("initial", /*cold=*/true);

  // Recost moves the generation: the memo is purged and starts cold.
  g.PerturbWeights(&rng);
  cached.Recost(g.graph, *g.weights);
  EXPECT_EQ(cached.stats().memo_entries, 0u);
  check("recost", /*cold=*/true);

  // An effective RecostDelta moves it too.
  std::uint64_t weight_rev = g.weights->revision();
  std::vector<graph::FeatureDelta> deltas;
  auto sparse_delta = [&] {
    g.PerturbSparse(&rng, 1 + rng.Uniform(3));
    deltas.clear();
    EXPECT_TRUE(g.weights->DeltaSince(weight_rev, &deltas));
    weight_rev = g.weights->revision();
    graph::CoalesceFeatureDeltas(&deltas);
  };
  sparse_delta();
  std::uint64_t gen = cached.generation();
  auto effective = cached.RecostDelta(g.graph, *g.weights, deltas);
  ASSERT_TRUE(effective.applied);
  ASSERT_GT(effective.edges_repriced, 0u);
  EXPECT_EQ(cached.generation(), gen + 1);
  EXPECT_EQ(cached.stats().memo_entries, 0u);
  check("delta", /*cold=*/true);

  // A search pinned before a RecostDelta lands keeps its own costs: it is
  // neither served by nor inserted into the new generation's memo, warm
  // or cold, and still equals a referee built at the pinned weights.
  config.pool = nullptr;
  config.approximate = false;
  const graph::WeightVector pinned_weights = *g.weights;
  FastSteinerEngine pinned_referee(g.graph, pinned_weights,
                                   /*use_cache=*/false);
  RelevanceCertificate pinned_cert;
  auto pinned_expected =
      TopKSteinerTrees(g.graph, pinned_weights, g.terminals, config,
                       &pinned_referee, &pinned_cert);
  const SnapshotPin pin = cached.Pin();
  sparse_delta();
  gen = cached.generation();
  auto concurrent = cached.RecostDelta(g.graph, *g.weights, deltas);
  ASSERT_TRUE(concurrent.applied);
  ASSERT_GT(concurrent.edges_repriced, 0u);
  EXPECT_EQ(cached.generation(), gen + 1);
  for (int round = 0; round < 2; ++round) {
    const std::string label = "pinned round " + std::to_string(round);
    config.pool = nullptr;  // check() below leaves its last configuration
    config.approximate = false;
    const FastSolveStats before = cached.stats();
    RelevanceCertificate cert;
    auto served = TopKSteinerTrees(g.graph, pinned_weights, g.terminals,
                                   config, &cached, &cert, &pin);
    const FastSolveStats after = cached.stats();
    ExpectSameSearch(pinned_expected, pinned_cert, served, cert, label);
    EXPECT_EQ(after.memo_hits, before.memo_hits) << label;
    EXPECT_EQ(after.memo_entries, before.memo_entries) << label;
    // Round 1 runs against a memo the current generation has warmed.
    if (round == 0) check("after pinned search", /*cold=*/true);
  }

  // A RecostDelta that moves no cost leaves the generation and every memo
  // entry in place; the repeat is served without a single miss.
  const std::size_t entries = cached.stats().memo_entries;
  ASSERT_GT(entries, 0u);
  g.weights->Set(g.space.Intern("unused", 0.5), 0.75);
  deltas.clear();
  ASSERT_TRUE(g.weights->DeltaSince(weight_rev, &deltas));
  weight_rev = g.weights->revision();
  gen = cached.generation();
  auto noop = cached.RecostDelta(g.graph, *g.weights, deltas);
  ASSERT_TRUE(noop.applied);
  EXPECT_EQ(noop.edges_repriced, 0u);
  EXPECT_EQ(cached.generation(), gen);
  EXPECT_EQ(cached.stats().memo_entries, entries);
  check("no-op delta", /*cold=*/false);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DeltaRecostDifferentialTest,
                         ::testing::Range(0, 8));

// Deterministic selective-invalidation semantics on a hand-built graph:
// a 4-node path a-b-c-d (cheap) plus one expensive parallel edge b-d.
// Raising the expensive edge's cost cannot change any cached tree (it is
// in no shortest path), so entries survive and keep serving; lowering it
// below the path must drop affected entries and change the best tree.
TEST(DeltaRecostCacheTest, SelectiveInvalidationRetainsProvablyValidTrees) {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
  }
  auto add_edge = [&](NodeId u, NodeId v, const std::string& feature,
                      double weight) {
    graph::Edge e;
    e.u = u;
    e.v = v;
    e.kind = graph::EdgeKind::kAssociation;
    graph::FeatureVec f;
    f.Add(space.Intern(feature, weight), 1.0);
    e.features = std::move(f);
    return graph.AddEdge(std::move(e));
  };
  add_edge(0, 1, "ab", 1.0);
  add_edge(1, 2, "bc", 1.0);
  add_edge(2, 3, "cd", 1.0);
  graph::EdgeId heavy = add_edge(1, 3, "bd", 10.0);
  graph::WeightVector weights(&space);
  std::vector<NodeId> terminals = {0, 3};

  FastSteinerEngine engine(graph, weights, /*use_cache=*/true);
  TopKConfig config;
  config.k = 1;
  auto base_trees =
      TopKSteinerTrees(graph, weights, terminals, config, &engine);
  ASSERT_FALSE(base_trees.empty());
  ASSERT_GT(engine.stats().sp_cache_entries, 0u);
  std::uint64_t rev = weights.revision();

  // Increase the heavy edge: 10 -> 12. It is on no root shortest path
  // (both terminals route along the cheap chain), so at least the root
  // entries are provably still valid and must be retained — and must keep
  // serving lookups (hits grow without any new misses for the root).
  weights.Set(space.Intern("bd", 10.0), 12.0);
  std::vector<graph::FeatureDelta> deltas;
  ASSERT_TRUE(weights.DeltaSince(rev, &deltas));
  rev = weights.revision();
  auto up = engine.RecostDelta(graph, weights, deltas);
  ASSERT_TRUE(up.applied);
  EXPECT_EQ(up.edges_repriced, 1u);
  EXPECT_GT(up.cache_entries_retained, 0u);
  {
    std::size_t hits_before = engine.stats().sp_cache_hits;
    FastSteinerEngine fresh(graph, weights, /*use_cache=*/true);
    auto served = TopKSteinerTrees(graph, weights, terminals, config,
                                   &engine);
    auto rebuilt = TopKSteinerTrees(graph, weights, terminals, config,
                                    &fresh);
    EXPECT_GT(engine.stats().sp_cache_hits, hits_before);
    ASSERT_EQ(served.size(), rebuilt.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].edges, rebuilt[i].edges);
      EXPECT_EQ(served[i].cost, rebuilt[i].cost);
    }
  }

  // A weight move on a feature no snapshot edge carries must reprice
  // nothing and leave the generation and every cache entry untouched.
  std::uint64_t gen = engine.generation();
  std::size_t entries_before = engine.stats().sp_cache_entries;
  weights.Set(space.Intern("unused", 0.5), 0.75);
  deltas.clear();
  ASSERT_TRUE(weights.DeltaSince(rev, &deltas));
  rev = weights.revision();
  auto noop = engine.RecostDelta(graph, weights, deltas);
  ASSERT_TRUE(noop.applied);
  EXPECT_EQ(noop.edges_repriced, 0u);
  EXPECT_EQ(engine.generation(), gen);
  EXPECT_EQ(engine.stats().sp_cache_entries, entries_before);

  // Decrease the heavy edge below the path (12 -> 0.5): entries whose
  // trees it could improve must be dropped, and the best tree must now
  // route through it — identically to a fresh snapshot.
  weights.Set(space.Intern("bd", 10.0), 0.5);
  deltas.clear();
  ASSERT_TRUE(weights.DeltaSince(rev, &deltas));
  auto down = engine.RecostDelta(graph, weights, deltas);
  ASSERT_TRUE(down.applied);
  EXPECT_EQ(down.edges_repriced, 1u);
  EXPECT_GT(down.cache_entries_dropped, 0u);
  FastSteinerEngine fresh(graph, weights, /*use_cache=*/true);
  auto served = TopKSteinerTrees(graph, weights, terminals, config, &engine);
  auto rebuilt = TopKSteinerTrees(graph, weights, terminals, config, &fresh);
  ASSERT_EQ(served.size(), rebuilt.size());
  ASSERT_FALSE(served.empty());
  EXPECT_NE(std::find(served[0].edges.begin(), served[0].edges.end(), heavy),
            served[0].edges.end());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].edges, rebuilt[i].edges);
    EXPECT_EQ(served[i].cost, rebuilt[i].cost);
  }
}

// --- sharded terminal-local search differential ----------------------------
// The sharded solver's whole contract is "bit-identical output, fewer
// nodes touched": across random graphs, weight perturbations (dense and
// sparse), topology growth, shard granularities (including degenerate
// 1-node shards, which maximize boundary stitching and escalation
// pressure), and both solver families, the sharded enumeration must
// reproduce the unsharded fast enumeration exactly — trees, costs
// (bitwise), and relevance certificates.

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
        EXPECT_EQ(plain_cert.edges, sharded_cert.edges) << label;
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
  FastSteinerEngine engine(g.graph, *g.weights, /*use_cache=*/true);
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
      MaskView view;
      view.in_mask = &snap.mask->in_mask;
      view.nodes = &snap.mask->nodes;
      view.r_proof = snap.r_proof;
      view.epoch = snap.epoch;
      MaskedOutcome outcome;
      auto tree = kmb ? engine.SolveKmbMasked(pin, g.terminals, forced,
                                              banned, view, &outcome)
                      : engine.SolveExactMasked(pin, g.terminals, forced,
                                                banned, view, &outcome);
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
// deliberately truncated to the terminals' own shards with a radius too
// small to certify must report kEscalate and no tree; the full-graph mask
// with an adequate radius must verify and reproduce the unmasked solve
// exactly.
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
  FastSteinerEngine engine(graph, weights, /*use_cache=*/false);
  SnapshotPin pin = engine.Pin();

  // Mask holding only the endpoints: the connecting interior is missing
  // and the radius cannot certify the terminal distance.
  std::vector<std::uint8_t> in_mask = {1, 0, 0, 1};
  std::vector<std::uint32_t> nodes = {0, 3};
  MaskView small;
  small.in_mask = &in_mask;
  small.nodes = &nodes;
  small.r_proof = 1.0;
  small.epoch = 0;
  MaskedOutcome outcome;
  auto masked = engine.SolveKmbMasked(pin, terminals, {}, {}, small,
                                      &outcome);
  EXPECT_EQ(outcome, MaskedOutcome::kEscalate);
  EXPECT_FALSE(masked.has_value());
  masked = engine.SolveExactMasked(pin, terminals, {}, {}, small,
                                   &outcome);
  EXPECT_EQ(outcome, MaskedOutcome::kEscalate);
  EXPECT_FALSE(masked.has_value());

  // Full mask with a radius beyond the 3-hop distance: must verify and
  // match the unmasked solver bitwise.
  std::vector<std::uint8_t> full_mask = {1, 1, 1, 1};
  std::vector<std::uint32_t> all_nodes = {0, 1, 2, 3};
  MaskView full;
  full.in_mask = &full_mask;
  full.nodes = &all_nodes;
  full.r_proof = 100.0;
  full.epoch = 1;
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
