// Randomized differential harness for the fast Steiner engine: across ~50
// seeded (random graph x weight perturbation) configurations, and on the
// micro-kernel bench's two 1,000-node graphs, the fast-path top-k
// enumeration must reproduce the contracted referee's output
// (tests/reference_steiner.h) exactly — same tree costs and same edge
// sets — for both solver families, under forced/banned-edge overlays, and
// through the weight-only Recost fast path (a re-costed snapshot must be
// indistinguishable from a freshly built one, including across a warm
// enumeration memo).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "graph/search_graph.h"
#include "reference_steiner.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "steiner/top_k.h"
#include "steiner/top_k_memo.h"
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
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/true);

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

class RecostDifferentialTest : public ::testing::TestWithParam<int> {};

// The weight-only snapshot refresh: warm an engine's memo at w0, Recost
// to w1, and require byte-identical output to an engine freshly built at
// w1 — for top-k through the shared-engine entry point and for raw
// overlay solves. A stale memo entry surviving the generation bump, or a
// mis-recosted arc, breaks this immediately.
TEST_P(RecostDifferentialTest, RecostedSnapshotEqualsFreshBuild) {
  util::Rng rng(33000 + GetParam());
  DiffGraph g(&rng, 30, 70, 3 + rng.Uniform(2));

  TopKConfig config;
  config.k = 5;
  auto shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights,
                                                    /*use_memo=*/true);
  // Warm the memo under the initial weights.
  auto warm = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                               shared.get());
  ASSERT_FALSE(warm.empty());
  EXPECT_EQ(shared->generation(), 0u);

  for (int perturbation = 0; perturbation < 3; ++perturbation) {
    g.PerturbWeights(&rng);
    shared->Recost(g.graph, *g.weights);
    EXPECT_EQ(shared->generation(),
              static_cast<std::uint64_t>(perturbation + 1));
    FastSteinerEngine fresh(g.graph, *g.weights, /*use_memo=*/true);

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
// updates and edge additions is applied to a long-lived engine through
// the delta pipeline (RecostDelta, full Recost on dense deltas, rebuild
// on topology change), and after every step the top-k output must be
// bit-identical to a freshly built snapshot — with the enumeration memo
// kept across steps, so a wrongly retained enumeration would surface
// immediately.
TEST_P(DeltaRecostDifferentialTest, DeltaPathMatchesFreshSnapshot) {
  util::Rng rng(34000 + GetParam());
  DiffGraph g(&rng, 26 + rng.Uniform(20), 55 + rng.Uniform(40),
              3 + rng.Uniform(2));
  TopKConfig config;
  config.k = 5;
  auto shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights,
                                                    /*use_memo=*/true);
  auto warm = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                               shared.get());
  ASSERT_FALSE(warm.empty());

  std::uint64_t weight_rev = g.weights->revision();
  std::size_t delta_recosts = 0;
  for (int step = 0; step < 12; ++step) {
    int action = rng.Uniform(3);
    if (action == 2) {
      // Topology change: delta pipeline cannot help; rebuild the engine
      // (what the RefreshEngine's rebuild classification does).
      g.AddRandomEdge(&rng);
      shared = std::make_unique<FastSteinerEngine>(g.graph, *g.weights,
                                                   /*use_memo=*/true);
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

    FastSteinerEngine fresh(g.graph, *g.weights, /*use_memo=*/true);
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
// certificate.
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
  EXPECT_EQ(expected_cert.gap, actual_cert.gap) << label;
}

// The enumeration memo (TopKMemo) under the same kind of long-lived
// engine: every enumeration on the cached engine is run twice, so the
// second is served from a warm memo, and both must equal an uncached
// referee engine (no memo) byte for byte
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
  FastSteinerEngine cached(g.graph, *g.weights, /*use_memo=*/true);

  // Runs every (solver, pool) configuration twice on the cached engine
  // against the referee. `cold` asserts the first run of the first
  // configuration of each solver found nothing in the memo.
  auto check = [&](const std::string& step, bool cold) {
    FastSteinerEngine referee(g.graph, *g.weights, /*use_memo=*/false);
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
                                   /*use_memo=*/false);
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

// The memo key must cover every input that changes an enumeration's
// output. One memo engine serves an interleaved sequence of calls, each
// differing from an earlier one in a single input — k, a truncating
// max_subproblems, whether a certificate is requested, the solver, the
// terminals' order — and every call must equal a fresh no-memo referee,
// trees and certificate. A key missing any of those inputs serves some
// call the entry an earlier call left.
TEST_P(DeltaRecostDifferentialTest, MemoKeyCoversEveryOutputInput) {
  util::Rng rng(36000 + GetParam());
  DiffGraph g(&rng, 26 + rng.Uniform(20), 55 + rng.Uniform(40),
              3 + rng.Uniform(2));
  const std::vector<NodeId> permuted(g.terminals.rbegin(),
                                     g.terminals.rend());
  const std::size_t full = TopKConfig{}.max_subproblems;
  const std::size_t truncating = 2;
  struct Call {
    int k;
    std::size_t max_subproblems;
    bool certified;
    bool approximate;
    bool permute;
  };
  const std::vector<Call> calls = {
      {3, full, true, false, false},        // k = 3, then 5, then 3
      {5, full, true, false, false},
      {3, full, true, false, false},
      {5, truncating, true, false, false},  // truncated, then the default
      {5, full, true, false, false},
      {4, full, false, false, false},       // certificate off, then on
      {4, full, true, false, false},
      {5, full, false, false, false},       // certificate on, then off
      {5, full, true, true, false},         // KMB on the same terminals
      {5, full, true, false, true},         // permuted terminals
      {5, full, true, true, true},
      {5, full, true, false, false},
      {5, full, true, true, false},
  };

  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/true);
  std::vector<std::size_t> seen;  // indexes into `calls` of distinct keys
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& call = calls[i];
    TopKConfig config;
    config.k = call.k;
    config.max_subproblems = call.max_subproblems;
    config.approximate = call.approximate;
    const std::vector<NodeId>& terminals =
        call.permute ? permuted : g.terminals;
    const std::string label =
        "call " + std::to_string(i) + " k " + std::to_string(call.k) +
        " cap " + std::to_string(call.max_subproblems) +
        (call.certified ? " certified" : "") +
        (call.approximate ? " kmb" : " exact") +
        (call.permute ? " permuted" : "");

    RelevanceCertificate expected_cert;
    auto expected = TopKSteinerTrees(
        g.graph, *g.weights, terminals, config, /*shared_engine=*/nullptr,
        call.certified ? &expected_cert : nullptr);
    RelevanceCertificate cert;
    auto served = TopKSteinerTrees(g.graph, *g.weights, terminals, config,
                                   &engine,
                                   call.certified ? &cert : nullptr);
    ExpectSameSearch(expected, expected_cert, served, cert, label);

    // Each field must actually change the referee's output, or a key
    // without it could pass by luck.
    if (!call.approximate && call.max_subproblems == full) {
      EXPECT_EQ(expected.size(), static_cast<std::size_t>(call.k)) << label;
      EXPECT_EQ(expected_cert.valid, call.certified) << label;
    }
    if (call.max_subproblems == truncating) {
      EXPECT_LT(expected.size(), 3u) << label;
      EXPECT_FALSE(expected_cert.valid) << label;
    }

    const bool repeat =
        std::any_of(seen.begin(), seen.end(), [&](std::size_t j) {
          const Call& c = calls[j];
          return c.k == call.k && c.max_subproblems == call.max_subproblems &&
                 c.certified == call.certified &&
                 c.approximate == call.approximate &&
                 c.permute == call.permute;
        });
    if (repeat) {
      ++repeats;
    } else {
      seen.push_back(i);
    }
  }
  // Every repeat is one hit and every first call one miss and one entry.
  const FastSolveStats stats = engine.stats();
  EXPECT_EQ(stats.memo_hits, repeats);
  EXPECT_EQ(stats.memo_misses, seen.size());
  EXPECT_EQ(stats.memo_entries, seen.size());
}

// Concurrent misses on one key run the enumeration once: every thread
// that arrives while the first runs it waits for its result, so however
// the threads interleave the memo counts one miss and one entry, and
// every thread returns the referee's trees and certificate.
TEST_P(DeltaRecostDifferentialTest, ConcurrentMissesRunOneEnumeration) {
  util::Rng rng(37000 + GetParam());
  DiffGraph g(&rng, 26 + rng.Uniform(20), 55 + rng.Uniform(40),
              3 + rng.Uniform(2));
  TopKConfig config;
  config.k = 5;
  RelevanceCertificate expected_cert;
  const auto expected =
      TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                       /*shared_engine=*/nullptr, &expected_cert);
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/true);
  constexpr int kThreads = 4;
  std::vector<std::vector<SteinerTree>> served(kThreads);
  std::vector<RelevanceCertificate> certs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      served[t] = TopKSteinerTrees(g.graph, *g.weights, g.terminals, config,
                                   &engine, &certs[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ExpectSameSearch(expected, expected_cert, served[t], certs[t],
                     "thread " + std::to_string(t));
  }
  const FastSolveStats stats = engine.stats();
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_hits, static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(stats.memo_entries, 1u);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DeltaRecostDifferentialTest,
                         ::testing::Range(0, 8));

// A claimed key's waiters never hang: a claim released by a null
// Publish passes to a waiter, and a generation change sends every waiter
// off to run its enumeration itself, claiming nothing.
TEST(TopKMemoTest, WaitersResumeWhenAClaimIsReleasedOrPurged) {
  TopKMemo memo;
  const TopKMemoKey key{/*kmb=*/false, {1, 2}, /*k=*/3,
                        /*max_subproblems=*/100, /*certified=*/true};
  bool claimed = false;
  EXPECT_EQ(memo.Lookup(0, key, &claimed), nullptr);
  ASSERT_TRUE(claimed);
  bool waiter_claimed = false;
  std::thread waiter([&] {
    EXPECT_EQ(memo.Lookup(0, key, &waiter_claimed), nullptr);
  });
  memo.Publish(0, key, nullptr);
  waiter.join();
  ASSERT_TRUE(waiter_claimed);
  EXPECT_EQ(memo.size(), 1u);

  bool stale_claimed = true;
  std::thread stale([&] {
    EXPECT_EQ(memo.Lookup(0, key, &stale_claimed), nullptr);
  });
  memo.Advance(1);
  stale.join();
  EXPECT_FALSE(stale_claimed);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 3u);

  // The next generation claims afresh and serves what was published.
  EXPECT_EQ(memo.Lookup(1, key, &claimed), nullptr);
  ASSERT_TRUE(claimed);
  auto value = std::make_shared<const TopKMemoValue>();
  memo.Publish(1, key, value);
  EXPECT_EQ(memo.Lookup(1, key, &claimed), value);
  EXPECT_FALSE(claimed);
  EXPECT_EQ(memo.hits(), 1u);
}

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
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/true);
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
  FastSteinerEngine engine(graph, weights, /*use_memo=*/false);
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
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/false);
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
  FastSteinerEngine engine(g.graph, *g.weights, /*use_memo=*/false);
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
