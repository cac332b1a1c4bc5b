// Randomized differential stress suite for local-id mask compaction
// (shard.h): the solvers' masked Dijkstra over a mask's compact view must
// be BYTE-IDENTICAL to the uncompacted masked referee
// (reference_masked_dijkstra.h), and masked solves must match the
// unmasked solver wherever they certify — across random graphs,
// forced/banned overlays, 0-cost plateau ties, and both solver families.
// Also covers the scratch arena's shrink-after-oversized-solve policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/search_graph.h"
#include "reference_masked_dijkstra.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "steiner/top_k.h"
#include "util/random.h"

namespace q::steiner {
namespace {

using graph::EdgeId;
using graph::NodeId;

// Connected random graph, one feature per edge. `plateau` prices every
// third edge at exactly zero — dense (dist, id) ties are the regime
// where the local-to-global tie-order isomorphism actually carries
// weight (distinct costs would mask an order bug).
struct CompGraph {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;
  std::vector<NodeId> terminals;

  CompGraph(util::Rng* rng, std::size_t n, std::size_t m, std::size_t t,
            bool plateau) {
    for (std::size_t i = 0; i < n; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    weights = std::make_unique<graph::WeightVector>(&space);
    auto add_edge = [&](NodeId u, NodeId v) {
      graph::Edge e;
      e.u = u;
      e.v = v;
      e.kind = graph::EdgeKind::kAssociation;
      double w = (plateau && graph.num_edges() % 3 == 0)
                     ? 0.0
                     : 0.1 + rng->UniformDouble();
      graph::FeatureVec f;
      f.Add(space.Intern("e" + std::to_string(graph.num_edges()), w), 1.0);
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
      if (std::find(terminals.begin(), terminals.end(), c) ==
          terminals.end()) {
        terminals.push_back(c);
      }
    }
  }
};

// Path graph 0-1-...-n-1 with random costs: terminals near one end keep
// a localizer mask provably tiny relative to the graph, which the shrink
// test below relies on.
struct LineGraph {
  graph::FeatureSpace space;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;

  LineGraph(util::Rng* rng, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    weights = std::make_unique<graph::WeightVector>(&space);
    for (std::size_t i = 1; i < n; ++i) {
      graph::Edge e;
      e.u = static_cast<NodeId>(i - 1);
      e.v = static_cast<NodeId>(i);
      e.kind = graph::EdgeKind::kAssociation;
      graph::FeatureVec f;
      f.Add(space.Intern("e" + std::to_string(i), 0.5 + rng->UniformDouble()),
            1.0);
      e.features = std::move(f);
      graph.AddEdge(std::move(e));
    }
  }
};

void ExpectProbesEqual(const MaskedSpProbe& a, const MaskedSpProbe& b,
                       const std::string& label) {
  EXPECT_EQ(a.dist, b.dist) << label;
  EXPECT_EQ(a.pred_node, b.pred_node) << label;
  EXPECT_EQ(a.pred_edge, b.pred_edge) << label;
  EXPECT_EQ(a.settled, b.settled) << label;
  EXPECT_EQ(a.tree_edges, b.tree_edges) << label;
  EXPECT_EQ(a.mask_min_clip, b.mask_min_clip) << label;
  EXPECT_EQ(a.complete, b.complete) << label;
}

// --- per-solve byte equality -----------------------------------------------
// One masked Dijkstra at a time, the solvers' compacted kernel vs the
// uncompacted referee, over hand-cut BFS-ball masks (so mask shape is
// controlled independently of the localizer's radius policy) under every
// overlay combination.

class CompactProbeTest : public ::testing::TestWithParam<int> {};

TEST_P(CompactProbeTest, CompactedDijkstraByteEqualsReferee) {
  util::Rng rng(61000 + GetParam());
  bool plateau = GetParam() % 2 == 1;
  CompGraph g(&rng, 120, 280, 3, plateau);
  FastSteinerEngine engine(g.graph, *g.weights);
  SnapshotPin pin = engine.Pin();
  const CsrGraph& csr = *pin.csr;

  for (int round = 0; round < 6; ++round) {
    // BFS ball by hops around a random source: always contains the
    // source, usually a proper subset, occasionally (deep ball) most of
    // the graph — both regimes must agree.
    auto source = static_cast<std::uint32_t>(rng.Uniform(g.graph.num_nodes()));
    std::size_t depth = 1 + rng.Uniform(4);
    ShardMask mask;
    mask.in_mask.assign(g.graph.num_nodes(), 0);
    {
      std::deque<std::pair<std::uint32_t, std::size_t>> q;
      q.emplace_back(source, 0);
      mask.in_mask[source] = 1;
      while (!q.empty()) {
        auto [u, d] = q.front();
        q.pop_front();
        if (d == depth) continue;
        for (std::uint32_t a = csr.offsets[u]; a < csr.offsets[u + 1]; ++a) {
          std::uint32_t to = csr.arc_head[a];
          if (!mask.in_mask[to]) {
            mask.in_mask[to] = 1;
            q.emplace_back(to, d + 1);
          }
        }
      }
    }
    for (std::uint32_t v = 0; v < g.graph.num_nodes(); ++v) {
      if (mask.in_mask[v]) mask.nodes.push_back(v);
    }
    mask.BuildCompact(csr);
    ASSERT_TRUE(mask.HasCompact());

    // Distinct targets, in or out of the mask.
    std::vector<NodeId> targets;
    while (targets.size() < 3) {
      auto c = static_cast<NodeId>(rng.Uniform(g.graph.num_nodes()));
      if (std::find(targets.begin(), targets.end(), c) == targets.end()) {
        targets.push_back(c);
      }
    }

    std::vector<EdgeId> banned;
    std::vector<EdgeId> forced;
    for (int i = 0; i < 3; ++i) {
      banned.push_back(
          static_cast<EdgeId>(rng.Uniform(g.graph.num_edges())));
    }
    forced.push_back(static_cast<EdgeId>(rng.Uniform(g.graph.num_edges())));
    std::sort(banned.begin(), banned.end());
    banned.erase(std::unique(banned.begin(), banned.end()), banned.end());

    struct Overlay {
      std::vector<EdgeId> forced;
      std::vector<EdgeId> banned;
    };
    const Overlay overlays[] = {
        {{}, {}}, {{}, banned}, {forced, {}}, {forced, banned}};
    for (const Overlay& o : overlays) {
      for (bool stop : {false, true}) {
        MaskedSpProbe a = ComputeMaskedSpTreeForTest(
            csr, mask, source, targets, stop, o.forced, o.banned);
        MaskedSpProbe b = reference::MaskedDijkstra(
            csr, mask.in_mask, source, targets, stop, o.forced, o.banned);
        ExpectProbesEqual(
            a, b,
            "seed " + std::to_string(GetParam()) + " round " +
                std::to_string(round) + (plateau ? " plateau" : "") +
                " forced=" + std::to_string(o.forced.size()) + " banned=" +
                std::to_string(o.banned.size()) + (stop ? " stop" : ""));
      }
    }
    mask = ShardMask{};
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CompactProbeTest,
                         ::testing::Range(0, 10));

// --- engine-level overlay walk ---------------------------------------------
// The ShardedOverlayDifferentialTest walk on plateau-tied graphs: masked
// and unmasked solves must agree at every Lawler step of the best tree's
// edge walk.

class CompactOverlayTest : public ::testing::TestWithParam<int> {};

TEST_P(CompactOverlayTest, MaskedOverlaySolvesMatchAcrossPaths) {
  util::Rng rng(62000 + GetParam());
  bool plateau = GetParam() % 2 == 1;
  CompGraph g(&rng, 30, 70, 3, plateau);
  FastSteinerEngine engine(g.graph, *g.weights);
  SnapshotPin pin = engine.Pin();
  TerminalLocalizer localizer(pin.csr, engine.Shards(1), g.terminals);

  auto solve_sharded = [&](const std::vector<EdgeId>& forced,
                           const std::vector<EdgeId>& banned,
                           bool kmb) -> std::optional<SteinerTree> {
    if (!localizer.connected()) return std::nullopt;
    for (;;) {
      TerminalLocalizer::Snapshot snap = localizer.Acquire();
      MaskedOutcome outcome;
      auto tree = kmb ? engine.SolveKmbMasked(pin, g.terminals, forced,
                                              banned, *snap.mask, &outcome)
                      : engine.SolveExactMasked(pin, g.terminals, forced,
                                                banned, *snap.mask, &outcome);
      if (outcome == MaskedOutcome::kOk) return tree;
      if (snap.mask->covers_all) {
        ADD_FAILURE() << "a closed mask escalated";
        return std::nullopt;
      }
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
      std::string label = std::string(kmb ? "kmb" : "exact") + " edge " +
                          std::to_string(e);
      auto unmasked = kmb
                          ? engine.SolveKmb(pin, g.terminals, forced, banned)
                          : engine.SolveExact(pin, g.terminals, forced,
                                              banned);
      auto masked = solve_sharded(forced, banned, kmb);
      ASSERT_EQ(unmasked.has_value(), masked.has_value()) << label;
      if (unmasked.has_value()) {
        EXPECT_EQ(unmasked->edges, masked->edges) << label;
        EXPECT_EQ(unmasked->cost, masked->cost) << label;
      }
    }
    forced.push_back(e);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CompactOverlayTest,
                         ::testing::Range(0, 6));

// --- enumeration level -------------------------------------------------------

class CompactEnumerationTest : public ::testing::TestWithParam<int> {};

TEST_P(CompactEnumerationTest, CompactedTopKBitIdenticalToPlain) {
  util::Rng rng(63000 + GetParam());
  bool plateau = GetParam() % 2 == 1;
  CompGraph g(&rng, 40 + rng.Uniform(40), 90 + rng.Uniform(80),
              3 + rng.Uniform(2), plateau);
  for (bool approximate : {false, true}) {
    for (std::uint32_t target : {1u, 8u}) {
      TopKConfig plain;
      plain.k = 5;
      plain.approximate = approximate;
      TopKConfig compacted = plain;
      compacted.sharded.enabled = true;
      compacted.sharded.target_shard_nodes = target;
      RelevanceCertificate plain_cert;
      RelevanceCertificate compact_cert;
      auto a = TopKSteinerTrees(g.graph, *g.weights, g.terminals, plain,
                                /*shared_engine=*/nullptr, &plain_cert);
      auto b = TopKSteinerTrees(g.graph, *g.weights, g.terminals, compacted,
                                /*shared_engine=*/nullptr, &compact_cert);
      std::string label = std::string(approximate ? "kmb" : "exact") +
                          " target " + std::to_string(target) +
                          (plateau ? " plateau" : "");
      ASSERT_EQ(a.size(), b.size()) << label;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].edges, b[i].edges) << label << " tree " << i;
        EXPECT_EQ(a[i].cost, b[i].cost) << label << " tree " << i;
      }
      EXPECT_EQ(plain_cert.valid, compact_cert.valid) << label;
      EXPECT_EQ(plain_cert.gap, compact_cert.gap) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CompactEnumerationTest,
                         ::testing::Range(0, 8));

// --- scratch shrink policy --------------------------------------------------
// One whole-graph solve grows the thread's scratch arena to graph size; a
// sustained streak of small compacted masked solves must then release the
// oversized capacity (fast_solver.cc, SolverScratch::NoteSolveExtent)
// instead of pinning tens of MB per serving thread forever.

TEST(ScratchShrinkTest, SmallSolveStreakReleasesOversizedScratch) {
  util::Rng rng(64002);
  const std::size_t n = 24000;  // above the shrink policy's floor (1 << 14)
  LineGraph g(&rng, n);
  FastSteinerEngine engine(g.graph, *g.weights);
  SnapshotPin pin = engine.Pin();

  // Whole-graph solve: scratch capacity reaches n nodes.
  auto big = engine.SolveKmb(pin, {0, static_cast<NodeId>(n - 1)}, {}, {});
  ASSERT_TRUE(big.has_value());
  std::size_t oversized = ThreadScratchBytes();
  ASSERT_GT(oversized, 0u);

  std::vector<NodeId> terminals = {0, 5};
  TerminalLocalizer localizer(pin.csr, engine.Shards(16), terminals);
  TerminalLocalizer::Snapshot snap = localizer.Acquire();
  ASSERT_FALSE(snap.mask->covers_all);
  ASSERT_TRUE(snap.mask->HasCompact());
  ASSERT_LT(snap.mask->nodes.size(), n / 4)
      << "mask too large to qualify as a small-solve streak";

  for (int i = 0; i < 20; ++i) {
    MaskedOutcome outcome;
    auto tree =
        engine.SolveKmbMasked(pin, terminals, {}, {}, *snap.mask, &outcome);
    ASSERT_EQ(outcome, MaskedOutcome::kOk) << "solve " << i;
    ASSERT_TRUE(tree.has_value()) << "solve " << i;
  }
  std::size_t shrunk = ThreadScratchBytes();
  EXPECT_LT(shrunk, oversized / 2)
      << "scratch did not release oversized capacity after a streak of "
         "small masked solves";

  // The arena must still serve a whole-graph solve correctly after
  // shrinking (regrow path).
  auto regrown =
      engine.SolveKmb(pin, {0, static_cast<NodeId>(n - 1)}, {}, {});
  ASSERT_TRUE(regrown.has_value());
  EXPECT_EQ(regrown->edges, big->edges);
  EXPECT_EQ(regrown->cost, big->cost);
}

}  // namespace
}  // namespace q::steiner
