// Scale-oriented storage tests: the compact SearchGraph representation
// (SoA edges, interned payload pools, blocked-CSR adjacency) must be
// observationally identical to the AoS referee (tests/reference_graph_rep.h)
// — the same randomized mutation sequence applied to both must extract
// bitwise identical CSR snapshots — while costing a fraction of the
// bytes, at least 2x less at 10k and 100k sources; the
// streaming catalog generator must scale linearly with realistic
// domain-hub topology; sharded terminal-local search over generated
// catalogs must reproduce unsharded output exactly; and a thread serving
// it must hold scratch sized to its masks, not to the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "graph/cost_model.h"
#include "graph/search_graph.h"
#include "reference_graph_rep.h"
#include "relational/catalog.h"
#include "steiner/csr.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "steiner/top_k.h"
#include "util/random.h"

namespace q::graph {
namespace {

using reference::LegacyGraphRep;

// Applies one randomized op sequence to both representations: node adds,
// plain edges, association edges with matcher-vote merges (same pair
// re-associated), and feature rewrites. Op order — not just final state —
// matters, because adjacency blocks must list edge ids in insertion
// order.
struct TwinGraphs {
  FeatureSpace space;
  SearchGraph compact;
  LegacyGraphRep legacy;
  std::vector<NodeId> nodes;
  std::vector<EdgeId> assoc_edges;

  void AddNodePair(NodeKind kind, const std::string& label) {
    NodeId a = compact.AddNode(kind, label);
    NodeId b = legacy.AddNode(kind, label);
    ASSERT_EQ(a, b);
    nodes.push_back(a);
  }

  FeatureVec MakeFeatures(util::Rng* rng, const std::string& key) {
    FeatureVec f;
    f.Add(space.Intern(key, 0.1 + rng->UniformDouble()), 1.0);
    return f;
  }

  void AddPlainEdge(util::Rng* rng, NodeId u, NodeId v) {
    Edge e;
    e.u = u;
    e.v = v;
    e.kind = EdgeKind::kMembership;
    e.fixed_zero = rng->Uniform(2) == 0;
    e.features = MakeFeatures(rng, "m" + std::to_string(compact.num_edges()));
    Edge copy = e;
    EdgeId a = compact.AddEdge(std::move(e));
    EdgeId b = legacy.AddEdge(std::move(copy));
    ASSERT_EQ(a, b);
  }

  void AddAssociation(util::Rng* rng, NodeId u, NodeId v,
                      const std::string& matcher) {
    FeatureVec f = MakeFeatures(rng, "a" + std::to_string(u) + "_" +
                                         std::to_string(v));
    MatcherScore score;
    score.matcher = matcher;
    score.confidence = rng->UniformDouble();
    EdgeId a = compact.AddAssociationEdge(u, v, f, score);
    EdgeId b = legacy.AddAssociationEdge(u, v, std::move(f), score);
    ASSERT_EQ(a, b);
    assoc_edges.push_back(a);
  }

  void RewriteFeatures(util::Rng* rng, EdgeId e) {
    FeatureVec f = compact.edge_features(e);
    f.Add(space.Intern("rw" + std::to_string(e), 0.1 + rng->UniformDouble()),
          1.0);
    FeatureVec copy = f;
    compact.SetEdgeFeatures(e, std::move(f));
    legacy.SetEdgeFeatures(e, std::move(copy));
  }
};

void ExpectSameCsr(const SearchGraph& compact, const LegacyGraphRep& legacy,
                   const WeightVector& weights, const std::string& label) {
  steiner::CsrGraph a = steiner::CsrGraph::Build(compact, weights);
  LegacyGraphRep::LegacyCsr b = legacy.BuildCsr(weights);
  ASSERT_EQ(static_cast<std::size_t>(a.num_nodes), legacy.num_nodes())
      << label;
  ASSERT_EQ(static_cast<std::size_t>(a.num_edges), legacy.num_edges())
      << label;
  EXPECT_EQ(a.offsets, b.offsets) << label;
  EXPECT_EQ(a.arc_head, b.arc_head) << label;
  EXPECT_EQ(a.arc_edge, b.arc_edge) << label;
  EXPECT_EQ(a.arc_cost, b.arc_cost) << label;
  EXPECT_EQ(a.edge_u, b.edge_u) << label;
  EXPECT_EQ(a.edge_v, b.edge_v) << label;
  EXPECT_EQ(a.edge_cost, b.edge_cost) << label;
}

class CompactVsLegacyTest : public ::testing::TestWithParam<int> {};

// Randomized op-sequence differential: after every burst of mutations the
// two representations must extract identical CSR snapshots — adjacency
// blocks in the same per-node insertion order, association merges landing
// on the same edge ids, rewrites repricing identically — both before and
// after CompactAdjacency() squeezes the arena.
TEST_P(CompactVsLegacyTest, MutationSequenceExtractsIdenticalCsr) {
  util::Rng rng(61000 + GetParam());
  TwinGraphs twins;
  WeightVector weights(&twins.space);
  for (int i = 0; i < 20; ++i) {
    twins.AddNodePair(NodeKind::kAttribute, "attr" + std::to_string(i));
  }
  const char* matchers[] = {"meta", "mad", "overlap"};
  for (int burst = 0; burst < 6; ++burst) {
    for (int op = 0; op < 25; ++op) {
      switch (rng.Uniform(4)) {
        case 0:
          twins.AddNodePair(NodeKind::kAttribute,
                            "n" + std::to_string(twins.nodes.size()));
          break;
        case 1: {
          NodeId u = twins.nodes[rng.Uniform(twins.nodes.size())];
          NodeId v = twins.nodes[rng.Uniform(twins.nodes.size())];
          if (u != v) twins.AddPlainEdge(&rng, u, v);
          break;
        }
        case 2: {
          // Deliberately samples a small node set so merges (same pair,
          // different matcher vote) happen often.
          NodeId u = twins.nodes[rng.Uniform(8)];
          NodeId v = twins.nodes[rng.Uniform(8)];
          if (u != v) {
            twins.AddAssociation(&rng, u, v, matchers[rng.Uniform(3)]);
          }
          break;
        }
        default:
          if (!twins.assoc_edges.empty()) {
            twins.RewriteFeatures(
                &rng,
                twins.assoc_edges[rng.Uniform(twins.assoc_edges.size())]);
          }
          break;
      }
    }
    ExpectSameCsr(twins.compact, twins.legacy, weights,
                  "burst " + std::to_string(burst));
    if (burst == 3) {
      twins.compact.CompactAdjacency();
      ExpectSameCsr(twins.compact, twins.legacy, weights, "post-compact");
    }
  }
  // Edge payload reads must agree too (the CSR only proves costs).
  for (EdgeId e = 0; e < twins.compact.num_edges(); ++e) {
    const Edge& le = twins.legacy.edge(e);
    EXPECT_EQ(twins.compact.edge_features(e).entries(),
              le.features.entries());
    ASSERT_EQ(twins.compact.edge_provenance(e).size(), le.provenance.size());
    for (std::size_t i = 0; i < le.provenance.size(); ++i) {
      EXPECT_EQ(twins.compact.edge_provenance(e)[i].matcher,
                le.provenance[i].matcher);
      EXPECT_EQ(twins.compact.edge_provenance(e)[i].confidence,
                le.provenance[i].confidence);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, CompactVsLegacyTest,
                         ::testing::Range(0, 6));

// Memory accounting: the breakdown's sections must sum to total() and the
// compact representation of a templated catalog (shared feature vectors,
// shared provenance) must undercut the legacy bytes substantially: by 1.5x
// on a small 8-domain catalog, and by 2x on bench_graph_scale's 10k and
// 100k tiers (same generator seeds and options; they read 2.87x and 2.29x
// when that bench still measured them). Byte counts, so no timing
// sensitivity.
TEST(GraphMemoryTest, CompactRepresentationUndercutsLegacy) {
  struct Tier {
    std::size_t sources;
    std::uint64_t seed;
    std::size_t num_domains;  // 0 keeps the generator's default
    double floor;
  };
  const Tier tiers[] = {{2000, 77, 8, 1.5},
                        {10000, 9000 + 10000 % 997, 0, 2.0},
                        {100000, 9000 + 100000 % 997, 0, 2.0}};
  for (const Tier& tier : tiers) {
    SCOPED_TRACE(std::to_string(tier.sources) + " sources");
    util::Rng rng(tier.seed);
    data::StreamingCatalogOptions options;
    if (tier.num_domains > 0) options.num_domains = tier.num_domains;
    FeatureSpace space;
    CostModel model(&space, CostModelConfig{});
    SearchGraph compact;
    ASSERT_TRUE(data::BuildStreamingCatalog(tier.sources, options, &rng,
                                            /*catalog=*/nullptr, &model,
                                            &compact)
                    .ok());

    // Replay the same structure into the legacy representation: nodes and
    // edges copied via the export API, so payloads match exactly.
    LegacyGraphRep legacy;
    for (NodeId n = 0; n < compact.num_nodes(); ++n) {
      legacy.AddNode(compact.node(n).kind, compact.node(n).label,
                     compact.node(n).attr);
    }
    for (EdgeId e = 0; e < compact.num_edges(); ++e) {
      legacy.AddEdge(compact.ExportEdge(e));
    }

    MemoryBreakdown breakdown = compact.MemoryUsage();
    EXPECT_EQ(breakdown.total(),
              breakdown.nodes_bytes + breakdown.node_index_bytes +
                  breakdown.edges_bytes + breakdown.adjacency_bytes +
                  breakdown.feature_pool_bytes + breakdown.provenance_bytes);
    EXPECT_GT(breakdown.total(), 0u);
    const std::size_t legacy_bytes = legacy.MemoryUsage();
    EXPECT_GT(static_cast<double>(legacy_bytes),
              tier.floor * static_cast<double>(breakdown.total()))
        << "compact=" << breakdown.total() << " legacy=" << legacy_bytes;
  }
}

// Streaming generator contract: linear node/edge growth (3 nodes per
// source, at most 4 edges), payload interning collapsing each domain's
// association features to one pooled vector, and optional catalog
// registration.
TEST(StreamingCatalogTest, GeneratesLinearTopologyWithInternedPayloads) {
  util::Rng rng(91);
  data::StreamingCatalogOptions options;
  options.num_domains = 16;
  options.register_catalog = true;
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  relational::Catalog catalog;
  SearchGraph graph;
  const std::size_t count = 5000;
  ASSERT_TRUE(data::BuildStreamingCatalog(count, options, &rng, &catalog,
                                          &model, &graph)
                  .ok());
  EXPECT_EQ(catalog.sources().size(), count);
  // 1 relation + 2 attribute nodes per source.
  EXPECT_EQ(graph.num_nodes(), 3 * count);
  // 2 membership edges always; up to 2 association edges (hub merges can
  // collapse them).
  EXPECT_LE(graph.num_edges(), 4 * count);
  EXPECT_GT(graph.num_edges(), 3 * count);
  MemoryBreakdown breakdown = graph.MemoryUsage();
  // Interning: association payloads are templated per domain, so pool
  // bytes must stay far below one-FeatureVec-per-edge (the legacy cost:
  // >= one heap block per association edge).
  EXPECT_LT(breakdown.feature_pool_bytes, graph.num_edges() * 16);
  EXPECT_GT(breakdown.total() / count, 0u);
}

// Sharded search over a generated catalog (the "new sources registered,
// then queried" flow): terminals drawn near one domain's hubs, sharded
// and unsharded top-k must agree exactly, KMB and exact both.
TEST(StreamingCatalogTest, ShardedSearchMatchesUnshardedOnGeneratedCatalog) {
  util::Rng rng(92);
  data::StreamingCatalogOptions options;
  options.num_domains = 12;
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph graph;
  ASSERT_TRUE(data::BuildStreamingCatalog(1500, options, &rng,
                                          /*catalog=*/nullptr, &model,
                                          &graph)
                  .ok());
  WeightVector weights(&space);

  // Terminals: a recent source's attribute node plus two attribute nodes
  // from its neighborhood, mid-distance in settle order (same-domain by
  // construction — the temporal-locality window the sharding exploits —
  // but far enough apart that the Steiner trees are nontrivial).
  NodeId t0 = kInvalidNode;
  for (NodeId n = graph.num_nodes(); n-- > 0;) {
    if (graph.node(n).kind == NodeKind::kAttribute) {
      t0 = n;
      break;
    }
  }
  ASSERT_NE(t0, kInvalidNode);
  DistanceField field;
  graph.Dijkstra({{t0, 0.0}}, weights,
                 std::numeric_limits<double>::infinity(), &field);
  std::vector<NodeId> near_attrs;
  for (NodeId n : field.reached()) {
    if (n != t0 && graph.node(n).kind == NodeKind::kAttribute &&
        near_attrs.size() < 60) {
      near_attrs.push_back(n);
    }
  }
  ASSERT_GE(near_attrs.size(), 2u);
  std::vector<NodeId> terminals = {t0, near_attrs[near_attrs.size() / 2],
                                   near_attrs.back()};

  for (bool approximate : {true, false}) {
    steiner::TopKConfig plain;
    plain.k = 3;
    plain.approximate = approximate;
    steiner::TopKConfig sharded = plain;
    sharded.sharded.enabled = true;
    sharded.sharded.target_shard_nodes = 256;
    auto a = steiner::TopKSteinerTrees(graph, weights, terminals, plain);
    auto b = steiner::TopKSteinerTrees(graph, weights, terminals, sharded);
    ASSERT_EQ(a.size(), b.size()) << (approximate ? "kmb" : "exact");
    ASSERT_FALSE(a.empty()) << (approximate ? "kmb" : "exact");
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].edges, b[i].edges) << i;
      EXPECT_EQ(a[i].cost, b[i].cost) << i;
    }
  }
}

// Terminal sets of recent-source window requests, as qbench's catalog
// workload draws them: an attribute node among the latest tenth of the
// catalog plus two attribute nodes within eight mean edge costs of it.
std::vector<std::vector<NodeId>> WindowRequests(const SearchGraph& graph,
                                                const WeightVector& weights,
                                                std::uint64_t seed,
                                                std::size_t count) {
  double hop_cost = 0.0;
  const std::size_t sample = std::min<std::size_t>(graph.num_edges(), 256);
  for (EdgeId e = 0; e < sample; ++e) hop_cost += graph.EdgeCost(e, weights);
  hop_cost = sample > 0 && hop_cost > 0.0 ? hop_cost / sample : 1.0;
  util::Rng rng(seed);
  DistanceField field;
  std::vector<std::vector<NodeId>> out;
  while (out.size() < count) {
    const auto t0 = static_cast<NodeId>(
        graph.num_nodes() - 1 - rng.Uniform(graph.num_nodes() / 10 + 1));
    if (graph.node(t0).kind != NodeKind::kAttribute) continue;
    graph.Dijkstra({{t0, 0.0}}, weights, 8.0 * hop_cost, &field);
    std::vector<NodeId> window;
    for (NodeId n : field.reached()) {
      if (n != t0 && graph.node(n).kind == NodeKind::kAttribute) {
        window.push_back(n);
      }
    }
    if (window.size() < 2) continue;
    std::vector<NodeId> terminals = {t0};
    while (terminals.size() < 3) {
      const NodeId t = window[rng.Uniform(window.size())];
      if (std::find(terminals.begin(), terminals.end(), t) ==
          terminals.end()) {
        terminals.push_back(t);
      }
    }
    out.push_back(std::move(terminals));
  }
  return out;
}

// Serving memory tracks the mask, not the catalog: every per-thread array
// a masked solve or a mask build touches is indexed by view ids or ball
// slots, so a fresh thread that serves 100 sharded window requests (the
// catalog workload's request config) retains about as much search scratch
// on the 100k-source catalog as on the 10k one. With catalog-sized
// union-finds, remaps, overlay flags and localizer arrays it grew tenfold.
TEST(StreamingCatalogTest, ServingScratchTracksMaskNotCatalog) {
  const std::size_t tiers[] = {10000, 100000};
  std::size_t bytes[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(std::to_string(tiers[i]) + " sources");
    util::Rng rng(9000 + tiers[i] % 997);
    FeatureSpace space;
    CostModel model(&space, CostModelConfig{});
    SearchGraph graph;
    ASSERT_TRUE(data::BuildStreamingCatalog(tiers[i],
                                            data::StreamingCatalogOptions{},
                                            &rng, /*catalog=*/nullptr, &model,
                                            &graph)
                    .ok());
    WeightVector weights(&space);
    steiner::TopKConfig config;
    config.k = 3;
    config.max_subproblems = 300;
    config.sharded.enabled = true;
    steiner::FastSteinerEngine engine(graph, weights);
    const auto requests = WindowRequests(graph, weights, /*seed=*/1, 100);
    std::size_t served = 0;
    std::thread client([&] {
      for (const auto& terminals : requests) {
        if (!steiner::TopKSteinerTrees(graph, weights, terminals, config,
                                       &engine)
                 .empty()) {
          ++served;
        }
      }
      bytes[i] = steiner::ThreadScratchBytes();
    });
    client.join();
    EXPECT_EQ(served, requests.size());
    EXPECT_GT(bytes[i], 0u);
  }
  EXPECT_LE(bytes[1], 2 * bytes[0])
      << "10k: " << bytes[0] << " B, 100k: " << bytes[1] << " B";
}

// A covers_all mask (its ball reached every node the terminals can
// reach) is solved masked over its compact view like any other mask. On
// the catalog workload's 10k-source catalog, window requests 49 and 98 of
// seed 7 have terminals in components of 132 and 111 nodes; a thread
// serving them keeps its search scratch sized to the masks (solving them
// unmasked sized it to the catalog). Every request's trees and
// certificate equal the unsharded engine's, for KMB and for exact.
TEST(StreamingCatalogTest, CoversAllMasksSolveMasked) {
  util::Rng rng(9100);  // the catalog workload's catalog seed
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph graph;
  ASSERT_TRUE(data::BuildStreamingCatalog(10000,
                                          data::StreamingCatalogOptions{},
                                          &rng, /*catalog=*/nullptr, &model,
                                          &graph)
                  .ok());
  WeightVector weights(&space);
  steiner::FastSteinerEngine engine(graph, weights);
  const auto requests = WindowRequests(graph, weights, /*seed=*/7, 120);
  const std::size_t closed[] = {49, 98};
  const std::size_t closed_nodes[] = {132, 111};
  steiner::TopKConfig plain;
  plain.k = 3;
  plain.max_subproblems = 300;
  for (int i = 0; i < 2; ++i) {
    steiner::TerminalLocalizer localizer(
        engine.Pin().csr, engine.Shards(plain.sharded.target_shard_nodes),
        requests[closed[i]]);
    const auto mask = localizer.Acquire().mask;
    EXPECT_TRUE(mask->covers_all) << closed[i];
    EXPECT_EQ(mask->nodes.size(), closed_nodes[i]) << closed[i];
  }

  for (bool approximate : {true, false}) {
    SCOPED_TRACE(approximate ? "kmb" : "exact");
    plain.approximate = approximate;
    plain.approximate_above_nodes = std::numeric_limits<std::size_t>::max();
    steiner::TopKConfig sharded = plain;
    sharded.sharded.enabled = true;
    std::vector<std::vector<steiner::SteinerTree>> trees(requests.size());
    std::vector<steiner::RelevanceCertificate> certs(requests.size());
    std::size_t before[2] = {0, 0};
    std::size_t after[2] = {0, 0};
    std::thread client([&] {
      for (std::size_t r = 0; r < requests.size(); ++r) {
        for (int i = 0; i < 2; ++i) {
          if (r == closed[i]) before[i] = steiner::ThreadScratchBytes();
        }
        trees[r] = steiner::TopKSteinerTrees(graph, weights, requests[r],
                                             sharded, &engine, &certs[r]);
        for (int i = 0; i < 2; ++i) {
          if (r == closed[i]) after[i] = steiner::ThreadScratchBytes();
        }
      }
    });
    client.join();
    for (int i = 0; i < 2; ++i) {
      EXPECT_GT(before[i], 0u) << closed[i];
      EXPECT_LE(after[i], 2 * before[i])
          << "request " << closed[i] << ": " << before[i] << " -> "
          << after[i] << " B";
    }
    for (std::size_t r = 0; r < requests.size(); ++r) {
      steiner::RelevanceCertificate cert;
      const auto want = steiner::TopKSteinerTrees(graph, weights, requests[r],
                                                  plain, &engine, &cert);
      ASSERT_EQ(trees[r].size(), want.size()) << r;
      EXPECT_FALSE(want.empty()) << r;
      for (std::size_t t = 0; t < want.size(); ++t) {
        EXPECT_EQ(trees[r][t].edges, want[t].edges) << r << "/" << t;
        EXPECT_EQ(trees[r][t].cost, want[t].cost) << r << "/" << t;
      }
      EXPECT_EQ(certs[r].valid, cert.valid) << r;
      EXPECT_EQ(certs[r].gap, cert.gap) << r;
    }
  }
}

}  // namespace
}  // namespace q::graph
