#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "data/synthetic.h"
#include "graph/search_graph.h"
#include "learn/evaluation.h"
#include "learn/mira.h"
#include "steiner/top_k.h"

namespace q::learn {
namespace {

using graph::EdgeId;
using graph::FeatureSpace;
using graph::FeatureVec;
using graph::NodeId;
using graph::SearchGraph;
using graph::WeightVector;

// Diamond graph: terminals 0 and 3, two competing 2-edge paths. Each edge
// carries the shared default feature plus its own feature, so MIRA can
// reprice paths individually.
struct Diamond {
  FeatureSpace space;
  SearchGraph graph;
  std::unique_ptr<WeightVector> weights;
  EdgeId top_a, top_b;     // path through node 1
  EdgeId bottom_a, bottom_b;  // path through node 2

  Diamond(double top_cost, double bottom_cost) {
    for (int i = 0; i < 4; ++i) {
      graph.AddNode(graph::NodeKind::kAttribute, "n" + std::to_string(i));
    }
    space.SetInitialWeight(FeatureSpace::kDefaultFeature, 0.05);
    top_a = AddEdge(0, 1, "ta", top_cost / 2);
    top_b = AddEdge(1, 3, "tb", top_cost / 2);
    bottom_a = AddEdge(0, 2, "ba", bottom_cost / 2);
    bottom_b = AddEdge(2, 3, "bb", bottom_cost / 2);
    weights = std::make_unique<WeightVector>(&space);
  }

  EdgeId AddEdge(NodeId u, NodeId v, const std::string& name, double cost) {
    graph::Edge e;
    e.u = u;
    e.v = v;
    e.kind = graph::EdgeKind::kAssociation;
    FeatureVec f;
    f.Add(FeatureSpace::kDefaultFeature, 1.0);
    f.Add(space.Intern("edge:" + name, cost), 1.0);
    e.features = std::move(f);
    return graph.AddEdge(std::move(e));
  }

  double Cost(EdgeId e) const { return graph.EdgeCost(e, *weights); }
};

TEST(MiraTest, TargetAlreadyBestIsStable) {
  Diamond d(1.0, 2.0);  // top path already cheapest
  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();

  MiraLearner learner;
  auto info = learner.Update(d.graph, {0, 3}, target, d.weights.get());
  ASSERT_TRUE(info.ok());
  // The margin requirement may still adjust weights, but the target must
  // remain the best tree.
  steiner::TopKConfig topk;
  topk.k = 1;
  auto best = steiner::TopKSteinerTrees(d.graph, *d.weights, {0, 3}, topk);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].edges, target.edges);
}

TEST(MiraTest, LearnsToPreferEndorsedTree) {
  Diamond d(2.0, 1.0);  // bottom path cheapest, user endorses top
  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();

  MiraLearner learner;
  steiner::TopKConfig topk;
  topk.k = 1;
  // Before learning the bottom path wins.
  auto before = steiner::TopKSteinerTrees(d.graph, *d.weights, {0, 3}, topk);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_NE(before[0].edges, target.edges);

  auto info = learner.Update(d.graph, {0, 3}, target, d.weights.get());
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->constraints, 0u);
  EXPECT_EQ(info->violated_after, 0u);

  auto after = steiner::TopKSteinerTrees(d.graph, *d.weights, {0, 3}, topk);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].edges, target.edges);
  // Margin: target beats the alternative by at least the edge loss (4).
  double target_cost = steiner::TreeCost(d.graph, *d.weights, target);
  steiner::SteinerTree other{{d.bottom_a, d.bottom_b}, 0.0};
  double other_cost = steiner::TreeCost(d.graph, *d.weights, other);
  EXPECT_GE(other_cost - target_cost, 4.0 - 1e-6);
}

TEST(MiraTest, PositivityMaintained) {
  Diamond d(4.0, 0.2);
  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();
  MiraLearner learner;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(learner.Update(d.graph, {0, 3}, target, d.weights.get()).ok());
  }
  for (EdgeId e = 0; e < d.graph.num_edges(); ++e) {
    EXPECT_GT(d.weights->Dot(d.graph.edge_features(e)), 0.0)
        << "edge " << e << " went non-positive";
  }
}

// Positivity must ride the violating edges' own features (as QP
// constraints re-solved with the margins), never the shared default
// feature: the default sits on every learnable edge, so a bump turns an
// otherwise-sparse MIRA delta dense — full re-costs everywhere (the
// regression this test pins).
TEST(MiraTest, PositivityRidesConstraintFeaturesNotTheDefault) {
  Diamond d(2.0, 1.0);  // bottom path cheapest, user endorses top
  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();

  MiraLearner learner;
  const WeightVector before = *d.weights;
  // The margin pass must drive the endorsed path's features well below
  // the floor (loss 4 against costs of order 1), forcing the positivity
  // machinery to engage.
  auto info = learner.Update(d.graph, {0, 3}, target, d.weights.get());
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->positivity_constraints, 0u);

  // The fix: no dense fallback, the default feature is untouched, and
  // the update's delta stays on the per-edge/constraint features.
  EXPECT_EQ(info->default_weight_bump, 0.0);
  EXPECT_EQ(d.weights->At(FeatureSpace::kDefaultFeature),
            before.At(FeatureSpace::kDefaultFeature));
  ASSERT_FALSE(info->feature_deltas.empty());
  EXPECT_EQ(info->features_touched, info->feature_deltas.size());
  for (const auto& delta : info->feature_deltas) {
    EXPECT_NE(delta.id, FeatureSpace::kDefaultFeature);
  }
  // The summary is the update's whole net movement: ascending ids, each
  // from its value before to its value after, and no other feature moved.
  std::size_t next = 0;
  for (graph::FeatureId id = 0; id < d.space.size(); ++id) {
    if (next < info->feature_deltas.size() &&
        info->feature_deltas[next].id == id) {
      EXPECT_EQ(info->feature_deltas[next].old_value, before.At(id));
      EXPECT_EQ(info->feature_deltas[next].new_value, d.weights->At(id));
      ++next;
    } else {
      EXPECT_EQ(d.weights->At(id), before.At(id)) << "feature " << id;
    }
  }
  EXPECT_EQ(next, info->feature_deltas.size());

  // And the constraint-based floor loses neither guarantee: every cost
  // sits at or above epsilon (within the solver's tolerance) and the
  // endorsed path still wins with the full margin.
  for (graph::EdgeId e = 0; e < d.graph.num_edges(); ++e) {
    EXPECT_GE(d.graph.EdgeCost(e, *d.weights), 1e-4 - 1e-7)
        << "edge " << e;
  }
  steiner::SteinerTree other{{d.bottom_a, d.bottom_b}, 0.0};
  double margin = steiner::TreeCost(d.graph, *d.weights, other) -
                  steiner::TreeCost(d.graph, *d.weights, target);
  EXPECT_GE(margin, 4.0 - 1e-6);
}

TEST(MiraTest, ZeroCostEdgesUntouched) {
  Diamond d(2.0, 1.0);
  // Add a fixed-zero membership edge; it must stay at exactly 0.
  graph::Edge membership;
  membership.u = 1;
  membership.v = 2;
  membership.kind = graph::EdgeKind::kMembership;
  membership.fixed_zero = true;
  EdgeId me = d.graph.AddEdge(std::move(membership));

  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();
  MiraLearner learner;
  ASSERT_TRUE(learner.Update(d.graph, {0, 3}, target, d.weights.get()).ok());
  EXPECT_DOUBLE_EQ(d.graph.EdgeCost(me, *d.weights), 0.0);
}

TEST(MiraTest, UpdateAgainstExplicitAlternatives) {
  Diamond d(2.0, 1.0);
  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();
  steiner::SteinerTree alt{{d.bottom_a, d.bottom_b}, 0.0};
  alt.Canonicalize();
  MiraLearner learner;
  auto info =
      learner.UpdateAgainst(d.graph, {alt}, target, d.weights.get());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->constraints, 1u);
  double target_cost = steiner::TreeCost(d.graph, *d.weights, target);
  double alt_cost = steiner::TreeCost(d.graph, *d.weights, alt);
  EXPECT_GE(alt_cost - target_cost, 4.0 - 1e-6);
}

// Property sweep: for random diamond costs, one MIRA update always makes
// the endorsed path optimal with the required margin, while fixed-zero
// edges stay at zero and all costs stay positive.
class MiraPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MiraPropertyTest, EndorsedPathWinsWithMargin) {
  std::uint64_t seed = 5000 + GetParam();
  // Deterministic pseudo-random costs in (0.2, 4.2).
  auto cost_of = [&](int i) {
    std::uint64_t x = seed * 2654435761u + i * 40503u;
    return 0.2 + static_cast<double>(x % 1000) / 250.0;
  };
  Diamond d(cost_of(0) + cost_of(1), cost_of(2) + cost_of(3));
  steiner::SteinerTree target{{d.top_a, d.top_b}, 0.0};
  target.Canonicalize();

  MiraLearner learner;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        learner.Update(d.graph, {0, 3}, target, d.weights.get()).ok());
  }
  steiner::TopKConfig topk;
  topk.k = 1;
  auto best = steiner::TopKSteinerTrees(d.graph, *d.weights, {0, 3}, topk);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].edges, target.edges);
  steiner::SteinerTree other{{d.bottom_a, d.bottom_b}, 0.0};
  other.Canonicalize();
  double margin = steiner::TreeCost(d.graph, *d.weights, other) -
                  steiner::TreeCost(d.graph, *d.weights, target);
  EXPECT_GE(margin, 4.0 - 1e-6);  // symmetric loss of disjoint 2-edge paths
  for (graph::EdgeId e = 0; e < d.graph.num_edges(); ++e) {
    EXPECT_GT(d.graph.EdgeCost(e, *d.weights), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCosts, MiraPropertyTest,
                         ::testing::Range(0, 15));

// End-to-end half of the positivity-batching regression: a MIRA feedback
// step must not bump the default feature, and every view it reaches is
// re-costed in place, never rebuilt — searched when its re-cost moved a
// cost, skipped when it moved none. Before the headroom batching, the
// bump re-armed on (nearly) every update and its dense default-feature
// delta moved every view's costs throughout.
TEST(MiraEndToEndTest, SparseFeedbackRecostsOrSkipsEndToEnd) {
  data::InterProGoConfig dconfig;
  dconfig.num_go_terms = 80;
  dconfig.num_entries = 60;
  dconfig.num_pubs = 50;
  dconfig.num_journals = 10;
  dconfig.num_methods = 40;
  dconfig.interpro2go_links = 120;
  dconfig.entry2pub_links = 100;
  dconfig.method2pub_links = 80;
  auto dataset = data::BuildInterProGo(dconfig);

  core::QSystemConfig config;
  config.steiner_threads = -1;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  core::QSystem q(config);
  for (const auto& src : dataset.catalog.sources()) {
    Q_CHECK_OK(q.RegisterSource(src));
  }
  Q_CHECK_OK(q.RunInitialAlignment());
  // Grow the catalog with synthetic two-attribute sources (the Sec. 5.1.2
  // scaling shape) so the snapshots are much larger than any one tree: a
  // MIRA step's features then price a small fraction of each view's
  // edges, which is the regime the delta classification serves. On the
  // raw schema graph every tree is a sizable fraction of the snapshot
  // and dense fallbacks are correct.
  {
    util::Rng rng(2010);
    std::vector<match::AlignmentCandidate> wires;
    const std::vector<relational::AttributeId> targets = {
        {"go", "go_term", "name"},
        {"interpro", "entry", "name"},
        {"interpro", "method", "name"},
        {"interpro", "pub", "title"},
    };
    for (int i = 0; i < 150; ++i) {
      std::string name = "syn" + std::to_string(i);
      Q_CHECK_OK(q.RegisterSource(data::MakeSyntheticSource(name, 3, &rng)));
      match::AlignmentCandidate c;
      c.a = relational::AttributeId{name, "rel", "key"};
      c.b = targets[i % targets.size()];
      c.matcher = "synthetic";
      c.confidence = 0.5;
      wires.push_back(c);
    }
    Q_CHECK_OK(q.AddAssociations(wires));
  }
  std::vector<std::size_t> view_ids;
  for (std::size_t i = 0; i < 3; ++i) {
    auto id = q.CreateView(dataset.keyword_queries[i]);
    Q_CHECK_OK(id.status());
    view_ids.push_back(*id);
  }
  ASSERT_TRUE(q.RefreshAllViews().ok());

  // Warmup feedback absorbs any initial positivity bump (a bump is
  // legitimately dense; headroom means it cannot recur on the very next
  // steps).
  ASSERT_FALSE(q.view(view_ids[0]).trees().empty());
  ASSERT_TRUE(
      q.ApplyFeedback(view_ids[0], q.view(view_ids[0]).trees()[0]).ok());

  // The measured steps: endorse each view's current best. None may move
  // the dense default feature, and every view must resolve to a re-cost
  // and a search, or a skip.
  for (std::size_t round = 1; round < view_ids.size(); ++round) {
    std::size_t view = view_ids[round];
    ASSERT_FALSE(q.view(view).trees().empty());
    auto before = q.refresh_engine().stats();
    double default_before =
        q.weights().At(graph::FeatureSpace::kDefaultFeature);
    ASSERT_TRUE(q.ApplyFeedback(view, q.view(view).trees()[0]).ok());
    auto after = q.refresh_engine().stats();
    EXPECT_EQ(q.weights().At(graph::FeatureSpace::kDefaultFeature),
              default_before)
        << "round " << round << " bumped the default feature";
    const std::size_t moved =
        after.views_full_recost - before.views_full_recost;
    const std::size_t skipped =
        after.views_skipped_delta - before.views_skipped_delta;
    EXPECT_EQ(after.snapshots_built, before.snapshots_built)
        << "round " << round;
    EXPECT_EQ(moved + skipped, view_ids.size()) << "round " << round;
    EXPECT_EQ(after.searches_run - before.searches_run, moved)
        << "round " << round;
    EXPECT_EQ(after.refreshes_skipped - before.refreshes_skipped, skipped)
        << "round " << round;
    EXPECT_EQ(after.views_delta_recost, 0u) << "round " << round;
  }
}

// Evaluation utilities ------------------------------------------------------

relational::AttributeId Attr(const std::string& r, const std::string& a) {
  return relational::AttributeId{"s", r, a};
}

TEST(EvaluationTest, CandidatePrecisionRecall) {
  std::vector<GoldEdge> gold{{Attr("r1", "a"), Attr("r2", "b")},
                             {Attr("r3", "c"), Attr("r4", "d")}};
  std::vector<match::AlignmentCandidate> candidates{
      {Attr("r1", "a"), Attr("r2", "b"), 0.9, "m"},  // correct
      {Attr("r2", "b"), Attr("r1", "a"), 0.8, "m"},  // dup of correct
      {Attr("r1", "a"), Attr("r4", "d"), 0.7, "m"},  // wrong
  };
  auto pr = EvaluateCandidates(candidates, gold);
  EXPECT_EQ(pr.true_positives, 1u);
  EXPECT_EQ(pr.predicted, 2u);  // dup counted once
  EXPECT_EQ(pr.gold, 2u);
  EXPECT_DOUBLE_EQ(pr.precision(), 0.5);
  EXPECT_DOUBLE_EQ(pr.recall(), 0.5);
  EXPECT_DOUBLE_EQ(pr.f1(), 0.5);
}

TEST(EvaluationTest, CandidatePrCurveMonotoneRecall) {
  std::vector<GoldEdge> gold{{Attr("r1", "a"), Attr("r2", "b")}};
  std::vector<match::AlignmentCandidate> candidates{
      {Attr("r1", "a"), Attr("r2", "b"), 0.9, "m"},
      {Attr("r1", "a"), Attr("r4", "d"), 0.7, "m"},
      {Attr("r5", "e"), Attr("r6", "f"), 0.5, "m"},
  };
  auto curve = CandidatePrCurve(candidates, gold);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].recall, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].recall, curve[i - 1].recall);
    EXPECT_LE(curve[i].threshold, curve[i - 1].threshold);
  }
  EXPECT_NEAR(curve.back().precision, 1.0 / 3.0, 1e-9);
}

TEST(EvaluationTest, GraphAssociationsAndCostGap) {
  FeatureSpace space;
  SearchGraph g;
  NodeId a = g.AddNode(graph::NodeKind::kAttribute, "s.r1.a",
                       Attr("r1", "a"));
  NodeId b = g.AddNode(graph::NodeKind::kAttribute, "s.r2.b",
                       Attr("r2", "b"));
  NodeId c = g.AddNode(graph::NodeKind::kAttribute, "s.r3.c",
                       Attr("r3", "c"));
  auto add = [&](NodeId u, NodeId v, const char* name, double cost) {
    FeatureVec f;
    f.Add(space.Intern(name, cost), 1.0);
    return g.AddAssociationEdge(u, v, f, graph::MatcherScore{"m", 0.5});
  };
  add(a, b, "cheap", 0.5);   // gold
  add(a, c, "pricey", 3.0);  // non-gold
  WeightVector w(&space);

  std::vector<GoldEdge> gold{{Attr("r1", "a"), Attr("r2", "b")}};
  auto pr_all = EvaluateGraphAssociations(g, w, gold, 10.0);
  EXPECT_DOUBLE_EQ(pr_all.precision(), 0.5);
  EXPECT_DOUBLE_EQ(pr_all.recall(), 1.0);
  auto pr_strict = EvaluateGraphAssociations(g, w, gold, 1.0);
  EXPECT_DOUBLE_EQ(pr_strict.precision(), 1.0);
  EXPECT_DOUBLE_EQ(pr_strict.recall(), 1.0);

  auto gap = MeasureGoldCostGap(g, w, gold);
  EXPECT_EQ(gap.gold_edges, 1u);
  EXPECT_EQ(gap.non_gold_edges, 1u);
  EXPECT_DOUBLE_EQ(gap.gold_mean, 0.5);
  EXPECT_DOUBLE_EQ(gap.non_gold_mean, 3.0);

  auto curve = GraphPrCurve(g, w, gold);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].precision, 0.5);
}

}  // namespace
}  // namespace q::learn
