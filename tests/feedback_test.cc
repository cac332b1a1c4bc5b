#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "data/interpro_go.h"
#include "feedback/feedback_log.h"
#include "feedback/simulated_user.h"
#include "graph/graph_builder.h"
#include "query/query_graph.h"
#include "steiner/fast_solver.h"
#include "steiner/top_k.h"
#include "text/text_index.h"

namespace q::feedback {
namespace {

TEST(FeedbackLogTest, SlidingWindow) {
  FeedbackLog log(3);
  EXPECT_TRUE(log.empty());
  for (int i = 0; i < 5; ++i) {
    log.Record(FeedbackEvent{{"kw" + std::to_string(i)}});
  }
  EXPECT_EQ(log.size(), 3u);
  auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].keywords[0], "kw2");  // oldest retained
  EXPECT_EQ(events[2].keywords[0], "kw4");
  log.Clear();
  EXPECT_TRUE(log.empty());
}

TEST(FeedbackLogTest, SequenceStampsSurviveTheSlidingWindow) {
  FeedbackLog log(2);
  EXPECT_EQ(log.next_sequence(), 0u);
  EXPECT_TRUE(log.complete_history());
  for (int i = 0; i < 4; ++i) {
    log.Record(FeedbackEvent{{"kw"}});
  }
  EXPECT_EQ(log.next_sequence(), 4u);
  EXPECT_FALSE(log.complete_history());  // events 0 and 1 were dropped
  auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sequence, 2u);
  EXPECT_EQ(events[1].sequence, 3u);

  // Restore reinstates the stream exactly: stamps and next sequence.
  FeedbackLog other;
  other.Restore(log.next_sequence(), log.Snapshot());
  EXPECT_EQ(other.next_sequence(), 4u);
  ASSERT_EQ(other.Snapshot().size(), 2u);
  EXPECT_EQ(other.Snapshot()[0].sequence, 2u);
}

TEST(FeedbackLogTest, ReplayIsDeterministicAndAllOrNothing) {
  graph::FeatureSpace space;
  graph::FeatureId f1 = space.Intern("f1", 0.5);
  graph::FeatureId f2 = space.Intern("f2", 1.0);

  FeedbackLog log;
  FeedbackEvent e1;
  e1.deltas = {{f1, 0.5, 0.7}};
  log.Record(std::move(e1));
  FeedbackEvent e2;
  e2.deltas = {{f1, 0.7, 0.6}, {f2, 1.0, 1.25}};
  log.Record(std::move(e2));

  graph::WeightVector weights(&space);
  ASSERT_TRUE(log.ReplayInto(&weights).ok());
  EXPECT_EQ(weights.At(f1), 0.6);
  EXPECT_EQ(weights.At(f2), 1.25);

  // Replaying again lands on the same values (idempotent on the result).
  graph::WeightVector again(&space);
  ASSERT_TRUE(log.ReplayInto(&again).ok());
  EXPECT_EQ(again.At(f1), 0.6);
  EXPECT_EQ(again.At(f2), 1.25);

  // An unreplayable event poisons the whole replay without touching the
  // target vector.
  FeedbackEvent broken;
  broken.replayable = false;
  log.Record(std::move(broken));
  graph::WeightVector untouched(&space);
  EXPECT_FALSE(log.ReplayInto(&untouched).ok());
  EXPECT_EQ(untouched.At(f1), 0.5);  // still the initial weight
  EXPECT_EQ(untouched.revision(), 0u);

  // So does a delta pointing outside the feature space.
  FeedbackLog bad;
  FeedbackEvent oob;
  oob.deltas = {{999, 0.0, 1.0}};
  bad.Record(std::move(oob));
  graph::WeightVector target(&space);
  EXPECT_TRUE(bad.ReplayInto(&target).IsOutOfRange());
  EXPECT_EQ(target.revision(), 0u);
}

class SimulatedUserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::InterProGoConfig config;
    config.num_go_terms = 60;
    config.num_entries = 50;
    config.num_pubs = 40;
    config.num_journals = 8;
    config.num_methods = 30;
    config.interpro2go_links = 90;
    config.entry2pub_links = 80;
    config.method2pub_links = 60;
    dataset_ = data::BuildInterProGo(config);
    model_ = std::make_unique<graph::CostModel>(&space_,
                                                graph::CostModelConfig{});
    graph_ = graph::BuildSearchGraph(dataset_.catalog, model_.get());
    weights_ = std::make_unique<graph::WeightVector>(&space_);
    index_.IndexCatalog(dataset_.catalog);

    // One gold association and one non-gold association.
    auto gold_a = graph_.FindAttributeNode(dataset_.gold_edges[0].a);
    auto gold_b = graph_.FindAttributeNode(dataset_.gold_edges[0].b);
    ASSERT_TRUE(gold_a.has_value() && gold_b.has_value());
    gold_edge_ = graph_.AddAssociationEdge(
        *gold_a, *gold_b,
        model_->AssociationFeatures("m", 0.9, "x", "y", "gold"),
        graph::MatcherScore{"m", 0.9});

    auto bad_a = graph_.FindAttributeNode(
        relational::AttributeId{"go", "go_term", "name"});
    auto bad_b = graph_.FindAttributeNode(
        relational::AttributeId{"interpro", "pub", "title"});
    ASSERT_TRUE(bad_a.has_value() && bad_b.has_value());
    bad_edge_ = graph_.AddAssociationEdge(
        *bad_a, *bad_b,
        model_->AssociationFeatures("m", 0.9, "x", "y", "bad"),
        graph::MatcherScore{"m", 0.9});
  }

  // Adds the i-th gold alignment as an association edge.
  void AddGoldAssociation(std::size_t i, double confidence) {
    auto a = graph_.FindAttributeNode(dataset_.gold_edges[i].a);
    auto b = graph_.FindAttributeNode(dataset_.gold_edges[i].b);
    ASSERT_TRUE(a.has_value() && b.has_value());
    graph_.AddAssociationEdge(
        *a, *b,
        model_->AssociationFeatures("m", confidence, "x", "y",
                                    "gold" + std::to_string(i)),
        graph::MatcherScore{"m", confidence});
  }

  // The query graph's gold and non-gold association edges.
  void SplitAssociations(const SimulatedUser& user,
                         const query::QueryGraph& qg,
                         std::vector<graph::EdgeId>* gold,
                         std::vector<graph::EdgeId>* non_gold) {
    for (graph::EdgeId e :
         qg.graph.EdgesOfKind(graph::EdgeKind::kAssociation)) {
      const steiner::SteinerTree alone{{e}, 0.0};
      (user.IsGoldConsistent(qg, alone) ? gold : non_gold)->push_back(e);
    }
  }

  query::QueryGraph BuildQg(const std::vector<std::string>& keywords) {
    auto qg = query::BuildQueryGraph(graph_, index_, keywords, model_.get(),
                                     *weights_, query::QueryGraphOptions{});
    EXPECT_TRUE(qg.ok()) << qg.status();
    return std::move(qg).value();
  }

  data::InterProGoDataset dataset_;
  graph::FeatureSpace space_;
  std::unique_ptr<graph::CostModel> model_;
  graph::SearchGraph graph_;
  std::unique_ptr<graph::WeightVector> weights_;
  text::TextIndex index_;
  graph::EdgeId gold_edge_ = graph::kInvalidEdge;
  graph::EdgeId bad_edge_ = graph::kInvalidEdge;
};

TEST_F(SimulatedUserTest, GoldConsistencyChecksAssociations) {
  SimulatedUser user(dataset_.gold_edges);
  auto qg = BuildQg({"go term", "entry"});

  // A tree with no association edges is trivially gold-consistent.
  steiner::SteinerTree no_assoc;
  EXPECT_TRUE(user.IsGoldConsistent(qg, no_assoc));

  // Find the copies of the gold/bad edges inside the query graph (edge
  // ids may shift during the filtered copy).
  graph::EdgeId gold_copy = graph::kInvalidEdge;
  graph::EdgeId bad_copy = graph::kInvalidEdge;
  for (graph::EdgeId e :
       qg.graph.EdgesOfKind(graph::EdgeKind::kAssociation)) {
    const auto& la = qg.graph.node(qg.graph.edge(e).u).label;
    if (la == dataset_.gold_edges[0].a.ToString() ||
        qg.graph.node(qg.graph.edge(e).v).label ==
            dataset_.gold_edges[0].a.ToString()) {
      gold_copy = e;
    } else {
      bad_copy = e;
    }
  }
  ASSERT_NE(gold_copy, graph::kInvalidEdge);
  ASSERT_NE(bad_copy, graph::kInvalidEdge);

  steiner::SteinerTree gold_tree{{gold_copy}, 0.0};
  EXPECT_TRUE(user.IsGoldConsistent(qg, gold_tree));
  steiner::SteinerTree bad_tree{{bad_copy}, 0.0};
  EXPECT_FALSE(user.IsGoldConsistent(qg, bad_tree));
  steiner::SteinerTree mixed{{gold_copy, bad_copy}, 0.0};
  mixed.Canonicalize();
  EXPECT_FALSE(user.IsGoldConsistent(qg, mixed));
}

TEST_F(SimulatedUserTest, PickEndorsedTreeTakesCheapestGold) {
  SimulatedUser user(dataset_.gold_edges);
  auto qg = BuildQg({"go term", "entry"});
  steiner::TopKConfig topk;
  topk.k = 8;
  auto trees = steiner::TopKSteinerTrees(qg.graph, *weights_,
                                         qg.keyword_nodes, topk);
  ASSERT_FALSE(trees.empty());
  auto endorsed = user.PickEndorsedTree(qg, trees);
  if (endorsed.has_value()) {
    EXPECT_TRUE(user.IsGoldConsistent(qg, *endorsed));
    // No cheaper gold-consistent tree precedes it.
    for (const auto& t : trees) {
      if (t.cost < endorsed->cost) {
        EXPECT_FALSE(user.IsGoldConsistent(qg, t));
      }
    }
  }
}

TEST_F(SimulatedUserTest, SolveEndorsedTreeAvoidsNonGoldEdges) {
  SimulatedUser user(dataset_.gold_edges);
  // These keywords connect through the gold association (go_term.acc <->
  // interpro2go.go_id) without needing the non-gold edge.
  auto qg = BuildQg({"go term name", "entry"});
  auto endorsed = user.SolveEndorsedTree(qg, *weights_);
  ASSERT_TRUE(endorsed.has_value());
  EXPECT_TRUE(user.IsGoldConsistent(qg, *endorsed));
  EXPECT_TRUE(
      steiner::IsValidSteinerTree(qg.graph, *endorsed, qg.keyword_nodes));
}

// Each gold association forced in turn: on this fixture the only one
// dangles (the cheapest tree holding it hangs it off the entry-name
// answer), so there is no join answer even though a gold-consistent
// answer exists.
TEST_F(SimulatedUserTest, SolveEndorsedJoinTreeSkipsDanglingGoldEdges) {
  SimulatedUser user(dataset_.gold_edges);
  auto qg = BuildQg({"go term name", "entry"});
  std::vector<graph::EdgeId> gold;
  std::vector<graph::EdgeId> non_gold;
  SplitAssociations(user, qg, &gold, &non_gold);
  ASSERT_EQ(gold.size(), 1u);
  steiner::FastSteinerEngine engine(qg.graph, *weights_);
  auto forced = engine.SolveExact(qg.keyword_nodes, {gold[0]}, non_gold);
  ASSERT_TRUE(forced.has_value());
  EXPECT_FALSE(
      steiner::IsProperSteinerTree(qg.graph, *forced, qg.keyword_nodes));

  EXPECT_FALSE(user.SolveEndorsedJoinTree(qg, *weights_).has_value());
  EXPECT_TRUE(user.SolveEndorsedTree(qg, *weights_).has_value());
}

// Five more gold associations, the first of them at a low confidence:
// the forced solves give proper join answers of several costs, the
// cheapest neither the first nor the last of them, and the one forcing
// the fixture's own gold edge dangles. The cheapest by TreeLess wins.
TEST_F(SimulatedUserTest, SolveEndorsedJoinTreeKeepsTheCheapestForcedTree) {
  AddGoldAssociation(3, 0.5);
  for (std::size_t i : {2, 6, 5, 7}) AddGoldAssociation(i, 0.9);
  SimulatedUser user(dataset_.gold_edges);
  auto qg = BuildQg({"entry", "pub title"});
  std::vector<graph::EdgeId> gold;
  std::vector<graph::EdgeId> non_gold;
  SplitAssociations(user, qg, &gold, &non_gold);
  ASSERT_EQ(gold.size(), 6u);
  steiner::FastSteinerEngine engine(qg.graph, *weights_);
  std::vector<steiner::SteinerTree> proper;
  for (graph::EdgeId e : gold) {
    auto tree = engine.SolveExact(qg.keyword_nodes, {e}, non_gold);
    ASSERT_TRUE(tree.has_value());
    EXPECT_NE(std::find(tree->edges.begin(), tree->edges.end(), e),
              tree->edges.end());
    if (steiner::IsProperSteinerTree(qg.graph, *tree, qg.keyword_nodes)) {
      proper.push_back(std::move(*tree));
    }
  }
  ASSERT_GE(proper.size(), 3u);
  ASSERT_LT(proper.size(), gold.size());
  const auto cheapest =
      std::min_element(proper.begin(), proper.end(), steiner::TreeLess);
  ASSERT_NE(cheapest, proper.begin());
  ASSERT_NE(cheapest, proper.end() - 1);

  auto join = user.SolveEndorsedJoinTree(qg, *weights_);
  ASSERT_TRUE(join.has_value());
  EXPECT_EQ(join->edges, cheapest->edges);
  EXPECT_EQ(join->cost, cheapest->cost);
  EXPECT_TRUE(user.IsGoldConsistent(qg, *join));
}

// The intent tree pins each keyword to its cheapest match edge. Without a
// gold path between the two pinned relations there is no proper answer,
// although the unpinned gold-consistent answer exists; the second gold
// association joins them.
TEST_F(SimulatedUserTest, SolveIntentTreePinsEachKeywordToItsCheapestMatch) {
  SimulatedUser user(dataset_.gold_edges);
  const std::vector<std::string> keywords = {"go term name", "entry"};
  {
    auto qg = BuildQg(keywords);
    EXPECT_FALSE(user.SolveIntentTree(qg, *weights_).has_value());
    EXPECT_TRUE(user.SolveEndorsedTree(qg, *weights_).has_value());
  }
  AddGoldAssociation(1, 0.9);
  auto qg = BuildQg(keywords);
  auto intent = user.SolveIntentTree(qg, *weights_);
  ASSERT_TRUE(intent.has_value());
  EXPECT_TRUE(
      steiner::IsProperSteinerTree(qg.graph, *intent, qg.keyword_nodes));
  EXPECT_TRUE(user.IsGoldConsistent(qg, *intent));
  for (graph::NodeId kw : qg.keyword_nodes) {
    graph::EdgeId cheapest = graph::kInvalidEdge;
    for (graph::EdgeId e : qg.graph.edges_of(kw)) {
      if (qg.graph.edge(e).kind != graph::EdgeKind::kKeywordMatch) continue;
      if (cheapest == graph::kInvalidEdge ||
          qg.graph.EdgeCost(e, *weights_) <
              qg.graph.EdgeCost(cheapest, *weights_)) {
        cheapest = e;
      }
    }
    std::vector<graph::EdgeId> used;
    for (graph::EdgeId e : intent->edges) {
      const graph::EdgeView edge = qg.graph.edge(e);
      if (edge.u == kw || edge.v == kw) used.push_back(e);
    }
    EXPECT_EQ(used, std::vector<graph::EdgeId>{cheapest})
        << qg.graph.node(kw).label;
  }
  // Pinning costs the unpinned optimum its cheaper entry-name route.
  auto endorsed = user.SolveEndorsedTree(qg, *weights_);
  ASSERT_TRUE(endorsed.has_value());
  EXPECT_LT(endorsed->cost, intent->cost);
}

}  // namespace
}  // namespace q::feedback
