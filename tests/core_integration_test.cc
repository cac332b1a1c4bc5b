#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/q_system.h"
#include "data/gbco.h"
#include "data/interpro_go.h"
#include "learn/evaluation.h"

namespace q::core {
namespace {

data::InterProGoConfig SmallDataset() {
  data::InterProGoConfig config;
  config.num_go_terms = 80;
  config.num_entries = 60;
  config.num_pubs = 50;
  config.num_journals = 10;
  config.num_methods = 40;
  config.interpro2go_links = 120;
  config.entry2pub_links = 100;
  config.method2pub_links = 80;
  return config;
}

// Splits the interpro source so one table can be registered later as a
// "new source".
std::shared_ptr<relational::DataSource> ExtractTableAsSource(
    const relational::Catalog& catalog, const std::string& relation) {
  auto table = catalog.FindTable("interpro." + relation);
  EXPECT_NE(table, nullptr);
  auto source = std::make_shared<relational::DataSource>("newsrc");
  auto copy = std::make_shared<relational::Table>(relational::RelationSchema(
      "newsrc", relation, table->schema().attributes()));
  for (const auto& row : table->rows()) {
    EXPECT_TRUE(copy->AppendRow(row).ok());
  }
  EXPECT_TRUE(source->AddTable(copy).ok());
  return source;
}

TEST(QSystemTest, RegisterSourcesBuildsGraphAndIndex) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  EXPECT_EQ(q.catalog().num_relations(), 8u);
  // 8 relation nodes + 28 attribute nodes.
  EXPECT_EQ(q.search_graph().num_nodes(), 36u);
  EXPECT_GT(q.text_index().num_documents(), 36u);
  // Duplicate registration rejected.
  EXPECT_TRUE(
      q.RegisterSource(dataset.catalog.sources()[0]).IsAlreadyExists());
}

TEST(QSystemTest, InitialAlignmentRecoverGoldEdges) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  auto pr = learn::EvaluateGraphAssociations(
      q.search_graph(), q.weights(), dataset.gold_edges,
      std::numeric_limits<double>::infinity());
  // With both matchers at Y=2 the union must reach full recall (the
  // premise of Sec. 5.2.2's learning experiments).
  EXPECT_EQ(pr.recall(), 1.0);
  EXPECT_GT(pr.predicted, 8u);  // some false positives, as in the paper
}

TEST(QSystemTest, ViewOverAlignedGraphReturnsAnswers) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  auto view_id = q.CreateView({"plasma membrane", "pub title"});
  ASSERT_TRUE(view_id.ok()) << view_id.status();
  const auto& view = q.view(*view_id);
  EXPECT_FALSE(view.trees().empty());
  EXPECT_FALSE(view.results().columns.empty());
}

TEST(QSystemTest, GoldFeedbackWidensCostGap) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());

  feedback::SimulatedUser user(dataset.gold_edges);
  auto before =
      learn::MeasureGoldCostGap(q.search_graph(), q.weights(),
                                dataset.gold_edges);

  std::size_t applied = 0;
  for (const auto& keywords : dataset.keyword_queries) {
    auto view_id = q.CreateView(keywords);
    if (!view_id.ok()) continue;
    auto result = q.ApplyGoldFeedback(*view_id, user);
    ASSERT_TRUE(result.ok()) << result.status();
    if (*result) ++applied;
  }
  ASSERT_GT(applied, 3u);

  auto after = learn::MeasureGoldCostGap(q.search_graph(), q.weights(),
                                         dataset.gold_edges);
  // Feedback must push gold edges down relative to non-gold (Fig. 12).
  double gap_before = before.non_gold_mean - before.gold_mean;
  double gap_after = after.non_gold_mean - after.gold_mean;
  EXPECT_GT(gap_after, gap_before);
}

TEST(QSystemTest, NewSourceRegistrationAffectsView) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  // Hold out the journal table; start with the remaining 7.
  QSystem q;
  auto held_out = ExtractTableAsSource(dataset.catalog, "journal");
  for (const auto& src : dataset.catalog.sources()) {
    if (src->name() == "go") {
      ASSERT_TRUE(q.RegisterSource(src).ok());
    } else {
      auto partial = std::make_shared<relational::DataSource>("interpro");
      for (const auto& t : src->tables()) {
        if (t->schema().relation() != "journal") {
          ASSERT_TRUE(partial->AddTable(t).ok());
        }
      }
      ASSERT_TRUE(q.RegisterSource(partial).ok());
    }
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  auto view_id = q.CreateView({"pub title", "entry name"});
  ASSERT_TRUE(view_id.ok()) << view_id.status();
  std::size_t assoc_before =
      q.search_graph().EdgesOfKind(graph::EdgeKind::kAssociation).size();

  auto stats = q.RegisterAndAlignSource(held_out);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->matcher_calls, 0u);
  std::size_t assoc_after =
      q.search_graph().EdgesOfKind(graph::EdgeKind::kAssociation).size();
  // The new source's journal_id should have aligned with pub.journal_id.
  EXPECT_GT(assoc_after, assoc_before);
  bool found = false;
  for (graph::EdgeId e :
       q.search_graph().EdgesOfKind(graph::EdgeKind::kAssociation)) {
    const graph::EdgeView edge = q.search_graph().edge(e);
    const auto& la = q.search_graph().node(edge.u).label;
    const auto& lb = q.search_graph().node(edge.v).label;
    if ((la == "newsrc.journal.journal_id" &&
         lb == "interpro.pub.journal_id") ||
        (lb == "newsrc.journal.journal_id" &&
         la == "interpro.pub.journal_id")) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(QSystemTest, ViewBasedAndExhaustiveYieldSameViewUpdates) {
  // The Algorithm 2 guarantee: ViewBasedAligner produces the same top-k
  // *answers* as Exhaustive after registering a new source (trees beyond
  // alpha may differ; they cannot place answers in the top k).
  auto run = [&](AlignStrategy strategy) {
    auto dataset = data::BuildInterProGo(SmallDataset());
    QSystemConfig config;
    config.strategy = strategy;
    QSystem q(config);
    auto held_out = ExtractTableAsSource(dataset.catalog, "journal");
    for (const auto& src : dataset.catalog.sources()) {
      if (src->name() == "go") {
        EXPECT_TRUE(q.RegisterSource(src).ok());
      } else {
        auto partial = std::make_shared<relational::DataSource>("interpro");
        for (const auto& t : src->tables()) {
          if (t->schema().relation() != "journal") {
            EXPECT_TRUE(partial->AddTable(t).ok());
          }
        }
        EXPECT_TRUE(q.RegisterSource(partial).ok());
      }
    }
    EXPECT_TRUE(q.RunInitialAlignment().ok());
    auto view_id = q.CreateView({"pub title", "entry name"});
    EXPECT_TRUE(view_id.ok());
    EXPECT_TRUE(q.RegisterAndAlignSource(held_out).ok());
    const auto& view = q.view(*view_id);
    std::size_t k = static_cast<std::size_t>(view.config().top_k.k);
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& row : view.results().rows) {
      if (rows.size() >= k) break;
      std::string values;
      for (const auto& v : row.values) values += v.ToText() + "|";
      rows.emplace_back(row.cost, std::move(values));
    }
    return rows;
  };
  auto exhaustive_rows = run(AlignStrategy::kExhaustive);
  auto view_based_rows = run(AlignStrategy::kViewBased);
  ASSERT_EQ(exhaustive_rows.size(), view_based_rows.size());
  for (std::size_t i = 0; i < exhaustive_rows.size(); ++i) {
    EXPECT_NEAR(exhaustive_rows[i].first, view_based_rows[i].first, 1e-9);
    EXPECT_EQ(exhaustive_rows[i].second, view_based_rows[i].second);
  }
}

TEST(QSystemTest, AgreementBeatsSingleMatcherJunk) {
  // With the per-matcher missing-vote penalty, an association proposed by
  // both matchers must start cheaper than junk proposed by only one, all
  // else equal.
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  match::AlignmentCandidate agreed_meta{
      relational::AttributeId{"interpro", "entry", "entry_ac"},
      relational::AttributeId{"interpro", "entry2pub", "entry_ac"}, 0.8,
      "metadata"};
  match::AlignmentCandidate agreed_mad = agreed_meta;
  agreed_mad.matcher = "mad";
  match::AlignmentCandidate lonely{
      relational::AttributeId{"go", "go_term", "name"},
      relational::AttributeId{"interpro", "pub", "title"}, 0.8, "metadata"};
  ASSERT_TRUE(q.AddAssociations({agreed_meta, agreed_mad, lonely}).ok());

  auto edges = q.search_graph().EdgesOfKind(graph::EdgeKind::kAssociation);
  ASSERT_EQ(edges.size(), 2u);
  double agreed_cost = -1.0;
  double lonely_cost = -1.0;
  for (graph::EdgeId e : edges) {
    double cost = q.search_graph().EdgeCost(e, q.weights());
    if (q.search_graph().edge_provenance(e).size() == 2) {
      agreed_cost = cost;
    } else {
      lonely_cost = cost;
    }
  }
  ASSERT_GT(agreed_cost, 0.0);
  ASSERT_GT(lonely_cost, 0.0);
  EXPECT_LT(agreed_cost, lonely_cost);
}

TEST(QSystemTest, RegistrationKeepsEachMatchersVote) {
  // GBCO as qbench onboard builds it (150 base rows, the sources of the
  // first three trials held out, one view per trial), with synchronous
  // refresh. Both matchers propose probe.gene_id ~ gene.gene_id for the
  // held-out probe source (metadata ~0.88, MAD ~0.47); Sec. 3.4 gives the
  // edge one confidence feature per matcher, so both votes must land and
  // neither matcher's missing-vote penalty may remain.
  data::GbcoConfig data_config;
  data_config.base_rows = 150;
  data::GbcoDataset dataset = data::BuildGbco(data_config);
  std::set<std::string> held;
  for (std::size_t t = 0; t < 3; ++t) {
    held.insert(dataset.trials[t].new_sources.begin(),
                dataset.trials[t].new_sources.end());
  }
  QSystemConfig config;
  config.view.top_k.k = 3;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.strategy = AlignStrategy::kViewBased;
  QSystem q(config);
  std::vector<std::shared_ptr<relational::DataSource>> arrivals;
  for (const auto& src : dataset.catalog.sources()) {
    if (held.count(src->name()) > 0) {
      arrivals.push_back(src);
    } else {
      ASSERT_TRUE(q.RegisterSource(src).ok());
    }
  }
  ASSERT_EQ(arrivals.size(), 7u);
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  for (const auto& trial : dataset.trials) (void)q.CreateView(trial.keywords);
  ASSERT_GT(q.num_views(), 0u);
  for (const auto& src : arrivals) {
    auto stats = q.RegisterAndAlignSource(src);
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  const graph::SearchGraph& g = q.search_graph();
  const graph::FeatureId metadata_missing =
      q.cost_model().MatcherMissingFeature("metadata");
  const graph::FeatureId mad_missing =
      q.cost_model().MatcherMissingFeature("mad");
  std::size_t two_votes_on_new_sources = 0;
  bool found = false;
  for (graph::EdgeId e : g.EdgesOfKind(graph::EdgeKind::kAssociation)) {
    const graph::EdgeView edge = g.edge(e);
    const std::string& la = g.node(edge.u).label;
    const std::string& lb = g.node(edge.v).label;
    bool touches_new = false;
    for (const auto& src : arrivals) {
      const std::string prefix = src->name() + ".";
      touches_new = touches_new || la.rfind(prefix, 0) == 0 ||
                    lb.rfind(prefix, 0) == 0;
    }
    const auto& votes = g.edge_provenance(e);
    if (touches_new && votes.size() == 2) ++two_votes_on_new_sources;
    if (!((la == "probe.probe.gene_id" && lb == "gene.gene.gene_id") ||
          (lb == "probe.probe.gene_id" && la == "gene.gene.gene_id"))) {
      continue;
    }
    found = true;
    ASSERT_EQ(votes.size(), 2u);
    EXPECT_EQ(votes[0].matcher, "metadata");
    EXPECT_EQ(votes[1].matcher, "mad");
    EXPECT_GT(votes[0].confidence, votes[1].confidence);
    EXPECT_EQ(g.edge_features(e).ValueOf(metadata_missing), 0.0);
    EXPECT_EQ(g.edge_features(e).ValueOf(mad_missing), 0.0);
  }
  EXPECT_TRUE(found);
  EXPECT_GT(two_votes_on_new_sources, 1u);
}

TEST(QSystemTest, RepeatedVoteCountsOnce) {
  // One vote per matcher and edge (Sec. 3.4: one confidence feature per
  // matcher). Re-running the initial alignment repeats every vote at the
  // same confidence, which must change nothing: every association edge
  // keeps its features, votes and cost, and the graph its revision. A
  // repeat at a higher confidence moves the edge to that confidence's bin.
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  const graph::SearchGraph& g = q.search_graph();
  const std::vector<graph::EdgeId> edges =
      g.EdgesOfKind(graph::EdgeKind::kAssociation);
  ASSERT_FALSE(edges.empty());
  std::vector<graph::FeatureVec> features;
  std::vector<std::vector<graph::MatcherScore>> votes;
  std::vector<double> costs;
  for (graph::EdgeId e : edges) {
    features.push_back(g.edge_features(e));
    votes.push_back(g.edge_provenance(e));
    costs.push_back(g.EdgeCost(e, q.weights()));
  }
  const std::uint64_t revision = g.revision();

  ASSERT_TRUE(q.RunInitialAlignment().ok());
  EXPECT_EQ(g.revision(), revision);
  ASSERT_EQ(g.EdgesOfKind(graph::EdgeKind::kAssociation), edges);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::string label = g.node(g.edge(edges[i]).u).label + "|" +
                              g.node(g.edge(edges[i]).v).label;
    EXPECT_EQ(g.edge_features(edges[i]), features[i]) << label;
    EXPECT_EQ(g.edge_provenance(edges[i]), votes[i]) << label;
    EXPECT_EQ(g.EdgeCost(edges[i], q.weights()), costs[i]) << label;
  }

  // A lower repeat changes nothing either, not even the feature space:
  // its bin is never interned.
  const graph::EdgeView first = g.edge(edges[0]);
  const std::string lowest_bin = "matcher:" + votes[0][0].matcher + ":bin0";
  graph::FeatureId unused = 0;
  ASSERT_GT(votes[0][0].confidence, 0.1);
  ASSERT_FALSE(q.feature_space().Find(lowest_bin, &unused));
  const std::size_t space_size = q.feature_space().size();
  ASSERT_TRUE(q.AddAssociations({match::AlignmentCandidate{
                                    g.node(first.u).attr, g.node(first.v).attr,
                                    0.0, votes[0][0].matcher}})
                  .ok());
  EXPECT_EQ(g.revision(), revision);
  EXPECT_EQ(q.feature_space().size(), space_size);
  EXPECT_EQ(g.edge_features(edges[0]), features[0]);
  EXPECT_EQ(g.edge_provenance(edges[0]), votes[0]);

  // Raise one metadata vote to confidence 1.0.
  auto bin_of = [&q](double confidence) {
    return q.cost_model().MatcherConfidenceFeature("metadata", confidence)
        .entries()[0]
        .first;
  };
  std::size_t raised = edges.size();
  for (std::size_t i = 0; i < edges.size() && raised == edges.size(); ++i) {
    for (const graph::MatcherScore& vote : votes[i]) {
      if (vote.matcher == "metadata" &&
          bin_of(vote.confidence) != bin_of(1.0)) {
        raised = i;
      }
    }
  }
  ASSERT_LT(raised, edges.size());
  const graph::EdgeView edge = g.edge(edges[raised]);
  graph::FeatureVec want = features[raised];
  std::vector<graph::MatcherScore> want_votes = votes[raised];
  for (graph::MatcherScore& vote : want_votes) {
    if (vote.matcher != "metadata") continue;
    ASSERT_TRUE(want.Remove(bin_of(vote.confidence)));
    want.Add(bin_of(1.0), 1.0);
    vote.confidence = 1.0;
  }
  ASSERT_TRUE(q.AddAssociations({match::AlignmentCandidate{
                                    g.node(edge.u).attr, g.node(edge.v).attr,
                                    1.0, "metadata"}})
                  .ok());
  EXPECT_GT(g.revision(), revision);
  EXPECT_EQ(g.edge_features(edges[raised]), want);
  EXPECT_EQ(g.edge_provenance(edges[raised]), want_votes);
  EXPECT_LT(g.EdgeCost(edges[raised], q.weights()), costs[raised]);
}

TEST(QSystemTest, InvalidAndRankingFeedback) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  auto view_id = q.CreateView({"plasma membrane", "pub title"});
  ASSERT_TRUE(view_id.ok());
  const auto& rows = q.view(*view_id).results().rows;
  if (rows.size() < 2) GTEST_SKIP() << "not enough answers to rank";

  // Find two rows from different queries.
  std::size_t other = rows.size();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].query_index != rows[0].query_index) {
      other = i;
      break;
    }
  }
  if (other == rows.size()) GTEST_SKIP() << "single-query result set";

  // Marking the top row invalid must push its query out of first place
  // (queries are recompiled on refresh; identify them by SQL text).
  std::string bad_sql =
      q.view(*view_id).queries()[rows[0].query_index].ToSql();
  ASSERT_TRUE(q.ApplyInvalidFeedback(*view_id, 0).ok());
  const auto& after = q.view(*view_id);
  if (!after.results().rows.empty()) {
    std::string new_top_sql =
        after.queries()[after.results().rows[0].query_index].ToSql();
    EXPECT_NE(new_top_sql, bad_sql);
  }

  // Ranking feedback across identical queries is rejected.
  auto same = q.ApplyRankingFeedback(*view_id, 0, 0);
  EXPECT_FALSE(same.ok());
  // Out-of-range rows are rejected.
  EXPECT_TRUE(q.ApplyInvalidFeedback(*view_id, 1u << 20).IsOutOfRange());
  EXPECT_TRUE(q.ApplyRankingFeedback(99, 0, 1).IsInvalidArgument());
}

#if GTEST_HAS_DEATH_TEST
// An id that names no view aborts with a message instead of reading past
// the end of the view table, through both overloads.
TEST(QSystemDeathTest, ViewAbortsOnUnknownId) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  auto view_id = q.CreateView({"plasma membrane", "pub title"});
  ASSERT_TRUE(view_id.ok());
  ASSERT_EQ(q.num_views(), 1u);
  EXPECT_DEATH(q.view(1), "no such view: 1");
  const QSystem& const_q = q;
  EXPECT_DEATH(const_q.view(1u << 20), "no such view: 1048576");
  EXPECT_TRUE(q.QueryView(1).status().IsInvalidArgument());
}
#endif

TEST(QSystemTest, FeedbackLogRecordsInteractions) {
  auto dataset = data::BuildInterProGo(SmallDataset());
  QSystem q;
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  feedback::SimulatedUser user(dataset.gold_edges);
  auto view_id = q.CreateView(dataset.keyword_queries[0]);
  ASSERT_TRUE(view_id.ok());
  EXPECT_TRUE(q.feedback_log().empty());
  auto result = q.ApplyGoldFeedback(*view_id, user);
  ASSERT_TRUE(result.ok());
  if (*result) {
    EXPECT_EQ(q.feedback_log().size(), 1u);
  }
}

}  // namespace
}  // namespace q::core
