#include <gtest/gtest.h>

#include <memory>

#include "core/q_system.h"
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
