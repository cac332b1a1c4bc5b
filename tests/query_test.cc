#include <gtest/gtest.h>

#include <memory>

#include "data/interpro_go.h"
#include "graph/cost_model.h"
#include "graph/graph_builder.h"
#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "query/query_graph.h"
#include "query/ranked_union.h"
#include "query/view.h"
#include "reference_executor.h"
#include "steiner/top_k.h"
#include "text/text_index.h"

namespace q::query {
namespace {

// Shared fixture: the InterPro-GO dataset with FKs declared (so the
// search graph is connected without running matchers).
class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::InterProGoConfig config;
    config.declare_foreign_keys = true;
    config.num_go_terms = 80;
    config.num_entries = 60;
    config.num_pubs = 50;
    config.num_journals = 10;
    config.num_methods = 40;
    config.interpro2go_links = 120;
    config.entry2pub_links = 100;
    config.method2pub_links = 80;
    dataset_ = data::BuildInterProGo(config);
    model_ = std::make_unique<graph::CostModel>(&space_,
                                                graph::CostModelConfig{});
    weights_ = std::make_unique<graph::WeightVector>(&space_);
    graph_ = graph::BuildSearchGraph(dataset_.catalog, model_.get());
    index_.IndexCatalog(dataset_.catalog);
  }

  util::Result<QueryGraph> Build(const std::vector<std::string>& keywords) {
    return BuildQueryGraph(graph_, index_, keywords, model_.get(),
                           QueryGraphOptions{});
  }

  data::InterProGoDataset dataset_;
  graph::FeatureSpace space_;
  std::unique_ptr<graph::CostModel> model_;
  std::unique_ptr<graph::WeightVector> weights_;
  graph::SearchGraph graph_;
  text::TextIndex index_;
};

TEST_F(QueryTest, QueryGraphAddsKeywordNodes) {
  auto qg = Build({"go term", "pub title"});
  ASSERT_TRUE(qg.ok());
  EXPECT_EQ(qg->keyword_nodes.size(), 2u);
  for (graph::NodeId kw : qg->keyword_nodes) {
    EXPECT_EQ(qg->graph.node(kw).kind, graph::NodeKind::kKeyword);
    EXPECT_FALSE(qg->graph.edges_of(kw).empty());
  }
  // The base graph is embedded unchanged (node-id stable).
  EXPECT_GE(qg->graph.num_nodes(), graph_.num_nodes() + 2);
}

TEST_F(QueryTest, ValueKeywordMaterializesValueNode) {
  auto qg = Build({"plasma membrane"});
  ASSERT_TRUE(qg.ok());
  // tf-idf matching legitimately returns partial value matches as well
  // ("membrane", "plasma", ...); the exact value must be among them, with
  // a zero-cost membership link to its attribute node.
  bool found_exact = false;
  for (graph::EdgeId eid : qg->graph.edges_of(qg->keyword_nodes[0])) {
    const graph::EdgeView e = qg->graph.edge(eid);
    graph::NodeId target_id = e.Other(qg->keyword_nodes[0]);
    const graph::Node& target = qg->graph.node(target_id);
    if (target.kind != graph::NodeKind::kValue) continue;
    if (qg->graph.node_value_text(target_id) == "plasma membrane" &&
        target.attr.attribute == "name") {
      found_exact = true;
      bool has_membership = false;
      for (graph::EdgeId me : qg->graph.edges_of(target_id)) {
        if (qg->graph.edge(me).kind ==
            graph::EdgeKind::kValueMembership) {
          has_membership = true;
          EXPECT_DOUBLE_EQ(qg->graph.EdgeCost(me, *weights_), 0.0);
        }
      }
      EXPECT_TRUE(has_membership);
    }
  }
  EXPECT_TRUE(found_exact);
}

TEST_F(QueryTest, UnmatchableKeywordFails) {
  auto qg = Build({"qwertyuiopxyz"});
  ASSERT_FALSE(qg.ok());
  EXPECT_TRUE(qg.status().IsNotFound());
}

// A query graph is its base graph plus the keyword overlay: every base
// node and edge keeps its id, kind, endpoints and features, association
// edges included whatever they cost and features mutated in place
// included, and the overlay's nodes and edges follow the base's ids.
TEST_F(QueryTest, QueryGraphKeepsBaseIds) {
  auto a = graph_.FindAttributeNode(
      relational::AttributeId{"go", "go_term", "name"});
  auto b = graph_.FindAttributeNode(
      relational::AttributeId{"interpro", "entry", "name"});
  ASSERT_TRUE(a.has_value() && b.has_value());
  // A low-confidence (expensive) association, then a vote that rewrites
  // its features in place.
  const graph::EdgeId assoc = graph_.AddAssociationEdge(
      *a, *b,
      model_->AssociationFeatures("mad", 0.05, "go.go_term",
                                  "interpro.entry", "k"),
      graph::MatcherScore{"mad", 0.05});
  graph_.SetEdgeFeatures(
      assoc, model_->AssociationFeatures("metadata", 0.9, "go.go_term",
                                         "interpro.entry", "k"));

  auto qg = Build({"go term", "pub title"});
  ASSERT_TRUE(qg.ok());
  const graph::SearchGraph& out = qg->graph;
  ASSERT_GT(out.num_nodes(), graph_.num_nodes());
  for (graph::NodeId n = 0; n < graph_.num_nodes(); ++n) {
    EXPECT_EQ(out.node(n).kind, graph_.node(n).kind) << n;
    EXPECT_EQ(out.node(n).label, graph_.node(n).label) << n;
    EXPECT_TRUE(out.node(n).attr == graph_.node(n).attr) << n;
  }
  ASSERT_GT(out.num_edges(), graph_.num_edges());
  for (graph::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const graph::EdgeView want = graph_.edge(e);
    const graph::EdgeView got = out.edge(e);
    EXPECT_EQ(got.kind, want.kind) << e;
    EXPECT_EQ(got.u, want.u) << e;
    EXPECT_EQ(got.v, want.v) << e;
    EXPECT_TRUE(got.features() == want.features()) << e;
  }
  EXPECT_EQ(out.edge(assoc).kind, graph::EdgeKind::kAssociation);
  for (graph::EdgeId e = graph_.num_edges(); e < out.num_edges(); ++e) {
    const graph::EdgeKind kind = out.edge(e).kind;
    EXPECT_TRUE(kind == graph::EdgeKind::kKeywordMatch ||
                kind == graph::EdgeKind::kValueMembership)
        << e;
  }
  for (graph::NodeId kw : qg->keyword_nodes) {
    EXPECT_GE(kw, graph_.num_nodes());
  }
}

TEST_F(QueryTest, CompileTreeProducesJoinQuery) {
  auto qg = Build({"go term name", "pub title"});
  ASSERT_TRUE(qg.ok());
  steiner::TopKConfig topk;
  topk.k = 1;
  auto trees = steiner::TopKSteinerTrees(qg->graph, *weights_,
                                         qg->keyword_nodes, topk);
  ASSERT_FALSE(trees.empty());
  auto cq = CompileTree(*qg, trees[0], *weights_);
  ASSERT_TRUE(cq.ok());
  EXPECT_FALSE(cq->atoms.empty());
  EXPECT_FALSE(cq->select_list.empty());
  EXPECT_GT(cq->cost, 0.0);
  std::string sql = cq->ToSql();
  EXPECT_NE(sql.find("SELECT"), std::string::npos);
  EXPECT_NE(sql.find("FROM"), std::string::npos);
}

TEST_F(QueryTest, ExecutorJoinsAlongForeignKeys) {
  // go term name 'plasma membrane' publication titles (the Fig. 3 query).
  auto qg = Build({"plasma membrane", "pub title"});
  ASSERT_TRUE(qg.ok());
  steiner::TopKConfig topk;
  topk.k = 5;
  auto trees = steiner::TopKSteinerTrees(qg->graph, *weights_,
                                         qg->keyword_nodes, topk);
  ASSERT_FALSE(trees.empty());
  Executor executor(&dataset_.catalog);
  bool any_rows = false;
  for (const auto& tree : trees) {
    auto cq = CompileTree(*qg, tree, *weights_);
    ASSERT_TRUE(cq.ok());
    auto rows = executor.Execute(*cq);
    ASSERT_TRUE(rows.ok()) << rows.status();
    if (!rows->empty()) {
      any_rows = true;
      for (const auto& row : *rows) {
        EXPECT_EQ(row.size(), cq->select_list.size());
      }
    }
  }
  EXPECT_TRUE(any_rows);
}

TEST_F(QueryTest, ExecutorAppliesSelections) {
  // A direct query on go_term with a value predicate.
  ConjunctiveQuery cq;
  cq.atoms = {"go.go_term"};
  cq.selections = {{relational::AttributeId{"go", "go_term", "name"},
                    "plasma membrane"}};
  cq.select_list = {{relational::AttributeId{"go", "go_term", "acc"},
                     "acc"},
                    {relational::AttributeId{"go", "go_term", "name"},
                     "name"}};
  Executor executor(&dataset_.catalog);
  auto rows = executor.Execute(cq);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);  // generator seeds exactly one such term
  EXPECT_EQ((*rows)[0][1].ToText(), "plasma membrane");
}

TEST_F(QueryTest, ExecutorJoinMatchesManualCount) {
  // join interpro2go with go_term on acc = go_id; count must equal a
  // nested-loop reference count.
  ConjunctiveQuery cq;
  cq.atoms = {"go.go_term", "interpro.interpro2go"};
  cq.joins = {{relational::AttributeId{"go", "go_term", "acc"},
               relational::AttributeId{"interpro", "interpro2go", "go_id"}}};
  cq.select_list = {{relational::AttributeId{"go", "go_term", "acc"},
                     "acc"}};
  Executor executor(&dataset_.catalog);
  auto rows = executor.Execute(cq);
  ASSERT_TRUE(rows.ok());

  auto go_table = dataset_.catalog.FindTable("go.go_term");
  auto i2g = dataset_.catalog.FindTable("interpro.interpro2go");
  std::size_t expected = 0;
  for (const auto& r1 : go_table->rows()) {
    for (const auto& r2 : i2g->rows()) {
      if (r1[0].ToText() == r2[0].ToText()) ++expected;
    }
  }
  EXPECT_EQ(rows->size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST_F(QueryTest, ExecutorAppliesResidualJoinConditionsOnCycles) {
  // A cyclic join graph: i2g joins go_term on acc=go_id AND (artificially)
  // requires i2g.entry_ac = entry.entry_ac plus entry joined back to
  // go_term via a name-level condition. The third condition closes a
  // cycle and must be applied as a residual filter.
  ConjunctiveQuery cq;
  cq.atoms = {"go.go_term", "interpro.entry", "interpro.interpro2go"};
  cq.joins = {
      {relational::AttributeId{"go", "go_term", "acc"},
       relational::AttributeId{"interpro", "interpro2go", "go_id"}},
      {relational::AttributeId{"interpro", "interpro2go", "entry_ac"},
       relational::AttributeId{"interpro", "entry", "entry_ac"}},
      // Cycle-closing condition (rarely true on synthetic data).
      {relational::AttributeId{"go", "go_term", "name"},
       relational::AttributeId{"interpro", "entry", "name"}}};
  cq.select_list = {
      {relational::AttributeId{"go", "go_term", "acc"}, "acc"}};
  Executor executor(&dataset_.catalog);
  auto rows = executor.Execute(cq);
  ASSERT_TRUE(rows.ok()) << rows.status();

  // Reference: brute-force triple nested loop.
  auto go_table = dataset_.catalog.FindTable("go.go_term");
  auto entry = dataset_.catalog.FindTable("interpro.entry");
  auto i2g = dataset_.catalog.FindTable("interpro.interpro2go");
  std::size_t expected = 0;
  for (const auto& rg : go_table->rows()) {
    for (const auto& ri : i2g->rows()) {
      if (rg[0].ToText() != ri[0].ToText()) continue;
      for (const auto& re : entry->rows()) {
        if (ri[1].ToText() != re[0].ToText()) continue;
        if (rg[1].ToText() != re[1].ToText()) continue;
        ++expected;
      }
    }
  }
  EXPECT_EQ(rows->size(), expected);
}

TEST_F(QueryTest, ExecutorMaxRowsGuard) {
  ConjunctiveQuery cq;
  cq.atoms = {"go.go_term", "interpro.pub"};  // no join: cartesian
  cq.select_list = {{relational::AttributeId{"go", "go_term", "acc"},
                     "acc"}};
  ExecutorOptions options;
  options.max_rows = 10;
  Executor executor(&dataset_.catalog, options);
  auto rows = executor.Execute(cq);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsOutOfRange());
}

TEST_F(QueryTest, ExecutorRejectsQueryWithNoAtoms) {
  ConjunctiveQuery cq;
  cq.select_list = {{relational::AttributeId{"go", "go_term", "acc"},
                     "acc"}};
  Executor executor(&dataset_.catalog);
  auto rows = executor.Execute(cq);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsInvalidArgument()) << rows.status();
  EXPECT_TRUE(
      executor.Execute(ConjunctiveQuery{}).status().IsInvalidArgument());
}

TEST_F(QueryTest, ExecutorSeesRowsAppendedAfterAQuery) {
  // A selection on go_term and a join of go_term with interpro2go; both
  // build column indexes on first use, and AppendRow must drop them.
  ConjunctiveQuery selection;
  selection.atoms = {"go.go_term"};
  selection.selections = {
      {relational::AttributeId{"go", "go_term", "name"}, "plasma membrane"}};
  selection.select_list = {
      {relational::AttributeId{"go", "go_term", "acc"}, "acc"}};
  ConjunctiveQuery join;
  join.atoms = {"go.go_term", "interpro.interpro2go"};
  join.joins = {{relational::AttributeId{"go", "go_term", "acc"},
                 relational::AttributeId{"interpro", "interpro2go", "go_id"}}};
  join.selections = selection.selections;
  join.select_list = {
      {relational::AttributeId{"go", "go_term", "acc"}, "acc"},
      {relational::AttributeId{"interpro", "interpro2go", "entry_ac"},
       "entry_ac"}};

  auto go_term = dataset_.catalog.FindTable("go.go_term");
  auto i2g = dataset_.catalog.FindTable("interpro.interpro2go");
  EXPECT_EQ(go_term->IndexBytes(), 0u);  // nothing queried it yet
  Executor executor(&dataset_.catalog);
  reference::ReferenceExecutor referee(&dataset_.catalog);
  auto before = executor.Execute(selection);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->size(), 1u);
  auto joined_before = executor.Execute(join);
  ASSERT_TRUE(joined_before.ok()) << joined_before.status();
  EXPECT_GT(go_term->IndexBytes(), 0u);
  EXPECT_GT(i2g->IndexBytes(), 0u);

  const relational::Value acc = (*before)[0][0];
  ASSERT_TRUE(go_term
                  ->AppendRow({relational::Value("GO:9999999"),
                               relational::Value("plasma membrane"),
                               relational::Value("cellular_component"),
                               relational::Value("appended")})
                  .ok());
  ASSERT_TRUE(i2g->AppendRow({acc, relational::Value("IPR999999")}).ok());
  EXPECT_EQ(go_term->IndexBytes(), 0u);
  EXPECT_EQ(i2g->IndexBytes(), 0u);

  auto after = executor.Execute(selection);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->size(), 2u);
  EXPECT_EQ((*after)[0][0], acc);
  EXPECT_EQ((*after)[1][0].ToText(), "GO:9999999");
  auto joined_after = executor.Execute(join);
  ASSERT_TRUE(joined_after.ok()) << joined_after.status();
  ASSERT_EQ(joined_after->size(), joined_before->size() + 1);
  EXPECT_EQ(joined_after->back()[1].ToText(), "IPR999999");

  auto want = referee.Execute(selection);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*after, *want);
  auto joined_want = referee.Execute(join);
  ASSERT_TRUE(joined_want.ok());
  EXPECT_EQ(*joined_after, *joined_want);
}

TEST_F(QueryTest, DisjointUnionUnifiesCompatibleColumns) {
  auto qg = Build({"go term name"});
  ASSERT_TRUE(qg.ok());

  ConjunctiveQuery q1;
  q1.cost = 1.0;
  q1.select_list = {{relational::AttributeId{"go", "go_term", "name"},
                     "name"}};
  ConjunctiveQuery q2;
  q2.cost = 2.0;
  q2.select_list = {{relational::AttributeId{"interpro", "entry", "name"},
                     "name"}};
  std::vector<std::vector<relational::Row>> rows{
      {{relational::Value("alpha")}}, {{relational::Value("beta")}}};
  auto unified = DisjointUnion(*qg, *weights_, {q1, q2}, rows, 2.0);
  // Labels match ("name"), so both land in one column.
  ASSERT_EQ(unified.columns.size(), 1u);
  ASSERT_EQ(unified.rows.size(), 2u);
  EXPECT_EQ(unified.rows[0].values[0].ToText(), "alpha");
  EXPECT_EQ(unified.rows[0].query_index, 0u);
  EXPECT_EQ(unified.rows[1].values[0].ToText(), "beta");
}

TEST_F(QueryTest, DisjointUnionKeepsIncompatibleColumnsApart) {
  auto qg = Build({"go term name"});
  ASSERT_TRUE(qg.ok());
  ConjunctiveQuery q1;
  q1.cost = 1.0;
  q1.select_list = {{relational::AttributeId{"go", "go_term", "acc"},
                     "acc"}};
  ConjunctiveQuery q2;
  q2.cost = 2.0;
  q2.select_list = {{relational::AttributeId{"interpro", "pub", "title"},
                     "title"}};
  std::vector<std::vector<relational::Row>> rows{
      {{relational::Value("GO:1")}}, {{relational::Value("some title")}}};
  auto unified = DisjointUnion(*qg, *weights_, {q1, q2}, rows, 2.0);
  ASSERT_EQ(unified.columns.size(), 2u);
  EXPECT_TRUE(unified.rows[1].values[0].is_null());  // padded
}

TEST_F(QueryTest, ViewRefreshEndToEnd) {
  ViewConfig config;
  config.top_k.k = 3;
  TopKView view({"plasma membrane", "pub title"}, config);
  EXPECT_FALSE(view.refreshed());
  ASSERT_TRUE(view.Refresh(graph_, dataset_.catalog, index_, model_.get(),
                           *weights_)
                  .ok());
  EXPECT_TRUE(view.refreshed());
  EXPECT_FALSE(view.trees().empty());
  EXPECT_EQ(view.queries().size(), view.trees().size());
  EXPECT_FALSE(view.results().columns.empty());
  // Results come back ranked.
  const auto& rows = view.results().rows;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].cost, rows[i].cost);
  }
  // Alpha is the cost of the k-th top-scoring answer (k = 3 here), or
  // infinity when fewer answers exist.
  if (rows.size() >= 3u) {
    EXPECT_DOUBLE_EQ(view.Alpha(), rows[2].cost);
  } else {
    EXPECT_TRUE(std::isinf(view.Alpha()));
  }
}

}  // namespace
}  // namespace q::query
