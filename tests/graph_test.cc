#include <gtest/gtest.h>

#include <memory>

#include "graph/cost_model.h"
#include "graph/feature.h"
#include "graph/graph_builder.h"
#include "graph/search_graph.h"
#include "relational/catalog.h"

namespace q::graph {
namespace {

using relational::AttributeDef;
using relational::AttributeId;
using relational::Catalog;
using relational::DataSource;
using relational::ForeignKey;
using relational::RelationSchema;
using relational::Table;
using relational::ValueType;

TEST(FeatureSpaceTest, DefaultFeatureIsIdZero) {
  FeatureSpace space;
  EXPECT_EQ(space.size(), 1u);
  EXPECT_EQ(space.name(FeatureSpace::kDefaultFeature), "default");
  FeatureId id = space.Intern("default", 99.0);
  EXPECT_EQ(id, FeatureSpace::kDefaultFeature);
  // First creation wins; "default" existed already with weight 0.
  EXPECT_DOUBLE_EQ(space.initial_weight(id), 0.0);
}

TEST(FeatureSpaceTest, InternIsIdempotent) {
  FeatureSpace space;
  FeatureId a = space.Intern("fk", 1.5);
  FeatureId b = space.Intern("fk", 7.0);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(space.initial_weight(a), 1.5);
  FeatureId found;
  EXPECT_TRUE(space.Find("fk", &found));
  EXPECT_EQ(found, a);
  EXPECT_FALSE(space.Find("missing", &found));
}

TEST(FeatureVecTest, AddMergesAndSorts) {
  FeatureVec f;
  f.Add(5, 1.0);
  f.Add(2, 0.5);
  f.Add(5, 1.0);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.entries()[0].first, 2u);
  EXPECT_DOUBLE_EQ(f.ValueOf(5), 2.0);
  EXPECT_DOUBLE_EQ(f.ValueOf(99), 0.0);
}

TEST(FeatureVecTest, RemoveDropsEntry) {
  FeatureVec f;
  f.Add(2, 1.0);
  f.Add(7, 3.0);
  EXPECT_TRUE(f.Remove(2));
  EXPECT_FALSE(f.Remove(2));
  EXPECT_FALSE(f.Remove(99));
  EXPECT_DOUBLE_EQ(f.ValueOf(2), 0.0);
  EXPECT_DOUBLE_EQ(f.ValueOf(7), 3.0);
  EXPECT_EQ(f.size(), 1u);
}

TEST(FeatureVecTest, AddScaled) {
  FeatureVec a;
  a.Add(1, 1.0);
  FeatureVec b;
  b.Add(1, 2.0);
  b.Add(3, 4.0);
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a.ValueOf(1), 2.0);
  EXPECT_DOUBLE_EQ(a.ValueOf(3), 2.0);
}

TEST(WeightVectorTest, UnseenIdsReadInitialWeight) {
  FeatureSpace space;
  FeatureId fk = space.Intern("fk", 1.5);
  WeightVector w(&space);
  EXPECT_DOUBLE_EQ(w.At(fk), 1.5);
  w.Nudge(fk, 0.5);
  EXPECT_DOUBLE_EQ(w.At(fk), 2.0);
  w.ResetToInitial();
  EXPECT_DOUBLE_EQ(w.At(fk), 1.5);
}

TEST(WeightVectorTest, MaterializedPricesLikeTheLiveVectorWithoutJournal) {
  FeatureSpace space;
  FeatureId a = space.Intern("a", 2.0);
  FeatureId b = space.Intern("b", 3.0);
  WeightVector w(&space);
  w.Nudge(a, 0.5);
  w.Nudge(a, 0.25);
  const WeightVector copy = w.Materialized();
  EXPECT_EQ(copy.revision(), w.revision());
  // Every interned id is dense in the copy, the unset one at its initial
  // weight, so pricing with it never reads the space.
  ASSERT_EQ(copy.values().size(), space.size());
  EXPECT_DOUBLE_EQ(copy.At(a), 2.75);
  EXPECT_DOUBLE_EQ(copy.At(b), 3.0);
  EXPECT_DOUBLE_EQ(copy.At(FeatureSpace::kDefaultFeature),
                   w.At(FeatureSpace::kDefaultFeature));
  // No journal: only its own revision is answerable.
  std::vector<FeatureDelta> deltas;
  EXPECT_TRUE(w.DeltaSince(0, &deltas));
  EXPECT_EQ(deltas.size(), 2u);
  deltas.clear();
  EXPECT_FALSE(copy.DeltaSince(0, &deltas));
  EXPECT_TRUE(copy.DeltaSince(copy.revision(), &deltas));
  EXPECT_TRUE(deltas.empty());
  // Features interned later are read from the space, as on any copy.
  FeatureId c = space.Intern("c", 4.0);
  EXPECT_DOUBLE_EQ(copy.At(c), 4.0);
}

TEST(WeightVectorTest, DotProduct) {
  FeatureSpace space;
  FeatureId a = space.Intern("a", 2.0);
  FeatureId b = space.Intern("b", 3.0);
  WeightVector w(&space);
  FeatureVec f;
  f.Add(a, 1.0);
  f.Add(b, 2.0);
  EXPECT_DOUBLE_EQ(w.Dot(f), 2.0 + 6.0);
}

TEST(BinningTest, EdgesAndCenters) {
  EXPECT_EQ(BinIndex(-0.1, 10), 0);
  EXPECT_EQ(BinIndex(0.0, 10), 0);
  EXPECT_EQ(BinIndex(0.05, 10), 0);
  EXPECT_EQ(BinIndex(0.95, 10), 9);
  EXPECT_EQ(BinIndex(1.0, 10), 9);
  EXPECT_EQ(BinIndex(1.5, 10), 9);
  EXPECT_DOUBLE_EQ(BinCenter(0, 10), 0.05);
  EXPECT_DOUBLE_EQ(BinCenter(9, 10), 0.95);
}

Catalog TwoTableCatalog() {
  Catalog catalog;
  auto s1 = std::make_shared<DataSource>("go");
  auto t1 = std::make_shared<Table>(
      RelationSchema("go", "go_term",
                     {{"acc", ValueType::kString},
                      {"name", ValueType::kString}}));
  EXPECT_TRUE(s1->AddTable(t1).ok());
  auto s2 = std::make_shared<DataSource>("interpro");
  auto schema = RelationSchema("interpro", "interpro2go",
                               {{"go_id", ValueType::kString},
                                {"entry_ac", ValueType::kString}});
  schema.AddForeignKey(ForeignKey{"go_id", "go", "go_term", "acc"});
  auto t2 = std::make_shared<Table>(schema);
  EXPECT_TRUE(s2->AddTable(t2).ok());
  EXPECT_TRUE(catalog.AddSource(s1).ok());
  EXPECT_TRUE(catalog.AddSource(s2).ok());
  return catalog;
}

TEST(GraphBuilderTest, BuildsNodesAndMembershipEdges) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);

  // 2 relations + 4 attributes.
  EXPECT_EQ(g.num_nodes(), 6u);
  // 4 membership edges + 1 FK edge.
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.EdgesOfKind(EdgeKind::kMembership).size(), 4u);
  EXPECT_EQ(g.EdgesOfKind(EdgeKind::kForeignKey).size(), 1u);

  auto rel = g.FindRelationNode("go.go_term");
  ASSERT_TRUE(rel.has_value());
  auto attr = g.FindAttributeNode(AttributeId{"go", "go_term", "acc"});
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(g.OwningRelation(*attr), rel);
}

TEST(GraphBuilderTest, ForeignKeyEdgeCarriesJoinAttributes) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);
  auto fks = g.EdgesOfKind(EdgeKind::kForeignKey);
  ASSERT_EQ(fks.size(), 1u);
  const EdgeView fk = g.edge(fks[0]);
  EXPECT_EQ(fk.join_a().ToString(), "interpro.interpro2go.go_id");
  EXPECT_EQ(fk.join_b().ToString(), "go.go_term.acc");
}

TEST(GraphBuilderTest, IdempotentReAdd) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);
  std::size_t nodes = g.num_nodes();
  std::size_t edges = g.num_edges();
  AddSourceToGraph(*catalog.FindSource("interpro"), &model, &g);
  EXPECT_EQ(g.num_nodes(), nodes);
  EXPECT_EQ(g.num_edges(), edges);
}

TEST(SearchGraphTest, EdgeCostsFromFeatures) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModelConfig config;
  config.default_cost = 0.1;
  config.foreign_key_cost = 1.0;
  CostModel model(&space, config);
  SearchGraph g = BuildSearchGraph(catalog, &model);
  WeightVector w(&space);

  for (EdgeId e : g.EdgesOfKind(EdgeKind::kMembership)) {
    EXPECT_DOUBLE_EQ(g.EdgeCost(e, w), 0.0);
  }
  for (EdgeId e : g.EdgesOfKind(EdgeKind::kForeignKey)) {
    EXPECT_NEAR(g.EdgeCost(e, w), 1.1, 1e-9);  // default + fk weights
  }
}

TEST(SearchGraphTest, AssociationDedupeMergesProvenance) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);
  auto a = g.FindAttributeNode(AttributeId{"go", "go_term", "acc"});
  auto b = g.FindAttributeNode(
      AttributeId{"interpro", "interpro2go", "go_id"});
  ASSERT_TRUE(a.has_value() && b.has_value());

  FeatureVec f1 = model.AssociationFeatures("mad", 0.9, "go.go_term",
                                            "interpro.interpro2go", "k");
  EdgeId e1 = g.AddAssociationEdge(*a, *b, f1, MatcherScore{"mad", 0.9});
  FeatureVec f2 = model.MatcherConfidenceFeature("metadata", 0.6);
  EdgeId e2 = g.AddAssociationEdge(*b, *a, f2, MatcherScore{"metadata", 0.6});
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(g.edge_provenance(e1).size(), 2u);
  EXPECT_EQ(g.EdgesOfKind(EdgeKind::kAssociation).size(), 1u);
}

TEST(SearchGraphTest, DijkstraRespectsMaxCost) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);
  WeightVector w(&space);

  auto rel = g.FindRelationNode("go.go_term");
  ASSERT_TRUE(rel.has_value());
  // Within 0 cost: the relation and its attributes (membership is free).
  auto dist = g.Dijkstra({{*rel, 0.0}}, w, 0.0);
  std::size_t reachable = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (dist[n] <= 0.0) ++reachable;
  }
  EXPECT_EQ(reachable, 3u);  // go_term + acc + name

  // With budget 2.0 the FK edge (~1.1) brings in the other relation.
  dist = g.Dijkstra({{*rel, 0.0}}, w, 2.0);
  auto other = g.FindRelationNode("interpro.interpro2go");
  ASSERT_TRUE(other.has_value());
  EXPECT_LE(dist[*other], 2.0);
}

TEST(SearchGraphTest, MinCostGuard) {
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g;
  NodeId r1 = g.AddNode(NodeKind::kRelation, "s.r1");
  NodeId a1 = g.AddNode(NodeKind::kAttribute, "s.r1.x",
                        AttributeId{"s", "r1", "x"});
  NodeId a2 = g.AddNode(NodeKind::kAttribute, "s.r2.y",
                        AttributeId{"s", "r2", "y"});
  (void)r1;
  FeatureVec f;  // cost would be 0 without the guard
  EdgeId e = g.AddAssociationEdge(a1, a2, f, MatcherScore{"m", 1.0});
  WeightVector w(&space);
  EXPECT_GT(g.EdgeCost(e, w), 0.0);
}

}  // namespace
}  // namespace q::graph
