#include <gtest/gtest.h>

#include <memory>

#include "match/mad.h"
#include "match/mad_matcher.h"
#include "match/matcher.h"
#include "match/metadata_matcher.h"
#include "match/synonyms.h"
#include "match/value_overlap.h"
#include "top_y_reveal.h"

namespace q::match {
namespace {

using relational::AttributeDef;
using relational::AttributeId;
using relational::RelationSchema;
using relational::Row;
using relational::Table;
using relational::Value;
using relational::ValueType;

Table MakeTable(const std::string& source, const std::string& relation,
                std::vector<AttributeDef> attrs) {
  return Table(RelationSchema(source, relation, std::move(attrs)));
}

TEST(SynonymsTest, DefaultDictionary) {
  SynonymDictionary dict = SynonymDictionary::Default();
  EXPECT_EQ(dict.Canonical("pub"), "publication");
  EXPECT_EQ(dict.Canonical("acc"), "accession");
  EXPECT_EQ(dict.Canonical("unknown_token"), "unknown_token");
  auto norm = dict.Normalize({"pub", "id"});
  ASSERT_EQ(norm.size(), 2u);
  EXPECT_EQ(norm[0], "publication");
  EXPECT_EQ(norm[1], "identifier");
}

TEST(TopYPerAttributeTest, KeepsTopYAndDedupes) {
  AttributeId a{"s", "r1", "x"};
  AttributeId b{"s", "r2", "y"};
  AttributeId c{"s", "r3", "z"};
  std::vector<AlignmentCandidate> cands{
      {a, b, 0.9, "m"},
      {b, a, 0.7, "m"},  // duplicate pair, lower confidence
      {a, c, 0.5, "m"},
      {b, c, 0.4, "m"},
  };
  auto top1 = TopYPerAttribute(cands, 1);
  // a keeps (a,b); b keeps (a,b); c keeps (a,c). -> {(a,b), (a,c)}
  ASSERT_EQ(top1.size(), 2u);
  auto top2 = TopYPerAttribute(cands, 2);
  EXPECT_EQ(top2.size(), 3u);
  EXPECT_TRUE(TopYPerAttribute(cands, 0).empty());

  // The duplicate kept the max confidence.
  for (const auto& cand : top1) {
    if (cand.PairKey() == cands[0].PairKey()) {
      EXPECT_DOUBLE_EQ(cand.confidence, 0.9);
    }
  }
}

TEST(MetadataMatcherTest, IdenticalNamesScoreHigh) {
  Table t1 = MakeTable("s1", "entry", {{"entry_ac", ValueType::kString},
                                       {"name", ValueType::kString}});
  Table t2 = MakeTable("s2", "entry2pub", {{"entry_ac", ValueType::kString},
                                           {"pub_id", ValueType::kString}});
  MetadataMatcher matcher;
  auto result = matcher.AlignPair(t1, t2, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  // Best candidate should pair the two entry_ac columns.
  const AlignmentCandidate* best = nullptr;
  for (const auto& c : *result) {
    if (best == nullptr || c.confidence > best->confidence) best = &c;
  }
  EXPECT_EQ(best->a.attribute, "entry_ac");
  EXPECT_EQ(best->b.attribute, "entry_ac");
  EXPECT_GT(best->confidence, 0.7);
}

TEST(MetadataMatcherTest, AbbreviationExpansionHelps) {
  MetadataMatcher matcher;
  RelationSchema s1("a", "pub", {{"pub_id", ValueType::kString}});
  RelationSchema s2("b", "publication",
                    {{"publication_identifier", ValueType::kString}});
  double with_syn = matcher.ScorePair(s1, 0, s2, 0);
  EXPECT_GT(with_syn, 0.8);  // tokens normalize to identical sets
}

TEST(MetadataMatcherTest, UnrelatedNamesScoreLow) {
  MetadataMatcher matcher;
  RelationSchema s1("a", "go_term", {{"acc", ValueType::kString}});
  RelationSchema s2("b", "interpro2go", {{"go_id", ValueType::kString}});
  // The COMA++ failure mode: value-compatible but metadata-dissimilar.
  EXPECT_LT(matcher.ScorePair(s1, 0, s2, 0), 0.6);
}

TEST(MetadataMatcherTest, CountsComparisons) {
  Table t1 = MakeTable("s1", "r1", {{"a", ValueType::kString},
                                    {"b", ValueType::kString}});
  Table t2 = MakeTable("s2", "r2", {{"c", ValueType::kString},
                                    {"d", ValueType::kString},
                                    {"e", ValueType::kString}});
  MetadataMatcher matcher;
  ASSERT_TRUE(matcher.AlignPair(t1, t2, 2).ok());
  EXPECT_EQ(matcher.stats().attribute_comparisons, 6u);
  EXPECT_EQ(matcher.stats().pair_alignments, 1u);
  matcher.ResetStats();
  EXPECT_EQ(matcher.stats().attribute_comparisons, 0u);
}

TEST(MetadataMatcherTest, PairFilterSkipsComparisons) {
  Table t1 = MakeTable("s1", "r1", {{"a", ValueType::kString},
                                    {"b", ValueType::kString}});
  Table t2 = MakeTable("s2", "r2", {{"c", ValueType::kString}});
  MetadataMatcher matcher;
  matcher.set_pair_filter([](const AttributeId& x, const AttributeId& y) {
    (void)y;
    return x.attribute == "a";  // only compare pairs whose left side is "a"
  });
  ASSERT_TRUE(matcher.AlignPair(t1, t2, 2).ok());
  EXPECT_EQ(matcher.stats().attribute_comparisons, 1u);
}

TEST(CountingMatcherTest, CountsWithoutProposing) {
  Table t1 = MakeTable("s1", "r1", {{"a", ValueType::kString},
                                    {"b", ValueType::kString}});
  Table t2 = MakeTable("s2", "r2", {{"c", ValueType::kString},
                                    {"d", ValueType::kString}});
  CountingMatcher matcher;
  auto result = matcher.AlignPair(t1, t2, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(matcher.stats().attribute_comparisons, 4u);
}

TEST(MadTest, LabelPropGraphBasics) {
  LabelPropGraph g;
  auto a = g.GetOrAddNode("a");
  auto a2 = g.GetOrAddNode("a");
  EXPECT_EQ(a, a2);
  auto v = g.GetOrAddNode("v");
  g.AddEdge(a, v, 1.0);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(a), 1u);
  g.SetSeed(a, 1);
  EXPECT_TRUE(g.IsSeeded(a));
  EXPECT_FALSE(g.IsSeeded(v));
}

TEST(MadTest, PropagatesAcrossSharedValue) {
  // Figure 4: two attribute nodes sharing value nodes end up carrying
  // each other's labels.
  LabelPropGraph g;
  auto go_id = g.GetOrAddNode("a:go_id");
  auto acc = g.GetOrAddNode("a:acc");
  g.SetSeed(go_id, 1);
  g.SetSeed(acc, 2);
  for (int i = 0; i < 3; ++i) {
    auto v = g.GetOrAddNode("v:GO:000" + std::to_string(i));
    g.AddEdge(go_id, v, 1.0);
    g.AddEdge(acc, v, 1.0);
  }
  MadConfig config;
  config.max_iterations = 3;
  MadResult result = RunMad(g, config);
  EXPECT_EQ(result.iterations_run, 3);

  auto score_of = [&](std::uint32_t node, MadLabel label) {
    for (const auto& [l, s] : result.labels[node]) {
      if (l == label) return s;
    }
    return 0.0;
  };
  // go_id keeps its own label strongly but also receives acc's.
  EXPECT_GT(score_of(go_id, 1), score_of(go_id, 2));
  EXPECT_GT(score_of(go_id, 2), 0.0);
  EXPECT_GT(score_of(acc, 1), 0.0);
  // Value nodes carry both labels.
  auto v0 = g.NodeOf("v:GO:0000");
  EXPECT_GT(score_of(v0, 1), 0.0);
  EXPECT_GT(score_of(v0, 2), 0.0);
}

TEST(MadTest, DisconnectedSeedsDoNotLeak) {
  LabelPropGraph g;
  auto a = g.GetOrAddNode("a");
  auto b = g.GetOrAddNode("b");
  auto va = g.GetOrAddNode("va");
  auto vb = g.GetOrAddNode("vb");
  g.SetSeed(a, 1);
  g.SetSeed(b, 2);
  g.AddEdge(a, va, 1.0);
  g.AddEdge(b, vb, 1.0);
  MadResult result = RunMad(g, MadConfig{});
  for (const auto& [label, score] : result.labels[va]) {
    EXPECT_NE(label, 2u);  // b's label never reaches a's component
  }
}

TEST(MadTest, EmptyGraph) {
  LabelPropGraph g;
  MadResult result = RunMad(g, MadConfig{});
  EXPECT_TRUE(result.labels.empty());
}

TEST(MadMatcherTest, FindsValueOverlapAlignment) {
  // Two attributes with heavy value overlap but unrelated names.
  Table go = MakeTable("go", "go_term", {{"acc", ValueType::kString},
                                         {"name", ValueType::kString}});
  Table i2g = MakeTable("interpro", "interpro2go",
                        {{"go_id", ValueType::kString},
                         {"entry_ac", ValueType::kString}});
  for (int i = 0; i < 30; ++i) {
    std::string id = "GO:" + std::to_string(1000 + i);
    ASSERT_TRUE(
        go.AppendRow(Row{Value(id), Value("term " + std::to_string(i))})
            .ok());
    ASSERT_TRUE(i2g.AppendRow(Row{Value(id),
                                  Value("IPR" + std::to_string(i))})
                    .ok());
  }
  MadMatcher matcher;
  auto result = matcher.AlignPair(go, i2g, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  bool found = false;
  for (const auto& c : *result) {
    if ((c.a.attribute == "acc" && c.b.attribute == "go_id") ||
        (c.a.attribute == "go_id" && c.b.attribute == "acc")) {
      found = true;
      EXPECT_GT(c.confidence, 0.0);
    }
  }
  EXPECT_TRUE(found);
  // MAD does no pairwise attribute comparisons (Sec. 3.2.2).
  EXPECT_EQ(matcher.stats().attribute_comparisons, 0u);
  EXPECT_GT(matcher.last_run().graph_nodes, 0u);
}

TEST(MadMatcherTest, NumericValuesDropped) {
  Table a = MakeTable("s1", "r1", {{"x", ValueType::kInt64}});
  Table b = MakeTable("s2", "r2", {{"y", ValueType::kInt64}});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.AppendRow(Row{Value(std::int64_t{i})}).ok());
    ASSERT_TRUE(b.AppendRow(Row{Value(std::int64_t{i})}).ok());
  }
  MadMatcher matcher;
  auto result = matcher.AlignPair(a, b, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());  // all values numeric -> no signal
}

TEST(MadMatcherTest, DegreeOnePruningShrinksGraph) {
  Table a = MakeTable("s1", "r1", {{"x", ValueType::kString}});
  Table b = MakeTable("s2", "r2", {{"y", ValueType::kString}});
  // 5 shared values, 20 unique-to-a values.
  for (int i = 0; i < 5; ++i) {
    std::string shared = "sh" + std::to_string(i);
    ASSERT_TRUE(a.AppendRow(Row{Value(shared)}).ok());
    ASSERT_TRUE(b.AppendRow(Row{Value(shared)}).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.AppendRow(Row{Value("uniq" + std::to_string(i))}).ok());
  }
  MadMatcherConfig pruned;
  pruned.prune_degree_one = true;
  MadMatcher with_pruning(pruned);
  ASSERT_TRUE(with_pruning.AlignPair(a, b, 2).ok());

  MadMatcherConfig unpruned;
  unpruned.prune_degree_one = false;
  MadMatcher without_pruning(unpruned);
  ASSERT_TRUE(without_pruning.AlignPair(a, b, 2).ok());

  EXPECT_LT(with_pruning.last_run().graph_nodes,
            without_pruning.last_run().graph_nodes);
}

TEST(TopYRevealTest, RevealsAlternativesForLowConfidencePairs) {
  // r1.name's best partner is r2.name; suppressing it must reveal the
  // runner-up r2.title (COMA++-style single-answer probing, Sec. 3.2.3).
  Table t1 = MakeTable("s1", "r1", {{"name", ValueType::kString}});
  Table t2 = MakeTable("s2", "r2", {{"name", ValueType::kString},
                                    {"title", ValueType::kString},
                                    {"pub_id", ValueType::kString}});
  MetadataMatcherConfig low_floor;
  low_floor.min_confidence = 0.1;  // let weak alternatives through
  MetadataMatcher matcher(low_floor);
  TopYRevealOptions options;
  options.high_confidence = 0.99;  // probe everything
  options.top_y = 2;
  auto revealed = RevealTopYAlignments(&matcher, t1, t2, options);
  ASSERT_TRUE(revealed.ok());
  // Must contain both the top pair and at least one alternative for
  // r1.name.
  bool has_top = false;
  std::size_t partners_of_name = 0;
  for (const auto& c : *revealed) {
    const auto& other =
        c.a.attribute == "name" && c.a.relation == "r1" ? c.b : c.a;
    if (c.a.ToString() == "s1.r1.name" || c.b.ToString() == "s1.r1.name") {
      ++partners_of_name;
      if (other.attribute == "name") has_top = true;
    }
  }
  EXPECT_TRUE(has_top);
  EXPECT_GE(partners_of_name, 2u);
  // The matcher's filter was restored.
  auto unfiltered = matcher.AlignPair(t1, t2, 1);
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_FALSE(unfiltered->empty());
}

TEST(TopYRevealTest, HighConfidencePairsNotProbed) {
  Table t1 = MakeTable("s1", "r1", {{"pub_id", ValueType::kString}});
  Table t2 = MakeTable("s2", "r2", {{"pub_id", ValueType::kString},
                                    {"other", ValueType::kString}});
  MetadataMatcher matcher;
  TopYRevealOptions options;
  options.high_confidence = 0.5;  // identical names exceed this
  auto revealed = RevealTopYAlignments(&matcher, t1, t2, options);
  ASSERT_TRUE(revealed.ok());
  // Only the trusted top pair; no probing happened.
  EXPECT_EQ(revealed->size(), 1u);
  EXPECT_EQ(matcher.stats().pair_alignments, 1u);
}

TEST(ValueOverlapTest, OverlapAndFilter) {
  Table a = MakeTable("s1", "r1", {{"x", ValueType::kString}});
  Table b = MakeTable("s2", "r2", {{"y", ValueType::kString},
                                   {"z", ValueType::kString}});
  for (const char* v : {"1", "2", "3"}) {
    ASSERT_TRUE(a.AppendRow(Row{Value(v)}).ok());
  }
  ASSERT_TRUE(b.AppendRow(Row{Value("2"), Value("zz")}).ok());
  ASSERT_TRUE(b.AppendRow(Row{Value("3"), Value("ww")}).ok());

  ValueOverlapIndex index;
  index.IndexTable(a);
  index.IndexTable(b);
  AttributeId ax{"s1", "r1", "x"};
  AttributeId by{"s2", "r2", "y"};
  AttributeId bz{"s2", "r2", "z"};
  EXPECT_EQ(index.Overlap(ax, by), 2u);
  EXPECT_EQ(index.Overlap(ax, bz), 0u);
  EXPECT_TRUE(index.CanJoin(ax, by));
  EXPECT_FALSE(index.CanJoin(ax, bz));
  EXPECT_TRUE(index.CanJoin(ax, by, 2));
  EXPECT_FALSE(index.CanJoin(ax, by, 3));

  PairFilter filter = index.MakeFilter();
  EXPECT_TRUE(filter(ax, by));
  EXPECT_FALSE(filter(ax, bz));
}

}  // namespace
}  // namespace q::match
