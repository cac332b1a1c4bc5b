#include "text/text_index.h"

#include <gtest/gtest.h>

#include <memory>

#include "relational/catalog.h"
#include "similarity.h"

namespace q::text {
namespace {

using relational::AttributeDef;
using relational::Catalog;
using relational::DataSource;
using relational::RelationSchema;
using relational::Row;
using relational::Table;
using relational::Value;
using relational::ValueType;

Catalog SmallCatalog() {
  Catalog catalog;
  auto src = std::make_shared<DataSource>("go");
  auto table = std::make_shared<Table>(
      RelationSchema("go", "go_term",
                     {{"acc", ValueType::kString},
                      {"name", ValueType::kString}}));
  EXPECT_TRUE(table
                  ->AppendRow(Row{Value("GO:0005886"),
                                  Value("plasma membrane")})
                  .ok());
  EXPECT_TRUE(table
                  ->AppendRow(Row{Value("GO:0016020"), Value("membrane")})
                  .ok());
  EXPECT_TRUE(src->AddTable(table).ok());
  EXPECT_TRUE(catalog.AddSource(src).ok());
  return catalog;
}

TEST(TextIndexTest, IndexesMetadataAndValues) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  // 1 relation name + 2 attribute names + 4 distinct values.
  EXPECT_EQ(index.num_documents(), 7u);
}

TEST(TextIndexTest, FindsAttributeByTokenizedName) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  auto results = index.Search("go term", 0.1, 0);
  ASSERT_FALSE(results.empty());
  // The relation name "go_term" should be the best match.
  const Document& top = index.documents()[results[0].doc_index];
  EXPECT_EQ(top.kind, DocKind::kRelationName);
  EXPECT_EQ(top.text, "go_term");
}

TEST(TextIndexTest, FindsValues) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  auto results = index.Search("plasma membrane", 0.1, 0);
  ASSERT_FALSE(results.empty());
  const Document& top = index.documents()[results[0].doc_index];
  EXPECT_EQ(top.kind, DocKind::kValue);
  EXPECT_EQ(top.text, "plasma membrane");
  EXPECT_EQ(top.attr.attribute, "name");
  // Exact match scores 1.
  EXPECT_NEAR(results[0].score, 1.0, 1e-9);
}

TEST(TextIndexTest, PartialMatchScoresLower) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  auto results = index.Search("membrane", 0.01, 0);
  ASSERT_GE(results.size(), 2u);
  // The single-token value "membrane" beats "plasma membrane".
  const Document& top = index.documents()[results[0].doc_index];
  EXPECT_EQ(top.text, "membrane");
  EXPECT_GT(results[0].score, results[1].score);
}

TEST(TextIndexTest, MinScoreAndMaxResultsRespected) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  auto all = index.Search("membrane", 0.0, 0);
  auto capped = index.Search("membrane", 0.0, 1);
  EXPECT_GT(all.size(), capped.size());
  EXPECT_EQ(capped.size(), 1u);
  auto strict = index.Search("membrane", 0.999, 0);
  for (const auto& r : strict) EXPECT_GE(r.score, 0.999);
}

TEST(TextIndexTest, UnknownKeywordMatchesNothing) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  EXPECT_TRUE(index.Search("zzzz", 0.1, 0).empty());
  EXPECT_TRUE(index.Search("", 0.1, 0).empty());
}

TEST(TextIndexTest, ValueDocsDedupedOnReindex) {
  Catalog catalog = SmallCatalog();
  TextIndex index;
  index.IndexCatalog(catalog);
  std::size_t before = index.num_documents();
  // Re-adding the same table must not duplicate value docs... but does
  // duplicate metadata docs is also undesirable; IndexTable is expected to
  // be called once per table. Here we verify value dedup specifically.
  index.IndexTable(*catalog.FindTable("go.go_term"));
  EXPECT_EQ(index.num_documents(), before + 3);  // relation + 2 attrs only
}

TEST(SimilarityTest, FactoryAndScores) {
  auto edit = MakeSimilarity("edit_distance");
  auto ngram = MakeSimilarity("ngram");
  auto jaccard = MakeSimilarity("token_jaccard");
  ASSERT_NE(edit, nullptr);
  ASSERT_NE(ngram, nullptr);
  ASSERT_NE(jaccard, nullptr);
  EXPECT_EQ(MakeSimilarity("nope"), nullptr);

  EXPECT_DOUBLE_EQ(edit->Score("Name", "name"), 1.0);
  EXPECT_DOUBLE_EQ(jaccard->Score("go_term", "goTerm"), 1.0);
  EXPECT_GT(ngram->Score("entry_ac", "entry_acc"), 0.5);
}

}  // namespace
}  // namespace q::text
