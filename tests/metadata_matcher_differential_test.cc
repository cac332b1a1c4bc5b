// Differential test of match::MetadataMatcher, which scores attribute
// pairs from per-name profiles, against the per-pair referee in
// reference_metadata_matcher.h. On GBCO (two row counts, so two
// value-overlap filters), InterPro-GO, the Sec. 5.1.2 synthetic sources
// beside six GBCO relations, and a catalog of edge-case names, with and
// without a PairFilter, these must equal the referee's under ==:
// ScorePair for every attribute pair, AlignPair for every ordered table
// pair with a top_y that cuts nothing, InduceAlignments at top_y 2, and
// both MatcherStats counters.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/gbco.h"
#include "data/interpro_go.h"
#include "data/synthetic.h"
#include "match/metadata_matcher.h"
#include "match/value_overlap.h"
#include "reference_metadata_matcher.h"
#include "relational/catalog.h"
#include "util/random.h"

namespace q::match {
namespace {

using relational::AttributeDef;
using relational::RelationSchema;
using relational::Table;
using relational::ValueType;
using Tables = std::vector<const Table*>;
using Candidates = util::Result<std::vector<AlignmentCandidate>>;

// Keeps every candidate: no attribute meets this many partners.
constexpr int kUncut = 1 << 20;

MetadataMatcherConfig ZeroFloor() {
  MetadataMatcherConfig config;
  config.min_confidence = 0.0;  // every scored pair becomes a candidate
  return config;
}

Tables AllTables(const relational::Catalog& catalog) {
  Tables tables;
  for (const auto& t : catalog.AllTables()) tables.push_back(t.get());
  return tables;
}

// Attribute pairs across distinct tables, over every ordered table pair:
// the candidates of a zero-floor, unfiltered, uncut AlignPair sweep.
std::size_t CrossPairs(const Tables& tables) {
  std::size_t pairs = 0;
  for (const Table* ta : tables) {
    for (const Table* tb : tables) {
      if (ta != tb) {
        pairs += ta->schema().num_attributes() * tb->schema().num_attributes();
      }
    }
  }
  return pairs;
}

// Counts what was compared, so a run that compared nothing fails.
struct Compared {
  std::size_t scores = 0;
  std::size_t candidates = 0;
};

void ExpectSameCandidates(const Candidates& got, const Candidates& want,
                          const std::string& where, Compared* compared) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status();
  ASSERT_TRUE(want.ok()) << where << ": " << want.status();
  ASSERT_EQ(got->size(), want->size()) << where;
  for (std::size_t i = 0; i < got->size(); ++i) {
    const AlignmentCandidate& g = (*got)[i];
    const AlignmentCandidate& w = (*want)[i];
    EXPECT_EQ(g.a, w.a) << where << " #" << i;
    EXPECT_EQ(g.b, w.b) << where << " #" << i;
    EXPECT_EQ(g.confidence, w.confidence) << where << " #" << i << " "
                                          << g.PairKey();
    EXPECT_EQ(g.matcher, w.matcher) << where << " #" << i;
  }
  compared->candidates += got->size();
}

void ExpectSameStats(const Matcher& got, const Matcher& want,
                     const std::string& where) {
  EXPECT_EQ(got.stats().attribute_comparisons,
            want.stats().attribute_comparisons)
      << where;
  EXPECT_EQ(got.stats().pair_alignments, want.stats().pair_alignments)
      << where;
}

// ScorePair for every ordered attribute pair of `tables`, same table
// included.
void ExpectSameScores(const Tables& tables, const SynonymDictionary& dict,
                      Compared* compared) {
  MetadataMatcher fast(MetadataMatcherConfig(), dict);
  reference::MetadataMatcher slow(MetadataMatcherConfig(), dict);
  for (const Table* ta : tables) {
    for (const Table* tb : tables) {
      const RelationSchema& sa = ta->schema();
      const RelationSchema& sb = tb->schema();
      for (std::size_t i = 0; i < sa.num_attributes(); ++i) {
        for (std::size_t j = 0; j < sb.num_attributes(); ++j) {
          EXPECT_EQ(fast.ScorePair(sa, i, sb, j), slow.ScorePair(sa, i, sb, j))
              << sa.IdOf(i).ToString() << " / " << sb.IdOf(j).ToString();
          ++compared->scores;
        }
      }
    }
  }
}

// AlignPair over every ordered table pair, then InduceAlignments at
// top_y 2, each followed by both counters; `filter` may be empty.
void ExpectSameAlignments(const Tables& tables, const PairFilter& filter,
                          const MetadataMatcherConfig& config,
                          const SynonymDictionary& dict, Compared* compared) {
  MetadataMatcher fast(config, dict);
  reference::MetadataMatcher slow(config, dict);
  fast.set_pair_filter(filter);
  slow.set_pair_filter(filter);
  for (const Table* ta : tables) {
    for (const Table* tb : tables) {
      if (ta == tb) continue;
      const std::string where = "AlignPair " + ta->schema().QualifiedName() +
                                " x " + tb->schema().QualifiedName();
      ExpectSameCandidates(fast.AlignPair(*ta, *tb, kUncut),
                           slow.AlignPair(*ta, *tb, kUncut), where, compared);
    }
  }
  ExpectSameStats(fast, slow, "AlignPair");
  fast.ResetStats();
  slow.ResetStats();
  ExpectSameCandidates(fast.InduceAlignments(tables, 2),
                       slow.InduceAlignments(tables, 2), "InduceAlignments",
                       compared);
  ExpectSameStats(fast, slow, "InduceAlignments");
}

// Every check: ScorePair, then the sweeps at the default floor without
// and with `filter`, and at a zero floor (so every scored pair's
// confidence reaches the output) without it.
Compared ExpectMatchesReferee(
    const Tables& tables, const PairFilter& filter,
    const SynonymDictionary& dict = SynonymDictionary::Default()) {
  Compared compared;
  ExpectSameScores(tables, dict, &compared);
  ExpectSameAlignments(tables, nullptr, MetadataMatcherConfig(), dict,
                       &compared);
  ExpectSameAlignments(tables, filter, MetadataMatcherConfig(), dict,
                       &compared);
  ExpectSameAlignments(tables, nullptr, ZeroFloor(), dict, &compared);
  EXPECT_GT(compared.candidates, CrossPairs(tables));
  return compared;
}

// The Sec. 5.1 value-overlap filter over `tables`; `index` must outlive
// the filter.
PairFilter OverlapFilter(const Tables& tables, ValueOverlapIndex* index) {
  for (const Table* t : tables) index->IndexTable(*t);
  return index->MakeFilter();
}

TEST(MetadataMatcherDifferentialTest, GbcoMatchesReferee) {
  data::GbcoDataset dataset = data::BuildGbco();  // 120 base rows
  Tables tables = AllTables(dataset.catalog);
  ValueOverlapIndex index;
  Compared compared =
      ExpectMatchesReferee(tables, OverlapFilter(tables, &index));
  EXPECT_EQ(compared.scores, 187u * 187u);

  // qbench onboard's 150 rows: the same schemas, so only the value-overlap
  // filter differs.
  data::GbcoConfig onboard;
  onboard.base_rows = 150;
  data::GbcoDataset more_rows = data::BuildGbco(onboard);
  Tables onboard_tables = AllTables(more_rows.catalog);
  ValueOverlapIndex onboard_index;
  PairFilter filter = OverlapFilter(onboard_tables, &onboard_index);
  Compared filtered;
  for (const MetadataMatcherConfig& config :
       {MetadataMatcherConfig(), ZeroFloor()}) {
    ExpectSameAlignments(onboard_tables, filter, config,
                         SynonymDictionary::Default(), &filtered);
  }
  EXPECT_GT(filtered.candidates, 0u);
}

TEST(MetadataMatcherDifferentialTest, InterProGoMatchesReferee) {
  data::InterProGoDataset dataset = data::BuildInterProGo();
  Tables tables = AllTables(dataset.catalog);
  ValueOverlapIndex index;
  Compared compared =
      ExpectMatchesReferee(tables, OverlapFilter(tables, &index));
  EXPECT_EQ(compared.scores, 28u * 28u);
}

TEST(MetadataMatcherDifferentialTest, SyntheticSourcesMatchReferee) {
  // Sec. 5.1.2's two-attribute sources (all "rel" with "key" and "val",
  // so their names tie with each other) beside six GBCO relations.
  data::GbcoDataset dataset = data::BuildGbco();
  util::Rng rng(5102);
  std::vector<std::shared_ptr<relational::DataSource>> synthetic;
  for (int i = 0; i < 8; ++i) {
    synthetic.push_back(
        data::MakeSyntheticSource("syn" + std::to_string(i), 5, &rng));
  }
  Tables tables = AllTables(dataset.catalog);
  tables.resize(6);
  std::size_t attrs = 0;
  for (const Table* t : tables) attrs += t->schema().num_attributes();
  for (const auto& src : synthetic) {
    for (const auto& t : src->tables()) tables.push_back(t.get());
  }
  attrs += 2 * synthetic.size();
  ValueOverlapIndex index;
  Compared compared =
      ExpectMatchesReferee(tables, OverlapFilter(tables, &index));
  EXPECT_EQ(compared.scores, attrs * attrs);
}

TEST(MetadataMatcherDifferentialTest, EdgeCaseNamesMatchReferee) {
  // Canonical forms with upper case, with a space, and empty.
  SynonymDictionary dict = SynonymDictionary::Default();
  dict.Add("go", "GeneOntology");
  dict.Add("ipr", "InterPro Entry");
  dict.Add("pair", "two words");
  dict.Add("x", "");
  const std::vector<std::string> names = {
      "",                      // empty
      "_-.#",                  // punctuation only
      "##",                    // the trigram pad character alone
      "#a#",                   // pad characters around a token
      "123",                   // digits
      "a1b2",
      "go2term",
      "HTTPServerURL",         // camelCase runs
      "getHTTPResponseCode",
      "goTermName",
      "GOTermID",
      "na\xC3\xAFve_name",     // bytes >= 0x80 (UTF-8)
      "\xFF\xFE",
      "caf\xC3\xA9",
      "pub_id",                // synonym-mapped tokens
      "acc_no",
      "PubDesc",
      "go_acc",                // canonical form with upper case
      "GO",
      "ipr_ac",
      "pair_key",              // canonical form with a space
      "x_val",                 // canonical form empty
      "x",
      "id_id_ID",              // repeated tokens
      "a",
      "entry_ac",
      "entry_acc",
      "very_long_attribute_name_with_many_tokens_and_more_tokens",
  };
  const std::vector<std::string> relations = {"", "GoTerm", "caf\xC3\xA9",
                                              "go_x_pair_pub"};
  const std::vector<ValueType> types = {ValueType::kString, ValueType::kInt64,
                                        ValueType::kDouble};
  std::vector<std::unique_ptr<Table>> owned;
  Tables tables;
  for (std::size_t r = 0; r < relations.size(); ++r) {
    std::vector<AttributeDef> attrs;
    for (std::size_t n = 0; n < names.size(); ++n) {
      attrs.push_back(AttributeDef{names[n], types[(n + r) % types.size()]});
    }
    owned.push_back(std::make_unique<Table>(RelationSchema(
        "edge" + std::to_string(r), relations[r], std::move(attrs))));
    tables.push_back(owned.back().get());
  }
  // Rejects about a third of the pairs, on neither side's name alone.
  PairFilter filter = [](const relational::AttributeId& a,
                         const relational::AttributeId& b) {
    return std::hash<std::string>{}(a.ToString() + "|" + b.ToString()) % 3 !=
           0;
  };
  for (const SynonymDictionary& d : {SynonymDictionary::Default(), dict}) {
    Compared compared = ExpectMatchesReferee(tables, filter, d);
    const std::size_t attrs = relations.size() * names.size();
    EXPECT_EQ(compared.scores, attrs * attrs);
  }
}

}  // namespace
}  // namespace q::match
