// Differential test of query::Executor, which answers conjunctive queries
// from per-column value indexes, against the scan-and-hash referee in
// tests/reference_executor.h. For every query both must return the same
// Status (code and message, so an OutOfRange names the same step), and on
// success the same rows in the same order, value for value.
//
//   * Named cases pin the text rule with hand-checked answers: int64 7,
//     string "7" and double 7.0 join, as do doubles that agree only after
//     "%.6g"; a selection on "" matches nulls and empty strings; joins
//     match empty strings and never nulls.
//   * A seeded random suite builds small tables over a value pool whose
//     texts collide across types, and random chain, star, cyclic,
//     cartesian and free-form join graphs with selections and max_rows.
//   * Every conjunctive query of the InterPro-GO and GBCO views replays
//     through both executors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/q_system.h"
#include "data/gbco.h"
#include "data/interpro_go.h"
#include "query/executor.h"
#include "reference_executor.h"
#include "relational/catalog.h"
#include "util/random.h"

namespace q::query {
namespace {

using relational::AttributeDef;
using relational::AttributeId;
using relational::Row;
using relational::Value;
using relational::ValueType;

using Rows = std::vector<Row>;

std::string Describe(const ConjunctiveQuery& cq, std::size_t max_rows) {
  std::string s = "max_rows=" + std::to_string(max_rows) + " atoms:";
  for (const auto& a : cq.atoms) s += " " + a;
  s += " joins:";
  for (const auto& j : cq.joins) {
    s += " " + j.left.ToString() + "=" + j.right.ToString();
  }
  s += " selections:";
  for (const auto& p : cq.selections) {
    s += " " + p.attr.ToString() + "='" + p.value_text + "'";
  }
  return s;
}

// Runs `cq` through both executors and expects identical outcomes.
// Returns the executor's result.
util::Result<Rows> ExpectSameAsReference(const relational::Catalog& catalog,
                                         const ConjunctiveQuery& cq,
                                         std::size_t max_rows) {
  ExecutorOptions options;
  options.max_rows = max_rows;
  auto got = Executor(&catalog, options).Execute(cq);
  auto want = reference::ReferenceExecutor(&catalog, options).Execute(cq);
  const std::string label = Describe(cq, max_rows);
  EXPECT_EQ(got.status().code(), want.status().code()) << label;
  EXPECT_EQ(got.status().message(), want.status().message()) << label;
  if (got.ok() && want.ok()) {
    EXPECT_EQ(*got, *want) << label;
  }
  return got;
}

// --- Named cases -----------------------------------------------------------

std::shared_ptr<relational::Table> MakeTable(
    const std::string& relation, std::vector<AttributeDef> attributes,
    const Rows& rows) {
  auto table = std::make_shared<relational::Table>(
      relational::RelationSchema("s", relation, std::move(attributes)));
  for (const Row& row : rows) Q_CHECK_OK(table->AppendRow(row));
  return table;
}

// Three tables whose first column `r` is the row number. Their key
// columns type one identifier three ways.
class ExecutorNamedCasesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Value null;
    auto source = std::make_shared<relational::DataSource>("s");
    Q_CHECK_OK(source->AddTable(MakeTable(
        "a",
        {{"r", ValueType::kInt64},
         {"id", ValueType::kInt64},
         {"name", ValueType::kString}},
        {{I(0), I(7), S("x")},
         {I(1), null, S("")},
         {I(2), I(7), S("y")},
         {I(3), I(3), null}})));
    Q_CHECK_OK(source->AddTable(MakeTable(
        "b",
        {{"r", ValueType::kInt64},
         {"key", ValueType::kString},
         {"v", ValueType::kDouble}},
        {{I(0), S("7"), D(7.0)},
         {I(1), S(""), D(1234567.0)},
         {I(2), null, D(7.0000001)},
         {I(3), S("7"), null},
         {I(4), S("3"), D(1234567.4)}})));
    Q_CHECK_OK(source->AddTable(MakeTable(
        "c",
        {{"r", ValueType::kInt64},
         {"d", ValueType::kDouble},
         {"e", ValueType::kString}},
        {{I(0), D(7.0), S("1.23457e+06")},
         {I(1), D(7.0000001), S("7")},
         {I(2), null, S("")}})));
    Q_CHECK_OK(catalog_.AddSource(source));
  }

  static Value I(std::int64_t v) { return Value(v); }
  static Value D(double v) { return Value(v); }
  static Value S(const char* v) { return Value(v); }
  static AttributeId A(const std::string& relation, const std::string& attr) {
    return AttributeId{"s", relation, attr};
  }
  static ConjunctiveQuery Query(std::vector<std::string> relations) {
    ConjunctiveQuery cq;
    for (const auto& r : relations) {
      cq.atoms.push_back("s." + r);
      cq.select_list.push_back({A(r, "r"), r});
    }
    return cq;
  }
  // Rows of row numbers, one per atom.
  static Rows Ids(const std::vector<std::vector<std::int64_t>>& ids) {
    Rows rows;
    for (const auto& tuple : ids) {
      Row row;
      for (std::int64_t id : tuple) row.push_back(Value(id));
      rows.push_back(row);
    }
    return rows;
  }

  util::Result<Rows> Run(const ConjunctiveQuery& cq,
                         std::size_t max_rows = 100000) {
    return ExpectSameAsReference(catalog_, cq, max_rows);
  }

  relational::Catalog catalog_;
};

TEST_F(ExecutorNamedCasesTest, IntStringAndDoubleSharingTextJoin) {
  ConjunctiveQuery cq = Query({"a", "b"});
  cq.joins = {{A("a", "id"), A("b", "key")}};
  auto rows = Run(cq);
  ASSERT_TRUE(rows.ok()) << rows.status();
  // Duplicate keys on both sides; lexicographic in (a, b) row order.
  EXPECT_EQ(*rows, Ids({{0, 0}, {0, 3}, {2, 0}, {2, 3}, {3, 4}}));

  ConjunctiveQuery doubles = Query({"a", "c"});
  doubles.joins = {{A("a", "id"), A("c", "d")}};
  rows = Run(doubles);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{0, 0}, {0, 1}, {2, 0}, {2, 1}}));
}

TEST_F(ExecutorNamedCasesTest, DoublesJoinWhenTheyAgreeAfterSixDigits) {
  ConjunctiveQuery cq = Query({"b", "c"});
  cq.joins = {{A("b", "v"), A("c", "e")}};
  auto rows = Run(cq);
  ASSERT_TRUE(rows.ok()) << rows.status();
  // 1234567.0 and 1234567.4 both render "1.23457e+06"; 7.0000001 renders
  // "7".
  EXPECT_EQ(*rows, Ids({{0, 1}, {1, 0}, {2, 1}, {4, 0}}));
}

TEST_F(ExecutorNamedCasesTest, EmptySelectionMatchesNullsAndEmptyStrings) {
  ConjunctiveQuery cq = Query({"a"});
  cq.selections = {{A("a", "name"), ""}};
  auto rows = Run(cq);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{1}, {3}}));
}

TEST_F(ExecutorNamedCasesTest, JoinsMatchEmptyStringsButNeverNulls) {
  ConjunctiveQuery cq = Query({"a", "c"});
  cq.joins = {{A("a", "name"), A("c", "e")}};
  auto rows = Run(cq);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{1, 2}}));

  // A null probe cell against a build column holding "": no match.
  ConjunctiveQuery nulls = Query({"b", "c"});
  nulls.joins = {{A("b", "key"), A("c", "e")}};
  rows = Run(nulls);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{0, 1}, {1, 2}, {3, 1}}));

  // A "" probe cell against a build column holding a null: no match.
  ConjunctiveQuery build_nulls = Query({"c", "b"});
  build_nulls.joins = {{A("c", "e"), A("b", "key")}};
  rows = Run(build_nulls);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{1, 0}, {1, 3}, {2, 1}}));
}

TEST_F(ExecutorNamedCasesTest, AbsentValueAndTwoPredicatesOnOneAtom) {
  ConjunctiveQuery absent = Query({"a"});
  absent.selections = {{A("a", "name"), "zzz"}};
  auto rows = Run(absent);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->empty());

  ConjunctiveQuery both = Query({"b"});
  both.selections = {{A("b", "key"), "7"}, {A("b", "v"), "7"}};
  rows = Run(both);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{0}}));
}

TEST_F(ExecutorNamedCasesTest, ConditionWithinOneAtomIsAResidualFilter) {
  ConjunctiveQuery cq = Query({"c"});
  cq.joins = {{A("c", "d"), A("c", "e")}};
  auto rows = Run(cq);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, Ids({{1}}));
}

TEST_F(ExecutorNamedCasesTest, MaxRowsTripsInJoinAndCartesianSteps) {
  ConjunctiveQuery join = Query({"a", "b"});
  join.joins = {{A("a", "id"), A("b", "key")}};
  EXPECT_TRUE(Run(join, 5).ok());
  auto rows = Run(join, 4);
  ASSERT_TRUE(rows.status().IsOutOfRange());
  EXPECT_EQ(rows.status().message(), "result exceeds max_rows");

  ConjunctiveQuery cartesian = Query({"a", "c"});
  EXPECT_TRUE(Run(cartesian, 12).ok());
  rows = Run(cartesian, 11);
  ASSERT_TRUE(rows.status().IsOutOfRange());
  EXPECT_EQ(rows.status().message(),
            "result exceeds max_rows during cartesian extension");
}

TEST_F(ExecutorNamedCasesTest, ResolutionErrorsMatchTheReference) {
  ConjunctiveQuery missing_relation = Query({"a", "zz"});
  EXPECT_TRUE(Run(missing_relation).status().IsNotFound());

  ConjunctiveQuery missing_attr = Query({"a"});
  missing_attr.selections = {{A("a", "nope"), "7"}};
  EXPECT_TRUE(Run(missing_attr).status().IsNotFound());

  ConjunctiveQuery unbound = Query({"a"});
  unbound.joins = {{A("a", "id"), A("b", "key")}};
  EXPECT_EQ(Run(unbound).status().code(), util::StatusCode::kInternal);
}

// --- Seeded random suite ---------------------------------------------------

// Value pools whose texts collide across types: 7, "7", 7.0 and 7.0000001
// all render "7"; 1234567.0, 1234567.4 and "1.23457e+06" agree only after
// "%.6g".
const std::vector<std::int64_t> kInts = {0, 1, 2, 7, 1234567};
const std::vector<double> kDoubles = {0.0,       0.5,       1.0,
                                      7.0,       7.0000001, 1234567.0,
                                      1234567.4};
const std::vector<std::string> kStrings = {"0", "1", "7", "",
                                           "",  "x", "0.5", "1.23457e+06"};
// Selection texts: the pools' texts, "" and one absent from every column.
const std::vector<std::string> kSelectionTexts = {
    "0", "1", "2", "7", "", "x", "0.5", "1.23457e+06", "1234567", "zzz"};

struct RandomCatalog {
  relational::Catalog catalog;
  std::vector<std::string> relations;
  std::vector<std::size_t> arity;
};

std::unique_ptr<RandomCatalog> BuildRandomCatalog(util::Rng& rng) {
  const std::vector<ValueType> types = {ValueType::kInt64, ValueType::kDouble,
                                        ValueType::kString};
  auto out = std::make_unique<RandomCatalog>();
  auto source = std::make_shared<relational::DataSource>("s");
  for (int t = 0; t < 5; ++t) {
    const std::string name = "t" + std::to_string(t);
    const std::size_t columns = 2 + rng.Uniform(2);
    std::vector<AttributeDef> attributes;
    for (std::size_t c = 0; c < columns; ++c) {
      attributes.push_back({"c" + std::to_string(c), rng.Pick(types)});
    }
    auto table = std::make_shared<relational::Table>(
        relational::RelationSchema("s", name, attributes));
    const std::size_t rows = rng.Bernoulli(0.1) ? 0 : 1 + rng.Uniform(10);
    for (std::size_t r = 0; r < rows; ++r) {
      Row row;
      for (const AttributeDef& a : attributes) {
        if (rng.Bernoulli(0.15)) {
          row.push_back(Value::Null());
        } else if (a.type == ValueType::kInt64) {
          row.push_back(Value(rng.Pick(kInts)));
        } else if (a.type == ValueType::kDouble) {
          row.push_back(Value(rng.Pick(kDoubles)));
        } else {
          row.push_back(Value(rng.Pick(kStrings)));
        }
      }
      Q_CHECK_OK(table->AppendRow(std::move(row)));
    }
    Q_CHECK_OK(source->AddTable(table));
    out->relations.push_back(name);
    out->arity.push_back(columns);
  }
  Q_CHECK_OK(out->catalog.AddSource(source));
  return out;
}

enum class Shape { kChain, kStar, kCycle, kCartesian, kFree };

ConjunctiveQuery RandomQuery(util::Rng& rng, const RandomCatalog& rc,
                             Shape shape) {
  std::vector<std::size_t> tables(rc.relations.size());
  for (std::size_t i = 0; i < tables.size(); ++i) tables[i] = i;
  for (std::size_t i = tables.size(); i > 1; --i) {
    std::swap(tables[i - 1], tables[rng.Uniform(i)]);
  }
  const std::size_t m = 1 + rng.Uniform(4);
  tables.resize(m);
  // Rarely list a relation twice: its attributes bind to the last copy.
  if (rng.Bernoulli(0.05)) tables.push_back(tables[rng.Uniform(m)]);

  ConjunctiveQuery cq;
  for (std::size_t t : tables) cq.atoms.push_back("s." + rc.relations[t]);
  auto attr = [&](std::size_t atom) {
    const std::size_t t = tables[atom];
    return AttributeId{"s", rc.relations[t],
                       "c" + std::to_string(rng.Uniform(rc.arity[t]))};
  };
  auto join = [&](std::size_t x, std::size_t y) {
    if (rng.Bernoulli(0.5)) std::swap(x, y);
    cq.joins.push_back({attr(x), attr(y)});
  };
  switch (shape) {
    case Shape::kChain:
    case Shape::kCycle:
    case Shape::kCartesian:
      for (std::size_t i = 0; i + 1 < m; ++i) {
        if (shape != Shape::kCartesian || rng.Bernoulli(0.4)) join(i, i + 1);
      }
      if (shape == Shape::kCycle && m >= 2) join(m - 1, 0);
      break;
    case Shape::kStar: {
      const std::size_t hub = rng.Uniform(m);
      for (std::size_t i = 0; i < m; ++i) {
        if (i != hub) join(hub, i);
      }
      break;
    }
    case Shape::kFree:
      for (std::size_t n = rng.Uniform(m + 2); n > 0; --n) {
        join(rng.Uniform(m), rng.Uniform(m));
      }
      break;
  }
  // A condition within one atom.
  if (rng.Bernoulli(0.15)) {
    const std::size_t atom = rng.Uniform(m);
    join(atom, atom);
  }
  for (std::size_t n = rng.Uniform(3); n > 0; --n) {
    const std::size_t atom = rng.Uniform(m);
    cq.selections.push_back({attr(atom), rng.Pick(kSelectionTexts)});
    // Two predicates on one atom.
    if (rng.Bernoulli(0.3)) {
      cq.selections.push_back({attr(atom), rng.Pick(kSelectionTexts)});
    }
  }
  for (std::size_t n = 1 + rng.Uniform(3); n > 0; --n) {
    cq.select_list.push_back({attr(rng.Uniform(m)), "out"});
  }
  // Rarely, a select-list attribute the schema lacks (NotFound after the
  // joins ran, or OutOfRange first if a step trips).
  if (rng.Bernoulli(0.02)) {
    cq.select_list.push_back(
        {AttributeId{"s", rc.relations[tables[0]], "missing"}, "out"});
  }
  return cq;
}

class ExecutorDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDifferentialTest, RandomQueriesMatchReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::vector<Shape> shapes = {Shape::kChain, Shape::kStar,
                                     Shape::kCycle, Shape::kCartesian,
                                     Shape::kFree};
  std::size_t nonempty = 0;
  std::size_t join_overflows = 0;
  std::size_t cartesian_overflows = 0;
  for (int round = 0; round < 6; ++round) {
    auto rc = BuildRandomCatalog(rng);
    for (int i = 0; i < 100; ++i) {
      const Shape shape = shapes[i % shapes.size()];
      ConjunctiveQuery cq = RandomQuery(rng, *rc, shape);
      // Small caps trip inside join and cartesian steps.
      const std::size_t max_rows =
          rng.Bernoulli(0.4) ? 1 + rng.Uniform(10) : 100000;
      auto rows = ExpectSameAsReference(rc->catalog, cq, max_rows);
      if (rows.ok() && !rows->empty()) ++nonempty;
      if (rows.status().IsOutOfRange()) {
        const bool cartesian =
            rows.status().message().find("cartesian") != std::string::npos;
        ++(cartesian ? cartesian_overflows : join_overflows);
      }
    }
  }
  // The seed exercised answers and both kinds of overflow.
  EXPECT_GT(nonempty, 40u);
  EXPECT_GT(join_overflows, 0u);
  EXPECT_GT(cartesian_overflows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferentialTest,
                         ::testing::Range(1, 11));

// --- Real views --------------------------------------------------------------

// Replays every conjunctive query of every view through both executors.
void ExpectViewQueriesMatchReference(const core::QSystem& q) {
  std::size_t queries = 0;
  std::size_t rows = 0;
  for (std::size_t v = 0; v < q.num_views(); ++v) {
    auto snapshot = q.QueryView(v);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    for (const ConjunctiveQuery& cq : snapshot->queries) {
      auto got = ExpectSameAsReference(q.catalog(), cq,
                                       q.view(v).config().executor.max_rows);
      ++queries;
      if (got.ok()) rows += got->size();
    }
  }
  EXPECT_GT(queries, 0u);
  EXPECT_GT(rows, 0u);
}

TEST(ExecutorViewReplayTest, InterProGoServeViews) {
  data::InterProGoConfig data;
  data.num_go_terms = 120;
  data.num_entries = 90;
  data.num_pubs = 80;
  data.num_journals = 10;
  data.num_methods = 60;
  data.interpro2go_links = 200;
  data.entry2pub_links = 160;
  data.method2pub_links = 120;
  const data::InterProGoDataset dataset = data::BuildInterProGo(data);
  core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = -1;
  core::QSystem q(config);
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  const auto& keyword_queries = dataset.keyword_queries;
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(q.CreateView(keyword_queries[i % keyword_queries.size()]).ok());
  }
  ExpectViewQueriesMatchReference(q);
}

TEST(ExecutorViewReplayTest, GbcoViews) {
  data::GbcoConfig data;
  data.base_rows = 150;
  const data::GbcoDataset dataset = data::BuildGbco(data);
  core::QSystemConfig config;
  config.view.top_k.k = 3;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = -1;
  core::QSystem q(config);
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        q.CreateView(dataset.trials[i % dataset.trials.size()].keywords).ok());
  }
  ExpectViewQueriesMatchReference(q);
}

}  // namespace
}  // namespace q::query
