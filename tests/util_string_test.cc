#include "util/string_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "reference_metadata_matcher.h"

namespace q::util {
namespace {

namespace reference = match::reference;

TEST(StringUtilTest, ToLowerAndTrim) {
  EXPECT_EQ(ToLower("Go_Term"), "go_term");
  EXPECT_EQ(Trim("  hello \t"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = Split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TokenizeIdentifierSnakeCase) {
  auto t = TokenizeIdentifier("go_term_name");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "go");
  EXPECT_EQ(t[1], "term");
  EXPECT_EQ(t[2], "name");
}

TEST(StringUtilTest, TokenizeIdentifierCamelCase) {
  auto t = TokenizeIdentifier("goTermName");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "go");
  EXPECT_EQ(t[1], "term");
  EXPECT_EQ(t[2], "name");
}

TEST(StringUtilTest, TokenizeTextWords) {
  auto t = TokenizeText("The plasma-membrane, GO:0005886!");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0], "the");
  EXPECT_EQ(t[1], "plasma");
  EXPECT_EQ(t[2], "membrane");
  EXPECT_EQ(t[3], "go");
  EXPECT_EQ(t[4], "0005886");
}

TEST(StringUtilTest, IsNumericLiteral) {
  EXPECT_TRUE(IsNumericLiteral("42"));
  EXPECT_TRUE(IsNumericLiteral("-3.5"));
  EXPECT_TRUE(IsNumericLiteral(" +7 "));
  EXPECT_FALSE(IsNumericLiteral("GO:0005886"));
  EXPECT_FALSE(IsNumericLiteral("3.5.1"));
  EXPECT_FALSE(IsNumericLiteral(""));
  EXPECT_FALSE(IsNumericLiteral("-"));
}

TEST(StringUtilTest, EditDistanceBasics) {
  std::vector<std::size_t> row;
  EXPECT_EQ(EditDistance("", "", &row), 0u);
  EXPECT_EQ(EditDistance("abc", "", &row), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting", &row), 3u);
  EXPECT_EQ(EditDistance("pub", "pub", &row), 0u);
}

TEST(StringUtilTest, EditSimilarityRange) {
  std::vector<std::size_t> row;
  EXPECT_DOUBLE_EQ(EditSimilarity("", "", &row), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc", &row), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz", &row), 0.0);
  double s = EditSimilarity("pub_id", "pub_identifier", &row);
  EXPECT_GT(s, 0.3);
  EXPECT_LT(s, 1.0);
}

// The trigram, substring and token similarities below are the metadata
// matcher referee's; the matcher scores the same ratios from its name
// profiles (metadata_matcher_differential_test pins them to the referee).
TEST(StringUtilTest, TrigramSimilarity) {
  EXPECT_DOUBLE_EQ(reference::TrigramSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(reference::TrigramSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(reference::TrigramSimilarity("name", "name"), 1.0);
  EXPECT_GT(reference::TrigramSimilarity("entry_ac", "entry_acc"),
            reference::TrigramSimilarity("entry_ac", "journal_id"));
}

TEST(StringUtilTest, LongestCommonSubstring) {
  std::vector<std::size_t> row;
  EXPECT_EQ(LongestCommonSubstring("", "x", &row), 0u);
  EXPECT_EQ(LongestCommonSubstring("entry_ac", "entry_acc", &row), 8u);
  EXPECT_EQ(LongestCommonSubstring("abcdef", "zabcy", &row), 3u);
}

TEST(StringUtilTest, SubstringSimilarity) {
  EXPECT_DOUBLE_EQ(reference::SubstringSimilarity("name", "NAME"), 1.0);
  EXPECT_GT(reference::SubstringSimilarity("pub_id", "pub_identifier"), 0.4);
}

TEST(StringUtilTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(reference::TokenJaccard({"a", "b"}, {"b", "a"}), 1.0);
  EXPECT_DOUBLE_EQ(reference::TokenJaccard({"a"}, {"b"}), 0.0);
  EXPECT_DOUBLE_EQ(reference::TokenJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(reference::TokenJaccard({"a", "b"}, {"b", "c"}),
                   1.0 / 3.0);
}

// One DP row reused across every pair, longer and shorter strings mixed,
// gives the referee's allocating results: resizing never leaks a
// previous pair's cells into the next.
TEST(StringUtilTest, ReusedRowMatchesReferee) {
  const std::vector<std::string> words = {
      "",         "a",          "go_id",          "acc",
      "entry_ac", "entry_acc",  "publication id", "kitten",
      "sitting",  "zzzzzzzzzz", "\xc3\xa9t\xc3\xa9", "abcabcabcabc"};
  std::vector<std::size_t> row;
  for (const std::string& a : words) {
    for (const std::string& b : words) {
      EXPECT_EQ(EditDistance(a, b, &row), reference::EditDistance(a, b))
          << a << " / " << b;
      EXPECT_EQ(EditSimilarity(a, b, &row), reference::EditSimilarity(a, b))
          << a << " / " << b;
      EXPECT_EQ(LongestCommonSubstring(a, b, &row),
                reference::LongestCommonSubstring(a, b))
          << a << " / " << b;
    }
  }
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.123456, 2), "0.12");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
}

// Property sweep: edit distance is a metric on a sample of strings.
class EditDistanceMetricTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(EditDistanceMetricTest, SymmetryAndIdentity) {
  auto [a, b] = GetParam();
  std::vector<std::size_t> row;
  EXPECT_EQ(EditDistance(a, b, &row), EditDistance(b, a, &row));
  EXPECT_EQ(EditDistance(a, a, &row), 0u);
  // Triangle inequality through a fixed pivot.
  const char* pivot = "entry";
  EXPECT_LE(EditDistance(a, b, &row),
            EditDistance(a, pivot, &row) + EditDistance(pivot, b, &row));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, EditDistanceMetricTest,
    ::testing::Values(
        std::make_tuple("pub", "publication"),
        std::make_tuple("go_id", "acc"),
        std::make_tuple("entry_ac", "entry_acc"),
        std::make_tuple("", "journal"),
        std::make_tuple("method2pub", "entry2pub"),
        std::make_tuple("name", "short_name")));

}  // namespace
}  // namespace q::util
