// The metadata matcher's per-pair scorer from before names were
// profiled, kept as a referee for differential tests of
// match::MetadataMatcher. Every ScorePair re-tokenizes, re-normalizes and
// re-joins both attribute names and both relation names, and builds hash
// sets of their tokens and trigrams; InduceAlignments is the Matcher
// default (AlignPair over every unordered relation pair). The class body
// is that scorer's, code unchanged, and the similarity functions are
// util/string_util's allocating versions, of which EditDistance,
// EditSimilarity and LongestCommonSubstring live on in src/ with a
// caller-owned DP row. Only tests link them.
#ifndef Q_TESTS_REFERENCE_METADATA_MATCHER_H_
#define Q_TESTS_REFERENCE_METADATA_MATCHER_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "match/matcher.h"
#include "match/metadata_matcher.h"
#include "match/synonyms.h"
#include "util/string_util.h"

namespace q::match::reference {

// Levenshtein edit distance.
inline std::size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  // One-row DP; a is the shorter string.
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t insert_or_delete = std::min(row[i], row[i - 1]) + 1;
      std::size_t substitute = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min(insert_or_delete, substitute);
    }
  }
  return row[a.size()];
}

// 1 - EditDistance/max(|a|,|b|), in [0,1]; 1 when both empty.
inline double EditSimilarity(std::string_view a, std::string_view b) {
  std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

// Set of character n-grams of length `n` (over the lowercased string,
// padded with '#'); empty for empty input.
inline std::unordered_set<std::string> CharNGrams(std::string_view s,
                                                  std::size_t n) {
  std::unordered_set<std::string> grams;
  if (s.empty() || n == 0) return grams;
  std::string padded(n - 1, '#');
  padded += util::ToLower(s);
  padded.append(n - 1, '#');
  for (std::size_t i = 0; i + n <= padded.size(); ++i) {
    grams.insert(padded.substr(i, n));
  }
  return grams;
}

// Jaccard similarity of character trigram sets, in [0,1].
inline double TrigramSimilarity(std::string_view a, std::string_view b) {
  auto ga = CharNGrams(a, 3);
  auto gb = CharNGrams(b, 3);
  if (ga.empty() && gb.empty()) return 1.0;
  if (ga.empty() || gb.empty()) return 0.0;
  std::size_t intersect = 0;
  for (const auto& g : ga) {
    if (gb.count(g) > 0) ++intersect;
  }
  std::size_t unions = ga.size() + gb.size() - intersect;
  return static_cast<double>(intersect) / static_cast<double>(unions);
}

// Length of the longest common substring.
inline std::size_t LongestCommonSubstring(std::string_view a,
                                          std::string_view b) {
  if (a.empty() || b.empty()) return 0;
  std::vector<std::size_t> row(b.size() + 1, 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev_diag = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t saved = row[j];
      row[j] = (a[i - 1] == b[j - 1]) ? prev_diag + 1 : 0;
      best = std::max(best, row[j]);
      prev_diag = saved;
    }
  }
  return best;
}

// COMA-style substring score: LCS length / max(|a|,|b|) over lowercased
// inputs, in [0,1].
inline double SubstringSimilarity(std::string_view a, std::string_view b) {
  std::string la = util::ToLower(a);
  std::string lb = util::ToLower(b);
  std::size_t longest = std::max(la.size(), lb.size());
  if (longest == 0) return 1.0;
  return static_cast<double>(LongestCommonSubstring(la, lb)) /
         static_cast<double>(longest);
}

// Jaccard similarity between two token sets.
inline double TokenJaccard(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  std::size_t intersect = 0;
  for (const auto& t : sa) {
    if (sb.count(t) > 0) ++intersect;
  }
  std::size_t unions = sa.size() + sb.size() - intersect;
  return static_cast<double>(intersect) / static_cast<double>(unions);
}

inline double NameSimilarity(const SynonymDictionary& dict,
                             std::string_view a, std::string_view b) {
  auto ta = dict.Normalize(util::TokenizeIdentifier(a));
  auto tb = dict.Normalize(util::TokenizeIdentifier(b));
  std::string ja = util::Join(ta, " ");
  std::string jb = util::Join(tb, " ");
  double token = TokenJaccard(ta, tb);
  double edit = EditSimilarity(ja, jb);
  double trigram = TrigramSimilarity(ja, jb);
  return std::max({token, edit, trigram});
}

class MetadataMatcher final : public Matcher {
 public:
  explicit MetadataMatcher(
      MetadataMatcherConfig config = MetadataMatcherConfig(),
      SynonymDictionary synonyms = SynonymDictionary::Default())
      : config_(config), synonyms_(std::move(synonyms)) {}

  std::string_view name() const override { return "metadata"; }

  double ScorePair(const relational::RelationSchema& schema_a,
                   std::size_t attr_a,
                   const relational::RelationSchema& schema_b,
                   std::size_t attr_b) const {
    const auto& def_a = schema_a.attributes()[attr_a];
    const auto& def_b = schema_b.attributes()[attr_b];

    double name = NameSimilarity(synonyms_, def_a.name, def_b.name);
    double substring = SubstringSimilarity(def_a.name, def_b.name);
    double structure =
        NameSimilarity(synonyms_, schema_a.relation(), schema_b.relation());
    double type = def_a.type == def_b.type ? 1.0 : 0.2;

    double score = config_.name_weight * name +
                   config_.substring_weight * substring +
                   config_.structure_weight * structure +
                   config_.type_weight * type;
    double total = config_.name_weight + config_.substring_weight +
                   config_.structure_weight + config_.type_weight;
    return total > 0 ? score / total : 0.0;
  }

  util::Result<std::vector<AlignmentCandidate>> AlignPair(
      const relational::Table& existing, const relational::Table& incoming,
      int top_y) override {
    CountPairAlignment();
    const auto& sa = existing.schema();
    const auto& sb = incoming.schema();
    std::vector<AlignmentCandidate> all;
    for (std::size_t i = 0; i < sa.num_attributes(); ++i) {
      for (std::size_t j = 0; j < sb.num_attributes(); ++j) {
        relational::AttributeId ida = sa.IdOf(i);
        relational::AttributeId idb = sb.IdOf(j);
        if (!PassesFilter(ida, idb)) continue;
        CountComparison();
        double score = ScorePair(sa, i, sb, j);
        if (score < config_.min_confidence) continue;
        all.push_back(AlignmentCandidate{std::move(ida), std::move(idb),
                                         score, std::string(name())});
      }
    }
    return TopYPerAttribute(std::move(all), top_y);
  }

 private:
  MetadataMatcherConfig config_;
  SynonymDictionary synonyms_;
};

}  // namespace q::match::reference

#endif  // Q_TESTS_REFERENCE_METADATA_MATCHER_H_
