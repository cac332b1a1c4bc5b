// Pluggable pairwise string similarities, kept beside the test that pins
// them: keyword matching scores with the text index's tf-idf and the
// metadata matcher scores from its own name profiles, so no production
// path uses these. The trigram and token Jaccards are the referee's.
#ifndef Q_TESTS_SIMILARITY_H_
#define Q_TESTS_SIMILARITY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "reference_metadata_matcher.h"
#include "util/string_util.h"

namespace q::text {

// Pluggable pairwise string similarity in [0, 1] (Sec. 2.2: the keyword
// similarity metric is tf-idf by default "although other metrics such as
// edit distance or n-grams could be used").
class StringSimilarity {
 public:
  virtual ~StringSimilarity() = default;
  virtual std::string_view name() const = 0;
  virtual double Score(std::string_view a, std::string_view b) const = 0;
};

// Normalized Levenshtein similarity.
class EditDistanceSimilarity final : public StringSimilarity {
 public:
  std::string_view name() const override { return "edit_distance"; }
  double Score(std::string_view a, std::string_view b) const override {
    std::vector<std::size_t> row;
    return util::EditSimilarity(util::ToLower(a), util::ToLower(b), &row);
  }
};

// Character trigram Jaccard similarity.
class NGramSimilarity final : public StringSimilarity {
 public:
  std::string_view name() const override { return "ngram"; }
  double Score(std::string_view a, std::string_view b) const override {
    return match::reference::TrigramSimilarity(a, b);
  }
};

// Token-set Jaccard with identifier-aware tokenization (snake/camel).
class TokenJaccardSimilarity final : public StringSimilarity {
 public:
  std::string_view name() const override { return "token_jaccard"; }
  double Score(std::string_view a, std::string_view b) const override {
    return match::reference::TokenJaccard(util::TokenizeIdentifier(a),
                                          util::TokenizeIdentifier(b));
  }
};

// Factory by name ("edit_distance" | "ngram" | "token_jaccard").
inline std::unique_ptr<StringSimilarity> MakeSimilarity(
    std::string_view name) {
  if (name == "edit_distance") {
    return std::make_unique<EditDistanceSimilarity>();
  }
  if (name == "ngram") return std::make_unique<NGramSimilarity>();
  if (name == "token_jaccard") {
    return std::make_unique<TokenJaccardSimilarity>();
  }
  return nullptr;
}

}  // namespace q::text

#endif  // Q_TESTS_SIMILARITY_H_
