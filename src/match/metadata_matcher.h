#ifndef Q_MATCH_METADATA_MATCHER_H_
#define Q_MATCH_METADATA_MATCHER_H_

#include <string_view>
#include <vector>

#include "match/matcher.h"
#include "match/synonyms.h"

namespace q::match {

struct MetadataMatcherConfig {
  // Weights of the component scores (renormalized over the components
  // actually present); mirrors COMA++'s default combination of name-,
  // structure- and datatype-level sub-matchers over metadata.
  double name_weight = 0.55;
  double substring_weight = 0.15;
  double structure_weight = 0.15;
  double type_weight = 0.15;
  // Candidates below this confidence are dropped. The structural and
  // type components alone contribute up to ~0.35 for entirely unrelated
  // attributes, so the floor sits above that noise level.
  double min_confidence = 0.45;
};

// Metadata-only schema matcher standing in for the COMA++ 2008 Java API
// (see DESIGN.md substitutions). It scores attribute pairs from schema
// information alone — tokenized names (with abbreviation expansion, edit
// distance, and trigram similarity), substring overlap, the owning
// relations' name similarity (structural context), and declared-type
// compatibility — and never looks at instances, reproducing COMA++'s
// metadata-mode behavior in the paper's experiments (footnote 1).
//
// Every name is profiled once per call (normalized tokens, their joined
// form, its trigrams, the lowercased name), so a comparison is two sorted
// merges and two small DPs over strings derived in advance.
class MetadataMatcher final : public Matcher {
 public:
  explicit MetadataMatcher(
      MetadataMatcherConfig config = MetadataMatcherConfig(),
      SynonymDictionary synonyms = SynonymDictionary::Default())
      : config_(config), synonyms_(std::move(synonyms)) {}

  std::string_view name() const override { return "metadata"; }

  util::Result<std::vector<AlignmentCandidate>> AlignPair(
      const relational::Table& existing, const relational::Table& incoming,
      int top_y) override;

  // The default's output and counts, with each table profiled once for
  // the whole call instead of once per relation pair.
  util::Result<std::vector<AlignmentCandidate>> InduceAlignments(
      const std::vector<const relational::Table*>& tables,
      int top_y) override;

  // Exposed for tests: the raw pair score in [0, 1].
  double ScorePair(const relational::RelationSchema& schema_a,
                   std::size_t attr_a,
                   const relational::RelationSchema& schema_b,
                   std::size_t attr_b) const;

 private:
  struct TableProfile;

  TableProfile ProfileTable(const relational::RelationSchema& schema) const;
  std::vector<AlignmentCandidate> AlignProfiles(const TableProfile& a,
                                                const TableProfile& b,
                                                int top_y);

  MetadataMatcherConfig config_;
  SynonymDictionary synonyms_;
};

}  // namespace q::match

#endif  // Q_MATCH_METADATA_MATCHER_H_
