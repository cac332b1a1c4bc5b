#include "match/metadata_matcher.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/string_util.h"

namespace q::match {
namespace {

// What scoring needs of one attribute or relation name.
struct NameProfile {
  // Synonym-normalized identifier tokens, sorted and deduplicated.
  std::vector<std::string> tokens;
  // The normalized tokens in name order, joined by " ".
  std::string joined;
  // Character trigrams of ToLower(joined) padded with "##" on both sides,
  // each packed from its three bytes; sorted and deduplicated, empty when
  // `joined` is.
  std::vector<std::uint32_t> trigrams;
  // ToLower(name).
  std::string lower;
};

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

NameProfile ProfileName(const SynonymDictionary& dict, std::string_view name) {
  NameProfile p;
  p.tokens = dict.Normalize(util::TokenizeIdentifier(name));
  p.joined = util::Join(p.tokens, " ");
  if (!p.joined.empty()) {
    const std::string padded = "##" + util::ToLower(p.joined) + "##";
    const auto* c = reinterpret_cast<const unsigned char*>(padded.data());
    for (std::size_t i = 0; i + 3 <= padded.size(); ++i) {
      p.trigrams.push_back(std::uint32_t{c[i]} << 16 |
                           std::uint32_t{c[i + 1]} << 8 | c[i + 2]);
    }
    SortUnique(&p.trigrams);
  }
  SortUnique(&p.tokens);
  p.lower = util::ToLower(name);
  return p;
}

// Jaccard similarity of two sorted, deduplicated sets, by merge: 1 when
// both are empty, 0 when only one is.
template <typename T>
double SortedJaccard(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::size_t intersect = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++intersect;
      ++i;
      ++j;
    }
  }
  std::size_t unions = a.size() + b.size() - intersect;
  return static_cast<double>(intersect) / static_cast<double>(unions);
}

// The best of token Jaccard, edit similarity of the joined tokens, and
// their trigram Jaccard. `row` is the caller's DP scratch.
double NameSimilarity(const NameProfile& a, const NameProfile& b,
                      std::vector<std::size_t>* row) {
  double token = SortedJaccard(a.tokens, b.tokens);
  double edit = util::EditSimilarity(a.joined, b.joined, row);
  double trigram = SortedJaccard(a.trigrams, b.trigrams);
  return std::max({token, edit, trigram});
}

// COMA-style substring score: longest common substring of the lowercased
// names over the longer one's length, 1 when both are empty.
double SubstringSimilarity(const NameProfile& a, const NameProfile& b,
                           std::vector<std::size_t>* row) {
  std::size_t longest = std::max(a.lower.size(), b.lower.size());
  if (longest == 0) return 1.0;
  return static_cast<double>(
             util::LongestCommonSubstring(a.lower, b.lower, row)) /
         static_cast<double>(longest);
}

// The pair score in [0, 1]; `structure` is the owning relations'
// NameSimilarity.
double Score(const MetadataMatcherConfig& config, const NameProfile& a,
             relational::ValueType type_a, const NameProfile& b,
             relational::ValueType type_b, double structure,
             std::vector<std::size_t>* row) {
  double name = NameSimilarity(a, b, row);
  double substring = SubstringSimilarity(a, b, row);
  double type = type_a == type_b ? 1.0 : 0.2;

  double score = config.name_weight * name +
                 config.substring_weight * substring +
                 config.structure_weight * structure +
                 config.type_weight * type;
  double total = config.name_weight + config.substring_weight +
                 config.structure_weight + config.type_weight;
  return total > 0 ? score / total : 0.0;
}

}  // namespace

// One relation's profiles, built once per call that aligns it.
struct MetadataMatcher::TableProfile {
  const relational::RelationSchema* schema = nullptr;
  NameProfile relation;
  std::vector<NameProfile> attributes;
  std::vector<relational::AttributeId> ids;
};

MetadataMatcher::TableProfile MetadataMatcher::ProfileTable(
    const relational::RelationSchema& schema) const {
  TableProfile p;
  p.schema = &schema;
  p.relation = ProfileName(synonyms_, schema.relation());
  for (std::size_t i = 0; i < schema.num_attributes(); ++i) {
    p.attributes.push_back(
        ProfileName(synonyms_, schema.attributes()[i].name));
    p.ids.push_back(schema.IdOf(i));
  }
  return p;
}

std::vector<AlignmentCandidate> MetadataMatcher::AlignProfiles(
    const TableProfile& a, const TableProfile& b, int top_y) {
  CountPairAlignment();
  std::vector<std::size_t> row;
  const double structure = NameSimilarity(a.relation, b.relation, &row);
  std::vector<AlignmentCandidate> all;
  for (std::size_t i = 0; i < a.ids.size(); ++i) {
    for (std::size_t j = 0; j < b.ids.size(); ++j) {
      if (!PassesFilter(a.ids[i], b.ids[j])) continue;
      CountComparison();
      double score = Score(config_, a.attributes[i],
                           a.schema->attributes()[i].type, b.attributes[j],
                           b.schema->attributes()[j].type, structure, &row);
      if (score < config_.min_confidence) continue;
      all.push_back(AlignmentCandidate{a.ids[i], b.ids[j], score,
                                       std::string(name())});
    }
  }
  return TopYPerAttribute(std::move(all), top_y);
}

double MetadataMatcher::ScorePair(const relational::RelationSchema& schema_a,
                                  std::size_t attr_a,
                                  const relational::RelationSchema& schema_b,
                                  std::size_t attr_b) const {
  const auto& def_a = schema_a.attributes()[attr_a];
  const auto& def_b = schema_b.attributes()[attr_b];
  std::vector<std::size_t> row;
  double structure =
      NameSimilarity(ProfileName(synonyms_, schema_a.relation()),
                     ProfileName(synonyms_, schema_b.relation()), &row);
  return Score(config_, ProfileName(synonyms_, def_a.name), def_a.type,
               ProfileName(synonyms_, def_b.name), def_b.type, structure,
               &row);
}

util::Result<std::vector<AlignmentCandidate>> MetadataMatcher::AlignPair(
    const relational::Table& existing, const relational::Table& incoming,
    int top_y) {
  return AlignProfiles(ProfileTable(existing.schema()),
                       ProfileTable(incoming.schema()), top_y);
}

util::Result<std::vector<AlignmentCandidate>>
MetadataMatcher::InduceAlignments(
    const std::vector<const relational::Table*>& tables, int top_y) {
  std::vector<TableProfile> profiles;
  profiles.reserve(tables.size());
  for (const relational::Table* t : tables) {
    profiles.push_back(ProfileTable(t->schema()));
  }
  std::vector<AlignmentCandidate> all;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      for (auto& c : AlignProfiles(profiles[i], profiles[j], top_y)) {
        all.push_back(std::move(c));
      }
    }
  }
  return TopYPerAttribute(std::move(all), top_y);
}

}  // namespace q::match
