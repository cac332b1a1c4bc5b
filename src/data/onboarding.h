#ifndef Q_DATA_ONBOARDING_H_
#define Q_DATA_ONBOARDING_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "relational/catalog.h"

namespace q::data {

// Synthetic catalog purpose-built for the streaming-onboarding suites
// (tests/onboarding_test.cc, tests/serve_concurrency_test.cc):
// `num_communities` isolated two-table islands whose keyword vocabulary
// is pairwise disjoint, so each community hosts exactly one keyword view
// and a registration's effect on every view is known in advance:
//
//   * every view keyword matches its attribute-name document exactly
//     (cosine similarity 1.0 regardless of corpus size), so registering
//     a vocabulary-disjoint source never perturbs any view's keyword
//     match set or scores: rebuilding the view reproduces its output;
//   * communities are separate graph components, so an association
//     landing in community j changes no other community's view.
//
// Community i ("src<i>"): relation "rela<i>" {qa<i>, lka, lkb} and
// relation "relb<i>" {qb<i>, lka, lkb}, joined by two parallel declared
// foreign keys (lka->lka, lkb->lkb) — exactly two proper Steiner trees
// per view, so k=2 views fill their top-k while k>=3 views keep
// head-room for an onboarded source to enter the ranking. The view for
// community i asks {"qa<i>", "qb<i>"}. Row values are community-tagged
// letter strings (never numeric, never shared across communities).
struct OnboardingDataset {
  std::vector<std::shared_ptr<relational::DataSource>> sources;
  // keyword_queries[i] is community i's two-keyword view query.
  std::vector<std::vector<std::string>> keyword_queries;
};

OnboardingDataset BuildOnboardingDataset(std::size_t num_communities,
                                         std::size_t rows_per_table = 6);

// A source whose entire vocabulary (relation/attribute names and row
// values) is disjoint from every community and every other disjoint
// source: registering it adds a disconnected graph island, matches no
// keyword, and aligns with nothing — every view's output stays the same.
// `serial` disambiguates repeated registrations.
std::shared_ptr<relational::DataSource> MakeDisjointSource(
    std::size_t serial, std::size_t rows_per_table = 6);

// A source relevant to community `target`: its table carries an
// attribute named "qa<target>" (so the community's view keyword now
// matches it too) whose values equal rela<target>.qa<target>'s values
// (so the MAD matcher aligns the two attributes on registration). Every
// other community's view is provably unaffected. `serial` disambiguates
// repeated registrations.
std::shared_ptr<relational::DataSource> MakeOverlappingSource(
    std::size_t serial, std::size_t target, std::size_t rows_per_table = 6);

// Base-26 letter encoding ("aaa", "aab", ...) used for every generated
// identifier: letters-only tokens survive identifier tokenization as one
// token and can never collide with another prefix's vocabulary.
std::string OnboardingCode(std::size_t n);

}  // namespace q::data

#endif  // Q_DATA_ONBOARDING_H_
