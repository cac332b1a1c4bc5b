// The Sec. 3.2.3 top-Y reveal procedure, kept beside the test that pins
// it: no production path calls it (registration aligns through
// align::Aligner with matchers that report top-Y lists themselves).
#ifndef Q_TESTS_TOP_Y_REVEAL_H_
#define Q_TESTS_TOP_Y_REVEAL_H_

#include <string>
#include <utility>
#include <vector>

#include "match/matcher.h"

namespace q::match {

struct TopYRevealOptions {
  // Alignments at or above this confidence are trusted outright and not
  // probed for alternatives (Sec. 3.2.3: "unless the top alignment has
  // very high confidence").
  double high_confidence = 0.9;
  // Number of alternatives to reveal per attribute (the paper's Y,
  // "typically 2 or 3").
  int top_y = 2;
};

// The Sec. 3.2.3 procedure for forcing a pairwise black-box matcher that
// only reports its top alignment to reveal its top-Y overall alignments:
// compute the top alignment between the pair; then, for each alignment
// pair (A, B) without high confidence, suppress A and re-run to find the
// "next best" alignment with B, then suppress B and repeat. Suppression
// is implemented through the matcher's pair filter, so any Matcher works
// unmodified. The matcher's previous pair filter is restored on return.
inline util::Result<std::vector<AlignmentCandidate>> RevealTopYAlignments(
    Matcher* matcher, const relational::Table& existing,
    const relational::Table& incoming, const TopYRevealOptions& options) {
  // Top-1 alignments as the black box reports them.
  Q_ASSIGN_OR_RETURN(std::vector<AlignmentCandidate> top,
                     matcher->AlignPair(existing, incoming, 1));

  std::vector<AlignmentCandidate> all = top;
  for (const AlignmentCandidate& pair : top) {
    if (pair.confidence >= options.high_confidence) continue;
    // Probe for the next-best partner of each endpoint by suppressing the
    // other endpoint and re-running the pairwise alignment.
    for (int side = 0; side < 2; ++side) {
      const relational::AttributeId& suppressed =
          side == 0 ? pair.a : pair.b;
      const relational::AttributeId& kept = side == 0 ? pair.b : pair.a;
      std::string suppressed_key = suppressed.ToString();
      std::string kept_key = kept.ToString();
      matcher->set_pair_filter(
          [&suppressed_key, &kept_key](const relational::AttributeId& x,
                                       const relational::AttributeId& y) {
            // Remove the suppressed attribute entirely, and only look at
            // pairs involving the kept endpoint (we want *its* next-best).
            if (x.ToString() == suppressed_key ||
                y.ToString() == suppressed_key) {
              return false;
            }
            return x.ToString() == kept_key || y.ToString() == kept_key;
          });
      auto rerun = matcher->AlignPair(existing, incoming, 1);
      matcher->set_pair_filter(nullptr);
      Q_RETURN_NOT_OK(rerun.status());
      for (auto& alt : *rerun) all.push_back(std::move(alt));
      if (static_cast<int>(all.size()) >
          options.top_y * static_cast<int>(top.size()) * 2) {
        break;  // plenty of alternatives collected
      }
    }
  }
  return TopYPerAttribute(std::move(all), options.top_y);
}

}  // namespace q::match

#endif  // Q_TESTS_TOP_Y_REVEAL_H_
