#ifndef Q_QUERY_QUERY_GRAPH_H_
#define Q_QUERY_QUERY_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/cost_model.h"
#include "graph/search_graph.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/result.h"

namespace q::query {

struct QueryGraphOptions {
  // Keyword-to-node matches below this tf-idf similarity are dropped.
  double min_similarity = 0.25;
  // Cap on match edges added per keyword (metadata + value matches).
  std::size_t max_matches_per_keyword = 12;
  // Association edges whose current cost exceeds this threshold are left
  // out of the query graph (the pruning threshold of Sec. 5.2.2).
  double association_cost_threshold =
      std::numeric_limits<double>::infinity();
};

// The dynamic expansion of the search graph for one keyword query
// (Sec. 2.2 / Fig. 3): a copy of the search graph plus one keyword node
// per query term, lazily-materialized value nodes for matching tuples,
// and weighted keyword-match edges.
struct QueryGraph {
  graph::SearchGraph graph;
  std::vector<std::string> keywords;
  std::vector<graph::NodeId> keyword_nodes;  // parallel to `keywords`
  // Fingerprint of the keyword->match expansion this graph was built
  // from (see KeywordMatchFingerprint below). Nothing in Q reads it; the
  // benchmark's onboard replay does (ROADMAP item 1 drops it).
  std::uint64_t keyword_fingerprint = 0;
};

// Order-sensitive FNV-1a style hash over exactly the match sets
// BuildQueryGraph would expand for `keywords` against `index`: per
// keyword, the keyword text followed by every (doc_index, score) pair
// returned by index.Search at the options' similarity floor and match
// cap, with the score hashed by bit pattern. Equals the
// keyword_fingerprint of a query graph expanded against the same index.
// Kept for the benchmark's onboard replay (ROADMAP item 1 drops it).
std::uint64_t KeywordMatchFingerprint(const text::TextIndex& index,
                                      const std::vector<std::string>& keywords,
                                      const QueryGraphOptions& options);

// The base half of BuildQueryGraph: a copy of `base` (node ids kept,
// association edges above the options' cost threshold dropped) with no
// keyword nodes yet. Reads only `base` and `weights` and interns nothing,
// so it may run while concurrent readers price against the feature space.
QueryGraph CopyBaseGraph(const graph::SearchGraph& base,
                         const graph::WeightVector& weights,
                         const QueryGraphOptions& options);

// The keyword half: appends to `*out` one keyword node per keyword, the
// value nodes its matches materialize, and the match edges, and sets its
// keywords and keyword_fingerprint. Reads `index` and interns the
// match features into `model`'s feature space, so it must not run while
// anything reads that space through a WeightVector's initial-weight
// fallback. Fails with NotFound if any keyword matches nothing at or
// above min_similarity.
util::Status ExpandKeywords(const text::TextIndex& index,
                            const std::vector<std::string>& keywords,
                            graph::CostModel* model,
                            const QueryGraphOptions& options, QueryGraph* out);

// Builds the query graph: CopyBaseGraph, then ExpandKeywords.
util::Result<QueryGraph> BuildQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options);

}  // namespace q::query

#endif  // Q_QUERY_QUERY_GRAPH_H_
