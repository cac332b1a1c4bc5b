#ifndef Q_QUERY_RANKED_UNION_H_
#define Q_QUERY_RANKED_UNION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "query/conjunctive_query.h"
#include "query/query_graph.h"
#include "relational/value.h"

namespace q::query {

// One ranked answer of the unified view, with provenance back to the
// query (and hence Steiner tree) that produced it.
struct ResultRow {
  std::vector<relational::Value> values;  // aligned with columns
  double cost = 0.0;
  std::size_t query_index = 0;
};

struct RankedResults {
  std::vector<std::string> columns;  // the unified output schema Q_A
  std::vector<ResultRow> rows;       // ascending cost
};

// Disjoint ("outer") union of per-query results with output-schema
// unification (Sec. 2.2): queries are processed in increasing cost order;
// an output attribute is folded into an existing column when they share a
// label or when a similarity (association) edge cheaper than
// `similarity_threshold` links the two attributes in the query graph;
// otherwise it opens a new column. Missing columns are null-padded.
// `per_query_rows` is consumed: each cell moves into its result row, so a
// caller that has no further use for its rows hands them over with
// std::move instead of paying for a copy of every cell.
RankedResults DisjointUnion(
    const QueryGraph& qg, const graph::WeightVector& weights,
    const std::vector<ConjunctiveQuery>& queries,
    std::vector<std::vector<relational::Row>> per_query_rows,
    double similarity_threshold);

}  // namespace q::query

#endif  // Q_QUERY_RANKED_UNION_H_
