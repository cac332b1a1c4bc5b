#include "query/ranked_union.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace q::query {
namespace {

// Finds a column index of QA this attribute should reuse: exact label
// match first, then any similarity edge under the threshold to an
// attribute whose label is already a column.
std::optional<std::size_t> FindCompatibleColumn(
    const QueryGraph& qg, const graph::WeightVector& weights,
    const relational::AttributeId& attr, const std::string& label,
    const std::vector<std::string>& columns,
    const std::vector<bool>& used, double similarity_threshold) {
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (!used[c] && columns[c] == label) return c;
  }
  auto node = qg.graph.FindAttributeNode(attr);
  if (!node.has_value()) return std::nullopt;
  for (graph::EdgeId eid : qg.graph.edges_of(*node)) {
    const graph::EdgeView e = qg.graph.edge(eid);
    if (e.kind != graph::EdgeKind::kAssociation) continue;
    if (qg.graph.EdgeCost(eid, weights) > similarity_threshold) continue;
    const graph::Node& other = qg.graph.node(e.Other(*node));
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (!used[c] && columns[c] == other.attr.attribute) return c;
    }
  }
  return std::nullopt;
}

}  // namespace

RankedResults DisjointUnion(
    const QueryGraph& qg, const graph::WeightVector& weights,
    const std::vector<ConjunctiveQuery>& queries,
    std::vector<std::vector<relational::Row>> per_query_rows,
    double similarity_threshold) {
  RankedResults out;
  // column index per (query, select position)
  std::vector<std::vector<std::size_t>> mapping(queries.size());

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const ConjunctiveQuery& cq = queries[qi];
    std::vector<bool> used(out.columns.size(), false);
    for (const OutputColumn& col : cq.select_list) {
      auto reuse = FindCompatibleColumn(qg, weights, col.attr, col.label,
                                        out.columns, used,
                                        similarity_threshold);
      std::size_t target;
      if (reuse.has_value()) {
        target = *reuse;
      } else {
        target = out.columns.size();
        out.columns.push_back(col.label);
        used.push_back(false);
      }
      used[target] = true;
      mapping[qi].push_back(target);
    }
  }

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    for (relational::Row& row : per_query_rows[qi]) {
      ResultRow r;
      r.values.assign(out.columns.size(), relational::Value::Null());
      for (std::size_t i = 0; i < row.size() && i < mapping[qi].size();
           ++i) {
        r.values[mapping[qi][i]] = std::move(row[i]);
      }
      r.cost = queries[qi].cost;
      r.query_index = qi;
      out.rows.push_back(std::move(r));
    }
  }
  std::stable_sort(out.rows.begin(), out.rows.end(),
                   [](const ResultRow& a, const ResultRow& b) {
                     return a.cost < b.cost;
                   });
  return out;
}

}  // namespace q::query
