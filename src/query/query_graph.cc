#include "query/query_graph.h"

#include <cstring>
#include <optional>

#include "util/logging.h"

namespace q::query {
namespace {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void MixFingerprint(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= kFnvPrime;
}

// One keyword's contribution: the keyword text, a separator, then every
// (doc_index, score-bit-pattern) pair in ranked order. Must stay in
// lockstep with how BuildQueryGraph consumes index.Search results.
void MixKeywordMatches(std::uint64_t* h, const std::string& keyword,
                       const std::vector<text::ScoredDoc>& matches) {
  for (char c : keyword) {
    MixFingerprint(h, static_cast<unsigned char>(c));
  }
  MixFingerprint(h, 0xffu);
  for (const text::ScoredDoc& match : matches) {
    MixFingerprint(h, static_cast<std::uint64_t>(match.doc_index));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(match.score));
    std::memcpy(&bits, &match.score, sizeof(bits));
    MixFingerprint(h, bits);
  }
}

// Copies `base` into `out`, dropping association edges whose current cost
// exceeds the threshold. Node ids are preserved; edge ids may shift.
void CopyGraphFiltered(const graph::SearchGraph& base,
                       const graph::WeightVector& weights,
                       double association_cost_threshold,
                       graph::SearchGraph* out) {
  for (graph::NodeId n = 0; n < base.num_nodes(); ++n) {
    const graph::Node& node = base.node(n);
    graph::NodeId added = out->AddNode(node.kind, node.label, node.attr);
    Q_CHECK(added == n);
    const std::string& value_text = base.node_value_text(n);
    if (!value_text.empty()) out->SetNodeValueText(added, value_text);
  }
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e) {
    const graph::EdgeView edge = base.edge(e);
    if (edge.kind == graph::EdgeKind::kAssociation &&
        base.EdgeCost(e, weights) > association_cost_threshold) {
      continue;
    }
    out->AddEdge(base.ExportEdge(e));
  }
}

}  // namespace

std::uint64_t KeywordMatchFingerprint(const text::TextIndex& index,
                                      const std::vector<std::string>& keywords,
                                      const QueryGraphOptions& options) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::string& keyword : keywords) {
    MixKeywordMatches(&h, keyword,
                      index.Search(keyword, options.min_similarity,
                                   options.max_matches_per_keyword));
  }
  return h;
}

QueryGraph CopyBaseGraph(const graph::SearchGraph& base,
                         const graph::WeightVector& weights,
                         const QueryGraphOptions& options) {
  QueryGraph qg;
  // Only the base graph's delta journal is ever read (the RefreshEngine
  // classifies views from base.DeltaSince); a query-graph copy would just
  // buffer one record per copied node/edge, so keep its journal capacity
  // minimal. Its revision counter still advances normally.
  qg.graph.set_max_journal_entries(1);
  CopyGraphFiltered(base, weights, options.association_cost_threshold,
                    &qg.graph);
  return qg;
}

util::Result<QueryGraph> BuildQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options) {
  QueryGraph qg = CopyBaseGraph(base, weights, options);
  Q_RETURN_NOT_OK(ExpandKeywords(index, keywords, model, options, &qg));
  return qg;
}

util::Status ExpandKeywords(const text::TextIndex& index,
                            const std::vector<std::string>& keywords,
                            graph::CostModel* model,
                            const QueryGraphOptions& options, QueryGraph* out) {
  QueryGraph& qg = *out;
  qg.keywords = keywords;
  qg.keyword_fingerprint = kFnvOffsetBasis;
  for (const std::string& keyword : keywords) {
    graph::NodeId kw_node =
        qg.graph.AddNode(graph::NodeKind::kKeyword, "kw:" + keyword);
    qg.keyword_nodes.push_back(kw_node);

    auto matches = index.Search(keyword, options.min_similarity,
                                options.max_matches_per_keyword);
    MixKeywordMatches(&qg.keyword_fingerprint, keyword, matches);
    std::size_t edges_added = 0;
    for (const text::ScoredDoc& match : matches) {
      const text::Document& doc = index.documents()[match.doc_index];
      std::optional<graph::NodeId> target;
      std::string owning_relation;
      switch (doc.kind) {
        case text::DocKind::kRelationName: {
          target = qg.graph.FindRelationNode(doc.attr.RelationQualifiedName());
          owning_relation = doc.attr.RelationQualifiedName();
          break;
        }
        case text::DocKind::kAttributeName: {
          target = qg.graph.FindAttributeNode(doc.attr);
          owning_relation = doc.attr.RelationQualifiedName();
          break;
        }
        case text::DocKind::kValue: {
          auto attr_node = qg.graph.FindAttributeNode(doc.attr);
          if (!attr_node.has_value()) break;
          owning_relation = doc.attr.RelationQualifiedName();
          // Lazily materialize the value node (shared across keywords).
          std::string label = doc.attr.ToString() + "=" + doc.text;
          auto existing = qg.graph.FindNode(graph::NodeKind::kValue, label);
          if (existing.has_value()) {
            target = existing;
          } else {
            graph::NodeId vnode = qg.graph.AddNode(graph::NodeKind::kValue,
                                                   label, doc.attr);
            // Record the raw text for selection-predicate generation.
            qg.graph.SetNodeValueText(vnode, doc.text);
            graph::Edge membership;
            membership.u = vnode;
            membership.v = *attr_node;
            membership.kind = graph::EdgeKind::kValueMembership;
            membership.fixed_zero = true;
            qg.graph.AddEdge(std::move(membership));
            target = vnode;
          }
          break;
        }
      }
      if (!target.has_value()) continue;

      double mismatch = 1.0 - match.score;  // s_i of Fig. 3
      graph::Edge edge;
      edge.u = kw_node;
      edge.v = *target;
      edge.kind = graph::EdgeKind::kKeywordMatch;
      std::string key = keyword + "|" + qg.graph.node(*target).label;
      edge.features =
          model->KeywordMatchFeatures(mismatch, owning_relation, key);
      qg.graph.AddEdge(std::move(edge));
      ++edges_added;
    }
    if (edges_added == 0) {
      return util::Status::NotFound("keyword '" + keyword +
                                    "' matched no schema element or value");
    }
  }
  return util::Status::OK();
}

}  // namespace q::query
