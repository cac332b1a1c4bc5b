// The pre-compaction SearchGraph storage, kept as a referee for tests of
// graph::SearchGraph: AoS Edge records with inline FeatureVec /
// provenance / join payloads, one std::vector<EdgeId> adjacency list per
// node, value text inline in the node. It has two jobs:
//
//  * graph_scale_test replays one mutation sequence against both
//    representations and asserts the extracted CSR snapshots are
//    identical (same arc blocks in the same order), proving the blocked
//    arena preserves the AoS adjacency order exactly;
//  * graph_scale_test builds the same catalog in both and asserts the
//    compact representation's bytes undercut this one's.
//
// Only the operations those tests replay are supported; this is a
// measurement fixture, not a second graph API. The class body is the
// mirror's from before it left src/, code unchanged except that a repeat
// vote follows SearchGraph::AddAssociationEdge. Only tests link it.
#ifndef Q_TESTS_REFERENCE_GRAPH_REP_H_
#define Q_TESTS_REFERENCE_GRAPH_REP_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/search_graph.h"
#include "util/status.h"

namespace q::graph::reference {

namespace detail {

inline std::string IndexKey(NodeKind kind, std::string_view label) {
  std::string key;
  key += static_cast<char>('0' + static_cast<int>(kind));
  key += '\x1f';
  key += label;
  return key;
}

inline std::uint64_t PairKey(NodeId a, NodeId b) {
  NodeId lo = a < b ? a : b;
  NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

inline std::size_t StringHeapBytes(const std::string& s) {
  constexpr std::size_t kSsoCapacity = 15;
  return s.capacity() > kSsoCapacity ? s.capacity() + 1 : 0;
}

inline std::size_t AttributeIdHeapBytes(const relational::AttributeId& a) {
  return StringHeapBytes(a.source) + StringHeapBytes(a.relation) +
         StringHeapBytes(a.attribute);
}

template <typename Map>
std::size_t HashMapBytes(const Map& map) {
  using Value = typename Map::value_type;
  return map.size() * (sizeof(Value) + 2 * sizeof(void*)) +
         map.bucket_count() * sizeof(void*);
}

}  // namespace detail

class LegacyGraphRep {
 public:
  struct LegacyNode {
    NodeKind kind;
    std::string label;
    relational::AttributeId attr;
    std::string value_text;
  };

  NodeId AddNode(NodeKind kind, std::string label,
                 relational::AttributeId attr = {}) {
    std::string key = detail::IndexKey(kind, label);
    auto it = node_index_.find(key);
    if (it != node_index_.end()) return it->second;
    NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(LegacyNode{kind, std::move(label), std::move(attr), {}});
    adjacency_.emplace_back();
    node_index_.emplace(std::move(key), id);
    return id;
  }

  EdgeId AddEdge(Edge edge) {
    Q_CHECK(edge.u < nodes_.size() && edge.v < nodes_.size());
    Q_CHECK(edge.u != edge.v);
    EdgeId id = static_cast<EdgeId>(edges_.size());
    adjacency_[edge.u].push_back(id);
    adjacency_[edge.v].push_back(id);
    if (edge.kind == EdgeKind::kAssociation) {
      association_index_.emplace(detail::PairKey(edge.u, edge.v), id);
    }
    edges_.push_back(std::move(edge));
    return id;
  }

  // Same merge semantics as SearchGraph::AddAssociationEdge.
  EdgeId AddAssociationEdge(NodeId a, NodeId b, FeatureVec features,
                            MatcherScore score) {
    auto it = association_index_.find(detail::PairKey(a, b));
    if (it != association_index_.end()) {
      Edge& e = edges_[it->second];
      auto vote = std::find_if(e.provenance.begin(), e.provenance.end(),
                               [&score](const MatcherScore& p) {
                                 return p.matcher == score.matcher;
                               });
      if (vote != e.provenance.end() && vote->confidence >= score.confidence) {
        return it->second;
      }
      e.features.AddScaled(features, 1.0);
      for (const auto& [id, value] : features.entries()) {
        if (e.features.ValueOf(id) == 0.0) e.features.Remove(id);
      }
      if (vote != e.provenance.end()) {
        vote->confidence = score.confidence;
      } else {
        e.provenance.push_back(std::move(score));
      }
      return it->second;
    }
    Edge edge;
    edge.u = a;
    edge.v = b;
    edge.kind = EdgeKind::kAssociation;
    edge.features = std::move(features);
    edge.provenance.push_back(std::move(score));
    return AddEdge(std::move(edge));
  }

  // Mirrors the old mutable_edge feature-rewrite path.
  void SetEdgeFeatures(EdgeId id, FeatureVec features) {
    edges_[id].features = std::move(features);
  }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return edges_.size(); }
  const LegacyNode& node(NodeId id) const { return nodes_[id]; }
  const Edge& edge(EdgeId id) const { return edges_[id]; }
  const std::vector<EdgeId>& edges_of(NodeId id) const {
    return adjacency_[id];
  }

  double EdgeCost(EdgeId id, const WeightVector& weights) const {
    const Edge& e = edges_[id];
    if (e.fixed_zero) return 0.0;
    double c = weights.Dot(e.features);
    return c < kMinEdgeCost ? kMinEdgeCost : c;
  }

  // CSR extraction with exactly the layout steiner::CsrGraph::Build
  // produces (per-node arc blocks filled in edge-id order).
  struct LegacyCsr {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> arc_head;
    std::vector<EdgeId> arc_edge;
    std::vector<double> arc_cost;
    std::vector<std::uint32_t> edge_u;
    std::vector<std::uint32_t> edge_v;
    std::vector<double> edge_cost;
  };

  LegacyCsr BuildCsr(const WeightVector& weights) const {
    LegacyCsr csr;
    const std::uint32_t num_nodes = static_cast<std::uint32_t>(nodes_.size());
    const std::uint32_t num_edges = static_cast<std::uint32_t>(edges_.size());

    csr.edge_u.resize(num_edges);
    csr.edge_v.resize(num_edges);
    csr.edge_cost.resize(num_edges);
    std::vector<std::uint32_t> degree(num_nodes + 1, 0);
    for (EdgeId e = 0; e < num_edges; ++e) {
      csr.edge_u[e] = edges_[e].u;
      csr.edge_v[e] = edges_[e].v;
      csr.edge_cost[e] = EdgeCost(e, weights);
      ++degree[edges_[e].u];
      ++degree[edges_[e].v];
    }

    csr.offsets.assign(num_nodes + 1, 0);
    for (std::uint32_t v = 0; v < num_nodes; ++v) {
      csr.offsets[v + 1] = csr.offsets[v] + degree[v];
    }

    const std::size_t num_arcs = 2ull * num_edges;
    csr.arc_head.resize(num_arcs);
    csr.arc_edge.resize(num_arcs);
    csr.arc_cost.resize(num_arcs);
    std::vector<std::uint32_t> cursor(csr.offsets.begin(),
                                      csr.offsets.end() - 1);
    for (EdgeId e = 0; e < num_edges; ++e) {
      std::uint32_t u = csr.edge_u[e];
      std::uint32_t v = csr.edge_v[e];
      double cost = csr.edge_cost[e];
      std::uint32_t cu = cursor[u]++;
      csr.arc_head[cu] = v;
      csr.arc_edge[cu] = e;
      csr.arc_cost[cu] = cost;
      std::uint32_t cv = cursor[v]++;
      csr.arc_head[cv] = u;
      csr.arc_edge[cv] = e;
      csr.arc_cost[cv] = cost;
    }
    return csr;
  }

  // Estimated resident bytes of this representation (same estimation
  // rules as SearchGraph::MemoryUsage so the two are comparable).
  std::size_t MemoryUsage() const {
    using detail::AttributeIdHeapBytes;
    using detail::StringHeapBytes;
    std::size_t bytes = nodes_.capacity() * sizeof(LegacyNode);
    for (const LegacyNode& n : nodes_) {
      bytes += StringHeapBytes(n.label) + AttributeIdHeapBytes(n.attr) +
               StringHeapBytes(n.value_text);
    }

    bytes += edges_.capacity() * sizeof(Edge);
    for (const Edge& e : edges_) {
      bytes += e.features.entries().capacity() *
               sizeof(std::pair<FeatureId, double>);
      bytes += e.provenance.capacity() * sizeof(MatcherScore);
      for (const MatcherScore& s : e.provenance) {
        bytes += StringHeapBytes(s.matcher);
      }
      bytes += AttributeIdHeapBytes(e.join_a) + AttributeIdHeapBytes(e.join_b);
    }

    bytes += adjacency_.capacity() * sizeof(std::vector<EdgeId>);
    for (const std::vector<EdgeId>& adj : adjacency_) {
      bytes += adj.capacity() * sizeof(EdgeId);
    }

    bytes += detail::HashMapBytes(node_index_);
    for (const auto& [key, id] : node_index_) bytes += StringHeapBytes(key);
    bytes += detail::HashMapBytes(association_index_);
    return bytes;
  }

 private:
  std::vector<LegacyNode> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::unordered_map<std::uint64_t, EdgeId> association_index_;
};

}  // namespace q::graph::reference

#endif  // Q_TESTS_REFERENCE_GRAPH_REP_H_
