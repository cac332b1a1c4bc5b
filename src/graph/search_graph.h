#ifndef Q_GRAPH_SEARCH_GRAPH_H_
#define Q_GRAPH_SEARCH_GRAPH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/feature.h"
#include "relational/schema.h"
#include "util/result.h"

namespace q::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

// Guard so Dijkstra/Steiner costs stay strictly positive even mid-learning.
inline constexpr double kMinEdgeCost = 1e-9;

enum class NodeKind {
  kRelation = 0,
  kAttribute = 1,
  kValue = 2,    // lazily materialized data value (query graphs only)
  kKeyword = 3,  // query keyword (query graphs only)
};

std::string_view NodeKindToString(NodeKind kind);

struct Node {
  NodeKind kind;
  // Canonical label: qualified relation/attribute name, "<attr>=<text>"
  // for value nodes, or the keyword string.
  std::string label;
  // For kAttribute and kValue nodes: the owning attribute.
  relational::AttributeId attr;
};

enum class EdgeKind {
  kMembership = 0,   // attribute <-> its relation (always cost 0)
  kForeignKey = 1,   // relation <-> relation via declared FK
  kAssociation = 2,  // attribute <-> attribute (alignment)
  kKeywordMatch = 3, // keyword <-> relation/attribute/value node
  kValueMembership = 4,  // value <-> its attribute (always cost 0)
};

std::string_view EdgeKindToString(EdgeKind kind);

// Record of one matcher's vote for an association edge.
struct MatcherScore {
  std::string matcher;
  double confidence;  // in [0, 1]

  bool operator==(const MatcherScore& o) const {
    return matcher == o.matcher && confidence == o.confidence;
  }
};

// Construction/exchange record for one edge. The graph does NOT store
// Edge structs — edges live in SoA arrays with interned feature and
// provenance payloads (see SearchGraph) — but construction sites still
// describe an edge with this struct and persistence materializes one per
// edge via ExportEdge().
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  EdgeKind kind = EdgeKind::kAssociation;
  // Empty + fixed_zero for the structurally-zero-cost edges (the MIRA
  // zero-cost constraint set A is enforced by giving those edges no
  // features at all).
  FeatureVec features;
  bool fixed_zero = false;
  // Matcher votes that created/confirmed this association edge.
  std::vector<MatcherScore> provenance;
  // For kForeignKey edges (which connect relation nodes, per Fig. 2): the
  // joining attribute pair. For kAssociation edges u/v are the attribute
  // nodes themselves, so this is left empty.
  relational::AttributeId join_a;
  relational::AttributeId join_b;

  NodeId Other(NodeId n) const { return n == u ? v : u; }
};

class SearchGraph;

// Cheap-to-copy read view over one edge in the SoA store. Endpoints and
// kind are materialized fields (the hot path); features/provenance/joins
// dereference into the owning graph's pools on demand. A view stays
// valid until the graph is next mutated.
struct EdgeView {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  EdgeKind kind = EdgeKind::kAssociation;
  bool fixed_zero = false;

  NodeId Other(NodeId n) const { return n == u ? v : u; }
  const FeatureVec& features() const { return *features_; }
  const std::vector<MatcherScore>& provenance() const;
  const relational::AttributeId& join_a() const;
  const relational::AttributeId& join_b() const;

 private:
  friend class SearchGraph;
  const SearchGraph* g_ = nullptr;
  EdgeId id_ = kInvalidEdge;
  const FeatureVec* features_ = nullptr;
};

// Borrowed, contiguous span of a node's incident edge ids, served
// straight from the adjacency arena without copying. Invalidated by any
// edge insertion (the arena may relocate) — do not hold one across
// AddEdge on the same graph.
class AdjacencyRange {
 public:
  const EdgeId* begin() const { return begin_; }
  const EdgeId* end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  EdgeId operator[](std::size_t i) const { return begin_[i]; }

 private:
  friend class SearchGraph;
  AdjacencyRange(const EdgeId* b, const EdgeId* e) : begin_(b), end_(e) {}
  const EdgeId* begin_;
  const EdgeId* end_;
};

// Content-interning pool of FeatureVecs: identical vectors share one
// stored copy, so the millions of templated synthetic edges that carry
// the same feature pattern cost one FeatureVec between them. Id 0 is
// always the empty vector. Entries are immutable once interned
// (mutation = copy out, edit, re-intern); superseded entries linger
// until the graph is rebuilt and are reported by MemoryUsage().
class FeatureVecPool {
 public:
  FeatureVecPool() { vecs_.emplace_back(); }

  std::uint32_t Intern(FeatureVec vec);
  const FeatureVec& at(std::uint32_t id) const { return vecs_[id]; }
  std::size_t size() const { return vecs_.size(); }
  std::size_t MemoryUsage() const;

  static constexpr std::uint32_t kEmpty = 0;

 private:
  std::vector<FeatureVec> vecs_;
  // hash -> candidate ids (chained for collisions)
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
};

// Same interning scheme for provenance lists (matcher vote records).
// Templated edges from one generator share a single vote list.
class ProvenancePool {
 public:
  ProvenancePool() { lists_.emplace_back(); }

  std::uint32_t Intern(std::vector<MatcherScore> list);
  const std::vector<MatcherScore>& at(std::uint32_t id) const {
    return lists_[id];
  }
  std::size_t size() const { return lists_.size(); }
  std::size_t MemoryUsage() const;

  static constexpr std::uint32_t kEmpty = 0;

 private:
  std::vector<std::vector<MatcherScore>> lists_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
};

// Per-section byte estimate of a SearchGraph's resident footprint
// (capacities, heap blocks and hash buckets included; malloc headers
// not). feature_pool/provenance include superseded pool entries that
// mutation left behind — the honest number, not the live-set number.
struct MemoryBreakdown {
  std::size_t nodes_bytes = 0;
  std::size_t node_index_bytes = 0;
  std::size_t edges_bytes = 0;       // SoA arrays + join side table
  std::size_t adjacency_bytes = 0;   // slot table + arena
  std::size_t feature_pool_bytes = 0;
  std::size_t provenance_bytes = 0;

  std::size_t total() const {
    return nodes_bytes + node_index_bytes + edges_bytes + adjacency_bytes +
           feature_pool_bytes + provenance_bytes;
  }
};

// Reusable multi-source Dijkstra output: a distance array that is reset
// in O(previously reached) instead of O(num_nodes), plus the list of
// reached nodes. At() reads infinity for unreached nodes. One field per
// thread (or thread_local) amortizes all allocation across calls.
class DistanceField {
 public:
  double At(NodeId n) const {
    return n < dist_.size() ? dist_[n]
                            : std::numeric_limits<double>::infinity();
  }
  // Nodes with finite distance, in settle (ascending distance) order.
  const std::vector<NodeId>& reached() const { return reached_; }

 private:
  friend class SearchGraph;
  void Reset(std::size_t num_nodes) {
    for (NodeId n : reached_) {
      dist_[n] = std::numeric_limits<double>::infinity();
    }
    reached_.clear();
    if (dist_.size() < num_nodes) {
      dist_.resize(num_nodes, std::numeric_limits<double>::infinity());
    }
  }

  std::vector<double> dist_;
  std::vector<NodeId> reached_;
};

// The search graph of Sec. 2.1/3.1: relations, attributes (and in query
// graphs, values and keywords) connected by undirected weighted edges.
// Edge costs are not stored; they are computed per query as w · f(e)
// against a WeightVector, so learning updates reprice the whole graph.
//
// Storage is built for catalogs of 10^5-10^6 sources: edges live in SoA
// arrays (endpoints, kind, flags, payload ids), feature vectors and
// provenance lists are content-interned in pools (templated edges share
// one copy), join attributes sit in a sparse side table (only FK edges
// have them), value text in a sparse side map (only query-graph value
// nodes have it), and adjacency is a blocked CSR: per-node
// {offset,count,capacity} slots over one shared EdgeId arena with
// capacity-doubling relocation, squeezed tight by CompactAdjacency().
// Within a node's block edge ids appear in insertion order — identical
// to the AoS vector<vector> layout of the tests' referee
// (tests/reference_graph_rep.h), which graph_scale_test asserts. The
// (kind, label) node index stores node ids only and compares keys
// against the nodes themselves, so no label is stored twice.
class SearchGraph {
 public:
  SearchGraph() = default;

  // --- construction -------------------------------------------------------
  // Adds the node of (kind, label), or returns the existing one unchanged.
  NodeId AddNode(NodeKind kind, std::string label,
                 relational::AttributeId attr = {});

  // Adds (or finds) the relation node for a schema and one attribute node
  // per attribute, with zero-cost membership edges.
  NodeId AddRelation(const relational::RelationSchema& schema);

  EdgeId AddEdge(Edge edge);

  // Adds an association edge between two attribute nodes, or records
  // `score` as a vote on the pair's existing edge (returned), adding
  // `features` to its own (entries they cancel are dropped). A repeat
  // vote that does not raise the matcher's confidence changes nothing.
  EdgeId AddAssociationEdge(NodeId a, NodeId b, FeatureVec features,
                            MatcherScore score);

  // --- lookup -------------------------------------------------------------
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return edge_u_.size(); }

  const Node& node(NodeId id) const { return nodes_[id]; }

  // Raw value text of a kValue node ("" for all other nodes).
  const std::string& node_value_text(NodeId id) const;

  EdgeView edge(EdgeId id) const {
    EdgeView view;
    view.u = edge_u_[id];
    view.v = edge_v_[id];
    view.kind = static_cast<EdgeKind>(edge_kind_[id]);
    view.fixed_zero = (edge_flags_[id] & kFlagFixedZero) != 0;
    view.g_ = this;
    view.id_ = id;
    view.features_ = &feature_pool_.at(edge_feature_[id]);
    return view;
  }

  const FeatureVec& edge_features(EdgeId id) const {
    return feature_pool_.at(edge_feature_[id]);
  }
  const std::vector<MatcherScore>& edge_provenance(EdgeId id) const {
    return prov_pool_.at(edge_prov_[id]);
  }
  const relational::AttributeId& edge_join_a(EdgeId id) const;
  const relational::AttributeId& edge_join_b(EdgeId id) const;

  // Materializes a full Edge record (persistence, graph-to-graph copy).
  Edge ExportEdge(EdgeId id) const;

  // --- mutation -----------------------------------------------------------
  // All in-place payload mutation goes through these (there is no mutable
  // reference into the SoA store); each bumps the revision exactly once.

  // Replaces an edge's feature vector (re-interned into the pool).
  void SetEdgeFeatures(EdgeId id, FeatureVec features);

  // Sets a node's value text (kValue nodes).
  void SetNodeValueText(NodeId id, std::string text);

  // Monotone mutation counter: bumped by every AddNode/AddEdge and by each
  // Set*/Overwrite* mutation. Snapshot consumers (the RefreshEngine's CSR
  // snapshots) compare revisions to detect that a graph changed
  // underneath them without requiring explicit notification from every
  // mutation site.
  std::uint64_t revision() const { return revision_; }

  // Persistence support (src/persist): reinstates the saved revision,
  // discarding the bumps AddNode/AddEdge made while the loader
  // reconstructed the topology.
  void RestoreRevision(std::uint64_t revision) { revision_ = revision; }

  // Incident edge ids in insertion order, served from the adjacency
  // arena without copying. Invalidated by the next AddEdge.
  AdjacencyRange edges_of(NodeId id) const {
    const AdjSlot& slot = adj_[id];
    const EdgeId* base = adj_arena_.data() + slot.offset;
    return AdjacencyRange(base, base + slot.count);
  }

  // Squeezes the adjacency arena tight (capacity == count per node,
  // relocation garbage dropped). Call once after bulk construction.
  void CompactAdjacency();

  // Node of given kind with the given label, if any.
  std::optional<NodeId> FindNode(NodeKind kind, std::string_view label) const;

  std::optional<NodeId> FindRelationNode(
      std::string_view qualified_name) const {
    return FindNode(NodeKind::kRelation, qualified_name);
  }
  std::optional<NodeId> FindAttributeNode(
      const relational::AttributeId& id) const {
    return FindNode(NodeKind::kAttribute, id.ToString());
  }

  // Existing association edge between the two nodes, if any.
  std::optional<EdgeId> FindAssociation(NodeId a, NodeId b) const;

  // The relation node an attribute/value node belongs to (via membership
  // edges); for relation nodes, the node itself.
  std::optional<NodeId> OwningRelation(NodeId id) const;

  // All edge ids of a given kind.
  std::vector<EdgeId> EdgesOfKind(EdgeKind kind) const;

  // Estimated resident bytes by section (see MemoryBreakdown).
  MemoryBreakdown MemoryUsage() const;

  // --- costs --------------------------------------------------------------
  double EdgeCost(EdgeId id, const WeightVector& weights) const {
    if ((edge_flags_[id] & kFlagFixedZero) != 0) return 0.0;
    double c = weights.Dot(feature_pool_.at(edge_feature_[id]));
    return c < kMinEdgeCost ? kMinEdgeCost : c;
  }

  // Multi-source Dijkstra: starts from (node, initial cost) seeds and
  // explores until `max_cost` (inclusive); writes distances for reached
  // nodes into `out` (infinity elsewhere). `out` is caller-owned scratch
  // — reusing one field across calls does no steady-state allocation.
  void Dijkstra(const std::vector<std::pair<NodeId, double>>& seeds,
                const WeightVector& weights, double max_cost,
                DistanceField* out) const;

  // Convenience overload materializing a dense distance vector.
  std::vector<double> Dijkstra(
      const std::vector<std::pair<NodeId, double>>& seeds,
      const WeightVector& weights,
      double max_cost = std::numeric_limits<double>::infinity()) const;

 private:
  friend struct EdgeView;

  // Blocked-CSR adjacency slot: `count` edge ids for one node starting at
  // arena offset `offset`, with `capacity` slots reserved before the
  // block must relocate to the arena tail.
  struct AdjSlot {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
  };

  // One bucket of the node index: a node id (kInvalidNode when empty) and
  // 32 bits of its (kind, label) hash, which pick the home bucket and
  // screen probes before a label is compared.
  struct IndexBucket {
    NodeId node = kInvalidNode;
    std::uint32_t hash = 0;
  };

  static constexpr std::uint8_t kFlagFixedZero = 1;

  // AddNode's body; `second` is true when the node is new.
  std::pair<NodeId, bool> InsertNode(NodeKind kind, std::string label,
                                     relational::AttributeId attr);
  static std::uint32_t NodeKeyHash(NodeKind kind, std::string_view label);
  // The bucket holding (kind, label), or the empty bucket where it would
  // go. Precondition: the index is not empty.
  std::size_t IndexBucketOf(NodeKind kind, std::string_view label,
                            std::uint32_t hash) const;
  // Doubles the index (at least 16 buckets) and re-files every node.
  void GrowIndex();

  void AdjAppend(NodeId n, EdgeId e);
  void SetEdgeJoins(EdgeId id, const relational::AttributeId& a,
                    const relational::AttributeId& b);

  std::uint64_t revision_ = 0;
  std::vector<Node> nodes_;

  // SoA edge store.
  std::vector<NodeId> edge_u_;
  std::vector<NodeId> edge_v_;
  std::vector<std::uint8_t> edge_kind_;
  std::vector<std::uint8_t> edge_flags_;
  std::vector<std::uint32_t> edge_feature_;  // FeatureVecPool id
  std::vector<std::uint32_t> edge_prov_;     // ProvenancePool id

  FeatureVecPool feature_pool_;
  ProvenancePool prov_pool_;

  // Sparse payloads: most edges have no join attributes, most nodes no
  // value text.
  std::unordered_map<EdgeId,
                     std::pair<relational::AttributeId, relational::AttributeId>>
      edge_joins_;
  std::unordered_map<NodeId, std::string> value_text_;

  // Blocked-CSR adjacency.
  std::vector<AdjSlot> adj_;
  std::vector<EdgeId> adj_arena_;

  // (kind, label) -> node: open addressing with linear probing, a
  // power-of-two number of buckets at most 3/4 full (every node is in it).
  std::vector<IndexBucket> node_index_;
  // min(u,v) << 32 | max(u,v) -> association edge
  std::unordered_map<std::uint64_t, EdgeId> association_index_;

  static std::uint64_t PairKey(NodeId a, NodeId b);
};

inline const std::vector<MatcherScore>& EdgeView::provenance() const {
  return g_->edge_provenance(id_);
}
inline const relational::AttributeId& EdgeView::join_a() const {
  return g_->edge_join_a(id_);
}
inline const relational::AttributeId& EdgeView::join_b() const {
  return g_->edge_join_b(id_);
}

}  // namespace q::graph

#endif  // Q_GRAPH_SEARCH_GRAPH_H_
