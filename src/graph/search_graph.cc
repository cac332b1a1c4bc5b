#include "graph/search_graph.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/dary_heap.h"

namespace q::graph {

namespace {

// Heap bytes held by a std::string beyond the object itself (SSO-aware).
std::size_t StringHeapBytes(const std::string& s) {
  constexpr std::size_t kSsoCapacity = 15;
  return s.capacity() > kSsoCapacity ? s.capacity() + 1 : 0;
}

std::size_t AttributeIdBytes(const relational::AttributeId& a) {
  return sizeof(a) + StringHeapBytes(a.source) + StringHeapBytes(a.relation) +
         StringHeapBytes(a.attribute);
}

// Rough estimate for an unordered_map's internal footprint (nodes +
// bucket array), excluding heap owned by the key/value payloads.
template <typename Map>
std::size_t HashMapBytes(const Map& map) {
  using Value = typename Map::value_type;
  return map.size() * (sizeof(Value) + 2 * sizeof(void*)) +
         map.bucket_count() * sizeof(void*);
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::uint64_t MixHash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t HashFeatureVec(const FeatureVec& vec) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const auto& [id, value] : vec.entries()) {
    h = MixHash(h, id);
    h = MixHash(h, DoubleBits(value));
  }
  return h;
}

std::uint64_t HashProvenance(const std::vector<MatcherScore>& list) {
  std::uint64_t h = 0x13198a2e03707344ull;
  for (const MatcherScore& s : list) {
    h = MixHash(h, std::hash<std::string>{}(s.matcher));
    h = MixHash(h, DoubleBits(s.confidence));
  }
  return h;
}

bool IsEmptyAttr(const relational::AttributeId& a) {
  return a.source.empty() && a.relation.empty() && a.attribute.empty();
}

const relational::AttributeId& EmptyAttr() {
  static const relational::AttributeId kEmpty;
  return kEmpty;
}

const std::string& EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}

}  // namespace

// --- pools -----------------------------------------------------------------

std::uint32_t FeatureVecPool::Intern(FeatureVec vec) {
  if (vec.empty()) return kEmpty;
  std::uint64_t h = HashFeatureVec(vec);
  std::vector<std::uint32_t>& bucket = by_hash_[h];
  for (std::uint32_t id : bucket) {
    if (vecs_[id] == vec) return id;
  }
  std::uint32_t id = static_cast<std::uint32_t>(vecs_.size());
  vecs_.push_back(std::move(vec));
  bucket.push_back(id);
  return id;
}

std::size_t FeatureVecPool::MemoryUsage() const {
  std::size_t bytes = vecs_.capacity() * sizeof(FeatureVec);
  for (const FeatureVec& v : vecs_) {
    bytes += v.entries().capacity() * sizeof(std::pair<FeatureId, double>);
  }
  bytes += HashMapBytes(by_hash_);
  for (const auto& [h, bucket] : by_hash_) {
    bytes += bucket.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

std::uint32_t ProvenancePool::Intern(std::vector<MatcherScore> list) {
  if (list.empty()) return kEmpty;
  std::uint64_t h = HashProvenance(list);
  std::vector<std::uint32_t>& bucket = by_hash_[h];
  for (std::uint32_t id : bucket) {
    if (lists_[id] == list) return id;
  }
  std::uint32_t id = static_cast<std::uint32_t>(lists_.size());
  lists_.push_back(std::move(list));
  bucket.push_back(id);
  return id;
}

std::size_t ProvenancePool::MemoryUsage() const {
  std::size_t bytes = lists_.capacity() * sizeof(std::vector<MatcherScore>);
  for (const auto& list : lists_) {
    bytes += list.capacity() * sizeof(MatcherScore);
    for (const MatcherScore& s : list) bytes += StringHeapBytes(s.matcher);
  }
  bytes += HashMapBytes(by_hash_);
  for (const auto& [h, bucket] : by_hash_) {
    bytes += bucket.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

// --- SearchGraph -----------------------------------------------------------

std::uint32_t SearchGraph::NodeKeyHash(NodeKind kind,
                                       std::string_view label) {
  const std::uint64_t h = MixHash(std::hash<std::string_view>{}(label),
                                  static_cast<std::uint64_t>(kind));
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t SearchGraph::IndexBucketOf(NodeKind kind, std::string_view label,
                                       std::uint32_t hash) const {
  const std::size_t mask = node_index_.size() - 1;
  for (std::size_t b = hash & mask;; b = (b + 1) & mask) {
    const IndexBucket& bucket = node_index_[b];
    if (bucket.node == kInvalidNode) return b;
    if (bucket.hash != hash) continue;
    const Node& n = nodes_[bucket.node];
    if (n.kind == kind && n.label == label) return b;
  }
}

void SearchGraph::GrowIndex() {
  std::vector<IndexBucket> grown(
      node_index_.empty() ? 16 : 2 * node_index_.size());
  const std::size_t mask = grown.size() - 1;
  for (const IndexBucket& bucket : node_index_) {
    if (bucket.node == kInvalidNode) continue;
    std::size_t b = bucket.hash & mask;
    while (grown[b].node != kInvalidNode) b = (b + 1) & mask;
    grown[b] = bucket;
  }
  node_index_ = std::move(grown);
}

std::uint64_t SearchGraph::PairKey(NodeId a, NodeId b) {
  NodeId lo = a < b ? a : b;
  NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

NodeId SearchGraph::AddNode(NodeKind kind, std::string label,
                            relational::AttributeId attr) {
  return InsertNode(kind, std::move(label), std::move(attr)).first;
}

std::pair<NodeId, bool> SearchGraph::InsertNode(NodeKind kind,
                                                std::string label,
                                                relational::AttributeId attr) {
  const std::uint32_t hash = NodeKeyHash(kind, label);
  std::size_t b = 0;
  if (!node_index_.empty()) {
    b = IndexBucketOf(kind, label, hash);
    if (node_index_[b].node != kInvalidNode) return {node_index_[b].node, false};
  }
  if (4 * (nodes_.size() + 1) > 3 * node_index_.size()) {
    GrowIndex();
    b = IndexBucketOf(kind, label, hash);
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  ++revision_;
  nodes_.push_back(Node{kind, std::move(label), std::move(attr)});
  adj_.emplace_back();
  node_index_[b] = IndexBucket{id, hash};
  return {id, true};
}

NodeId SearchGraph::AddRelation(const relational::RelationSchema& schema) {
  NodeId rel = AddNode(
      NodeKind::kRelation, schema.QualifiedName(),
      relational::AttributeId{schema.source(), schema.relation(), ""});
  for (std::size_t i = 0; i < schema.num_attributes(); ++i) {
    relational::AttributeId attr_id = schema.IdOf(i);
    std::string label = attr_id.ToString();
    const auto [attr, added] = InsertNode(
        NodeKind::kAttribute, std::move(label), std::move(attr_id));
    if (added) {
      Edge membership;
      membership.u = rel;
      membership.v = attr;
      membership.kind = EdgeKind::kMembership;
      membership.fixed_zero = true;
      AddEdge(std::move(membership));
    }
  }
  return rel;
}

void SearchGraph::AdjAppend(NodeId n, EdgeId e) {
  AdjSlot& slot = adj_[n];
  if (slot.count == slot.capacity) {
    std::uint32_t new_cap = slot.capacity == 0 ? 2 : slot.capacity * 2;
    std::uint32_t new_offset = static_cast<std::uint32_t>(adj_arena_.size());
    adj_arena_.resize(adj_arena_.size() + new_cap);
    if (slot.count != 0) {
      std::memcpy(adj_arena_.data() + new_offset,
                  adj_arena_.data() + slot.offset,
                  slot.count * sizeof(EdgeId));
    }
    slot.offset = new_offset;
    slot.capacity = new_cap;
  }
  adj_arena_[slot.offset + slot.count] = e;
  ++slot.count;
}

void SearchGraph::CompactAdjacency() {
  std::vector<EdgeId> tight;
  tight.reserve(2 * num_edges());
  for (AdjSlot& slot : adj_) {
    std::uint32_t new_offset = static_cast<std::uint32_t>(tight.size());
    tight.insert(tight.end(), adj_arena_.begin() + slot.offset,
                 adj_arena_.begin() + slot.offset + slot.count);
    slot.offset = new_offset;
    slot.capacity = slot.count;
  }
  adj_arena_ = std::move(tight);
}

EdgeId SearchGraph::AddEdge(Edge edge) {
  Q_CHECK(edge.u < nodes_.size() && edge.v < nodes_.size());
  Q_CHECK(edge.u != edge.v);
  EdgeId id = static_cast<EdgeId>(edge_u_.size());
  ++revision_;
  AdjAppend(edge.u, id);
  AdjAppend(edge.v, id);
  if (edge.kind == EdgeKind::kAssociation) {
    association_index_.emplace(PairKey(edge.u, edge.v), id);
  }
  edge_u_.push_back(edge.u);
  edge_v_.push_back(edge.v);
  edge_kind_.push_back(static_cast<std::uint8_t>(edge.kind));
  edge_flags_.push_back(edge.fixed_zero ? kFlagFixedZero : 0);
  edge_feature_.push_back(feature_pool_.Intern(std::move(edge.features)));
  edge_prov_.push_back(prov_pool_.Intern(std::move(edge.provenance)));
  SetEdgeJoins(id, edge.join_a, edge.join_b);
  return id;
}

void SearchGraph::SetEdgeJoins(EdgeId id, const relational::AttributeId& a,
                               const relational::AttributeId& b) {
  if (IsEmptyAttr(a) && IsEmptyAttr(b)) {
    edge_joins_.erase(id);
  } else {
    edge_joins_[id] = {a, b};
  }
}

const relational::AttributeId& SearchGraph::edge_join_a(EdgeId id) const {
  auto it = edge_joins_.find(id);
  return it == edge_joins_.end() ? EmptyAttr() : it->second.first;
}

const relational::AttributeId& SearchGraph::edge_join_b(EdgeId id) const {
  auto it = edge_joins_.find(id);
  return it == edge_joins_.end() ? EmptyAttr() : it->second.second;
}

const std::string& SearchGraph::node_value_text(NodeId id) const {
  auto it = value_text_.find(id);
  return it == value_text_.end() ? EmptyString() : it->second;
}

Edge SearchGraph::ExportEdge(EdgeId id) const {
  Edge edge;
  edge.u = edge_u_[id];
  edge.v = edge_v_[id];
  edge.kind = static_cast<EdgeKind>(edge_kind_[id]);
  edge.fixed_zero = (edge_flags_[id] & kFlagFixedZero) != 0;
  edge.features = feature_pool_.at(edge_feature_[id]);
  edge.provenance = prov_pool_.at(edge_prov_[id]);
  edge.join_a = edge_join_a(id);
  edge.join_b = edge_join_b(id);
  return edge;
}

void SearchGraph::SetEdgeFeatures(EdgeId id, FeatureVec features) {
  ++revision_;
  edge_feature_[id] = feature_pool_.Intern(std::move(features));
}

void SearchGraph::SetNodeValueText(NodeId id, std::string text) {
  ++revision_;
  if (text.empty()) {
    value_text_.erase(id);
  } else {
    value_text_[id] = std::move(text);
  }
}

EdgeId SearchGraph::AddAssociationEdge(NodeId a, NodeId b,
                                       FeatureVec features,
                                       MatcherScore score) {
  Q_CHECK(nodes_[a].kind == NodeKind::kAttribute);
  Q_CHECK(nodes_[b].kind == NodeKind::kAttribute);
  auto existing = FindAssociation(a, b);
  if (existing.has_value()) {
    // One vote per matcher, at its max confidence: a repeat that does not
    // raise it changes nothing.
    std::vector<MatcherScore> votes = prov_pool_.at(edge_prov_[*existing]);
    auto vote = std::find_if(
        votes.begin(), votes.end(),
        [&score](const MatcherScore& p) { return p.matcher == score.matcher; });
    if (vote != votes.end() && vote->confidence >= score.confidence) {
      return *existing;
    }
    // The feature merge below mutates an existing edge in place.
    ++revision_;
    // Merge the vote's features into the edge, dropping entries they
    // cancel. Pool entries are immutable: copy out, edit, re-intern.
    FeatureVec merged = feature_pool_.at(edge_feature_[*existing]);
    merged.AddScaled(features, 1.0);
    for (const auto& [id, value] : features.entries()) {
      if (merged.ValueOf(id) == 0.0) merged.Remove(id);
    }
    edge_feature_[*existing] = feature_pool_.Intern(std::move(merged));
    if (vote != votes.end()) {
      vote->confidence = score.confidence;
    } else {
      votes.push_back(std::move(score));
    }
    edge_prov_[*existing] = prov_pool_.Intern(std::move(votes));
    return *existing;
  }
  Edge edge;
  edge.u = a;
  edge.v = b;
  edge.kind = EdgeKind::kAssociation;
  edge.features = std::move(features);
  edge.provenance.push_back(std::move(score));
  return AddEdge(std::move(edge));
}

std::optional<NodeId> SearchGraph::FindNode(NodeKind kind,
                                            std::string_view label) const {
  if (node_index_.empty()) return std::nullopt;
  const NodeId id =
      node_index_[IndexBucketOf(kind, label, NodeKeyHash(kind, label))].node;
  if (id == kInvalidNode) return std::nullopt;
  return id;
}

std::optional<EdgeId> SearchGraph::FindAssociation(NodeId a, NodeId b) const {
  auto it = association_index_.find(PairKey(a, b));
  if (it == association_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<NodeId> SearchGraph::OwningRelation(NodeId id) const {
  const Node& n = nodes_[id];
  if (n.kind == NodeKind::kRelation) return id;
  if (n.kind == NodeKind::kAttribute) {
    for (EdgeId eid : edges_of(id)) {
      if (static_cast<EdgeKind>(edge_kind_[eid]) != EdgeKind::kMembership) {
        continue;
      }
      NodeId other = edge_u_[eid] == id ? edge_v_[eid] : edge_u_[eid];
      if (nodes_[other].kind == NodeKind::kRelation) return other;
    }
    return std::nullopt;
  }
  if (n.kind == NodeKind::kValue) {
    for (EdgeId eid : edges_of(id)) {
      if (static_cast<EdgeKind>(edge_kind_[eid]) !=
          EdgeKind::kValueMembership) {
        continue;
      }
      NodeId other = edge_u_[eid] == id ? edge_v_[eid] : edge_u_[eid];
      return OwningRelation(other);
    }
  }
  return std::nullopt;
}

std::vector<EdgeId> SearchGraph::EdgesOfKind(EdgeKind kind) const {
  std::vector<EdgeId> out;
  for (EdgeId i = 0; i < edge_kind_.size(); ++i) {
    if (static_cast<EdgeKind>(edge_kind_[i]) == kind) out.push_back(i);
  }
  return out;
}

MemoryBreakdown SearchGraph::MemoryUsage() const {
  MemoryBreakdown mb;

  mb.nodes_bytes = nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) {
    mb.nodes_bytes += StringHeapBytes(n.label);
    mb.nodes_bytes += AttributeIdBytes(n.attr) - sizeof(n.attr);
  }
  mb.nodes_bytes += HashMapBytes(value_text_);
  for (const auto& [id, text] : value_text_) {
    mb.nodes_bytes += StringHeapBytes(text);
  }

  mb.node_index_bytes = node_index_.capacity() * sizeof(IndexBucket);

  mb.edges_bytes = edge_u_.capacity() * sizeof(NodeId) +
                   edge_v_.capacity() * sizeof(NodeId) +
                   edge_kind_.capacity() + edge_flags_.capacity() +
                   edge_feature_.capacity() * sizeof(std::uint32_t) +
                   edge_prov_.capacity() * sizeof(std::uint32_t);
  mb.edges_bytes += HashMapBytes(edge_joins_);
  for (const auto& [id, joins] : edge_joins_) {
    mb.edges_bytes += AttributeIdBytes(joins.first) - sizeof(joins.first);
    mb.edges_bytes += AttributeIdBytes(joins.second) - sizeof(joins.second);
  }
  mb.edges_bytes += HashMapBytes(association_index_);

  mb.adjacency_bytes = adj_.capacity() * sizeof(AdjSlot) +
                       adj_arena_.capacity() * sizeof(EdgeId);

  mb.feature_pool_bytes = feature_pool_.MemoryUsage();
  mb.provenance_bytes = prov_pool_.MemoryUsage();
  return mb;
}

void SearchGraph::Dijkstra(const std::vector<std::pair<NodeId, double>>& seeds,
                           const WeightVector& weights, double max_cost,
                           DistanceField* out) const {
  out->Reset(nodes_.size());
  std::vector<double>& dist = out->dist_;
  // Indexed heap: every reached node is popped exactly once (no stale
  // lazy-deletion entries re-expanding it), and the per-call scratch is
  // reused across calls so the frontier does no steady-state allocation.
  thread_local util::DaryHeap frontier;
  frontier.Reset(nodes_.size());
  for (const auto& [node, cost] : seeds) {
    if (cost <= max_cost && cost < dist[node]) {
      dist[node] = cost;
      frontier.PushOrDecrease(node, cost);
    }
  }
  while (!frontier.empty()) {
    auto [d, n] = frontier.PopMin();
    out->reached_.push_back(static_cast<NodeId>(n));
    for (EdgeId eid : edges_of(static_cast<NodeId>(n))) {
      double next = d + EdgeCost(eid, weights);
      NodeId m = edge_u_[eid] == static_cast<NodeId>(n) ? edge_v_[eid]
                                                        : edge_u_[eid];
      if (next <= max_cost && next < dist[m]) {
        dist[m] = next;
        frontier.PushOrDecrease(m, next);
      }
    }
  }
}

std::vector<double> SearchGraph::Dijkstra(
    const std::vector<std::pair<NodeId, double>>& seeds,
    const WeightVector& weights, double max_cost) const {
  thread_local DistanceField field;
  Dijkstra(seeds, weights, max_cost, &field);
  std::vector<double> dist(nodes_.size(),
                           std::numeric_limits<double>::infinity());
  for (NodeId n : field.reached()) dist[n] = field.At(n);
  return dist;
}

}  // namespace q::graph
