#include "steiner/csr.h"

#include <algorithm>

#include "util/status.h"

namespace q::steiner {

FeatureEdgeIndex FeatureEdgeIndex::Build(const graph::SearchGraph& graph) {
  FeatureEdgeIndex index;
  graph::FeatureId max_feature = 0;
  std::size_t num_postings = 0;
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    for (const auto& [id, value] : graph.edge_features(e).entries()) {
      max_feature = std::max(max_feature, id);
      ++num_postings;
    }
  }
  index.offsets_.assign(static_cast<std::size_t>(max_feature) + 2, 0);
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    for (const auto& [id, value] : graph.edge_features(e).entries()) {
      ++index.offsets_[id + 1];
    }
  }
  for (std::size_t f = 1; f < index.offsets_.size(); ++f) {
    index.offsets_[f] += index.offsets_[f - 1];
  }
  index.edges_.resize(num_postings);
  std::vector<std::uint32_t> cursor(index.offsets_.begin(),
                                    index.offsets_.end() - 1);
  // Filling in edge-id order keeps each feature's posting list ascending.
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    for (const auto& [id, value] : graph.edge_features(e).entries()) {
      index.edges_[cursor[id]++] = e;
    }
  }
  return index;
}

void FeatureEdgeIndex::CollectEdges(
    const std::vector<graph::FeatureId>& touched,
    std::vector<graph::EdgeId>* out) const {
  for (graph::FeatureId f : touched) {
    if (static_cast<std::size_t>(f) + 1 >= offsets_.size()) continue;
    out->insert(out->end(), edges_.begin() + offsets_[f],
                edges_.begin() + offsets_[f + 1]);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

CsrGraph CsrGraph::Build(const graph::SearchGraph& graph,
                         const graph::WeightVector& weights) {
  CsrGraph csr;
  csr.num_nodes = static_cast<std::uint32_t>(graph.num_nodes());
  csr.num_edges = static_cast<std::uint32_t>(graph.num_edges());

  csr.edge_u.resize(csr.num_edges);
  csr.edge_v.resize(csr.num_edges);
  csr.edge_cost.resize(csr.num_edges);
  std::vector<std::uint32_t> degree(csr.num_nodes + 1, 0);
  for (graph::EdgeId e = 0; e < csr.num_edges; ++e) {
    const graph::EdgeView edge = graph.edge(e);
    csr.edge_u[e] = edge.u;
    csr.edge_v[e] = edge.v;
    csr.edge_cost[e] = graph.EdgeCost(e, weights);
    ++degree[edge.u];
    ++degree[edge.v];
  }

  csr.offsets.assign(csr.num_nodes + 1, 0);
  for (std::uint32_t v = 0; v < csr.num_nodes; ++v) {
    csr.offsets[v + 1] = csr.offsets[v] + degree[v];
  }

  const std::size_t num_arcs = 2ull * csr.num_edges;
  csr.arc_head.resize(num_arcs);
  csr.arc_edge.resize(num_arcs);
  csr.arc_cost.resize(num_arcs);
  std::vector<std::uint32_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  // Filling in edge-id order makes each node's arc block sorted by edge id.
  for (graph::EdgeId e = 0; e < csr.num_edges; ++e) {
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

void CsrGraph::Recost(const graph::SearchGraph& graph,
                      const graph::WeightVector& weights) {
  Q_CHECK(graph.num_nodes() == num_nodes && graph.num_edges() == num_edges);
  // Re-derive the arc costs from the per-edge costs through arc_edge so
  // both directed copies stay exactly equal to the edge cost, as Build
  // lays them out.
  for (graph::EdgeId e = 0; e < num_edges; ++e) {
    edge_cost[e] = graph.EdgeCost(e, weights);
  }
  const std::size_t num_arcs = 2ull * num_edges;
  for (std::size_t a = 0; a < num_arcs; ++a) {
    arc_cost[a] = edge_cost[arc_edge[a]];
  }
}

std::size_t CsrGraph::RecostEdges(const graph::SearchGraph& graph,
                                  const graph::WeightVector& weights,
                                  const std::vector<graph::EdgeId>& edges) {
  Q_CHECK(graph.num_nodes() == num_nodes && graph.num_edges() == num_edges);
  // Patches one directed copy of edge e inside node v's arc block; blocks
  // are sorted by edge id (Build fills in edge-id order), so the copy is
  // found by binary search instead of a full block scan.
  auto patch_arc = [&](std::uint32_t v, graph::EdgeId e, double cost) {
    auto begin = arc_edge.begin() + offsets[v];
    auto end = arc_edge.begin() + offsets[v + 1];
    auto it = std::lower_bound(begin, end, e);
    Q_CHECK(it != end && *it == e);
    arc_cost[static_cast<std::size_t>(it - arc_edge.begin())] = cost;
  };
  std::size_t repriced = 0;
  for (graph::EdgeId e : edges) {
    double fresh = graph.EdgeCost(e, weights);
    if (fresh == edge_cost[e]) continue;
    ++repriced;
    edge_cost[e] = fresh;
    patch_arc(edge_u[e], e, fresh);
    patch_arc(edge_v[e], e, fresh);
  }
  return repriced;
}

std::size_t CsrGraph::MemoryUsage() const {
  return offsets.capacity() * sizeof(std::uint32_t) +
         arc_head.capacity() * sizeof(std::uint32_t) +
         arc_edge.capacity() * sizeof(graph::EdgeId) +
         arc_cost.capacity() * sizeof(double) +
         edge_u.capacity() * sizeof(std::uint32_t) +
         edge_v.capacity() * sizeof(std::uint32_t) +
         edge_cost.capacity() * sizeof(double);
}

}  // namespace q::steiner
