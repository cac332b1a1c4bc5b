#include "steiner/csr.h"

#include "util/status.h"

namespace q::steiner {

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

std::size_t CsrGraph::Recost(const graph::SearchGraph& graph,
                             const graph::WeightVector& weights) {
  Q_CHECK(graph.num_nodes() == num_nodes && graph.num_edges() == num_edges);
  std::size_t moved = 0;
  for (graph::EdgeId e = 0; e < num_edges; ++e) {
    const double fresh = graph.EdgeCost(e, weights);
    if (fresh != edge_cost[e]) ++moved;
    edge_cost[e] = fresh;
  }
  // Re-derive the arc costs from the per-edge costs through arc_edge so
  // both directed copies stay exactly equal to the edge cost, as Build
  // lays them out.
  const std::size_t num_arcs = 2ull * num_edges;
  for (std::size_t a = 0; a < num_arcs; ++a) {
    arc_cost[a] = edge_cost[arc_edge[a]];
  }
  return moved;
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
