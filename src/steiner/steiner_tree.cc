#include "steiner/steiner_tree.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

namespace q::steiner {

void SteinerTree::Canonicalize() {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

bool TreeLess(const SteinerTree& a, const SteinerTree& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.edges < b.edges;
}

graph::FeatureVec TreeFeatures(const graph::SearchGraph& graph,
                               const SteinerTree& tree) {
  graph::FeatureVec f;
  for (graph::EdgeId e : tree.edges) {
    const graph::EdgeView edge = graph.edge(e);
    if (edge.fixed_zero) continue;
    f.AddScaled(edge.features(), 1.0);
  }
  return f;
}

double TreeCost(const graph::SearchGraph& graph,
                const graph::WeightVector& weights,
                const SteinerTree& tree) {
  double cost = 0.0;
  for (graph::EdgeId e : tree.edges) cost += graph.EdgeCost(e, weights);
  return cost;
}

std::vector<graph::NodeId> TreeNodes(const graph::SearchGraph& graph,
                                     const SteinerTree& tree) {
  std::unordered_set<graph::NodeId> seen;
  std::vector<graph::NodeId> out;
  for (graph::EdgeId e : tree.edges) {
    const graph::EdgeView edge = graph.edge(e);
    for (graph::NodeId n : {edge.u, edge.v}) {
      if (seen.insert(n).second) out.push_back(n);
    }
  }
  return out;
}

namespace {

// The distinct endpoints of `tree`'s edges, ascending, into *nodes.
void SortedEndpoints(const graph::SearchGraph& graph, const SteinerTree& tree,
                     std::vector<graph::NodeId>* nodes) {
  nodes->clear();
  nodes->reserve(2 * tree.edges.size());
  for (graph::EdgeId e : tree.edges) {
    const graph::EdgeView edge = graph.edge(e);
    nodes->push_back(edge.u);
    nodes->push_back(edge.v);
  }
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

// Position of `node` in the ascending `nodes`, which hold it.
std::uint32_t PositionOf(const std::vector<graph::NodeId>& nodes,
                         graph::NodeId node) {
  return static_cast<std::uint32_t>(
      std::lower_bound(nodes.begin(), nodes.end(), node) - nodes.begin());
}

// IsValidSteinerTree for a tree with edges, over its sorted endpoints:
// a flat union-find over their positions finds any cycle, and an acyclic
// edge set is connected iff it has one node more than edges. `parent` is
// scratch.
bool IsValidOver(const graph::SearchGraph& graph, const SteinerTree& tree,
                 const std::vector<graph::NodeId>& terminals,
                 const std::vector<graph::NodeId>& nodes,
                 std::vector<std::uint32_t>* parent) {
  parent->resize(nodes.size());
  for (std::uint32_t i = 0; i < nodes.size(); ++i) (*parent)[i] = i;
  auto find = [parent](std::uint32_t x) {
    while ((*parent)[x] != x) {
      (*parent)[x] = (*parent)[(*parent)[x]];
      x = (*parent)[x];
    }
    return x;
  };
  for (graph::EdgeId e : tree.edges) {
    const graph::EdgeView edge = graph.edge(e);
    const std::uint32_t ru = find(PositionOf(nodes, edge.u));
    const std::uint32_t rv = find(PositionOf(nodes, edge.v));
    if (ru == rv) return false;  // cycle
    (*parent)[ru] = rv;
  }
  if (nodes.size() != tree.edges.size() + 1) return false;  // a forest
  for (graph::NodeId t : terminals) {
    if (!std::binary_search(nodes.begin(), nodes.end(), t)) return false;
  }
  return true;
}

}  // namespace

bool IsValidSteinerTree(const graph::SearchGraph& graph,
                        const SteinerTree& tree,
                        const std::vector<graph::NodeId>& terminals) {
  if (tree.edges.empty()) {
    // Valid only when all terminals are the same node (or none).
    for (std::size_t i = 1; i < terminals.size(); ++i) {
      if (terminals[i] != terminals[0]) return false;
    }
    return true;
  }
  std::vector<graph::NodeId> nodes;
  std::vector<std::uint32_t> parent;
  SortedEndpoints(graph, tree, &nodes);
  return IsValidOver(graph, tree, terminals, nodes, &parent);
}

bool IsProperSteinerTree(const graph::SearchGraph& graph,
                         const SteinerTree& tree,
                         const std::vector<graph::NodeId>& terminals) {
  if (tree.edges.empty()) return IsValidSteinerTree(graph, tree, terminals);
  std::vector<graph::NodeId> nodes;
  std::vector<std::uint32_t> scratch;
  SortedEndpoints(graph, tree, &nodes);
  if (!IsValidOver(graph, tree, terminals, nodes, &scratch)) return false;
  // Every leaf must be a terminal.
  std::vector<std::uint32_t>& degree = scratch;
  degree.assign(nodes.size(), 0);
  for (graph::EdgeId e : tree.edges) {
    const graph::EdgeView edge = graph.edge(e);
    ++degree[PositionOf(nodes, edge.u)];
    ++degree[PositionOf(nodes, edge.v)];
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (degree[i] == 1 && std::find(terminals.begin(), terminals.end(),
                                    nodes[i]) == terminals.end()) {
      return false;
    }
  }
  return true;
}

double SymmetricEdgeLoss(const SteinerTree& a, const SteinerTree& b) {
  // Both edge lists are canonical (sorted unique).
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t common = 0;
  while (i < a.edges.size() && j < b.edges.size()) {
    if (a.edges[i] == b.edges[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a.edges[i] < b.edges[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>((a.edges.size() - common) +
                             (b.edges.size() - common));
}

}  // namespace q::steiner
