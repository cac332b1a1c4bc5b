#ifndef Q_STEINER_STEINER_TREE_H_
#define Q_STEINER_STEINER_TREE_H_

#include <vector>

#include "graph/search_graph.h"

namespace q::steiner {

// A Steiner tree over a SearchGraph: a set of edge ids connecting all
// terminals. Edges are kept sorted so trees compare canonically. A tree
// with no edges is valid when all terminals coincide.
struct SteinerTree {
  std::vector<graph::EdgeId> edges;
  double cost = 0.0;

  void Canonicalize();

  bool operator==(const SteinerTree& other) const {
    return edges == other.edges;
  }
};

// Deterministic ordering: by cost, then lexicographically by edge ids.
bool TreeLess(const SteinerTree& a, const SteinerTree& b);

// Sum of edge feature vectors (used by the MIRA learner: C(T,w) = w·f(T)).
graph::FeatureVec TreeFeatures(const graph::SearchGraph& graph,
                               const SteinerTree& tree);

// Recomputes the tree's cost under the given weights.
double TreeCost(const graph::SearchGraph& graph,
                const graph::WeightVector& weights, const SteinerTree& tree);

// True if `tree.edges` forms a connected acyclic subgraph containing every
// terminal (terminals with no edges allowed only if they all coincide).
bool IsValidSteinerTree(const graph::SearchGraph& graph,
                        const SteinerTree& tree,
                        const std::vector<graph::NodeId>& terminals);

// True if additionally every leaf of the tree is a terminal (a "proper"
// Steiner tree — Sec. 2.2's trees with the keyword nodes as leaves; a
// dangling non-terminal branch would add a redundant join to the query).
bool IsProperSteinerTree(const graph::SearchGraph& graph,
                         const SteinerTree& tree,
                         const std::vector<graph::NodeId>& terminals);

// Symmetric edge-set difference |E(T)\E(T')| + |E(T')\E(T)| (Eq. 2), the
// MIRA loss.
double SymmetricEdgeLoss(const SteinerTree& a, const SteinerTree& b);

}  // namespace q::steiner

#endif  // Q_STEINER_STEINER_TREE_H_
