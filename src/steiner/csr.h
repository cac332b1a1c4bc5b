#ifndef Q_STEINER_CSR_H_
#define Q_STEINER_CSR_H_

#include <cstdint>
#include <vector>

#include "graph/search_graph.h"

namespace q::steiner {

// Feature -> edge postings over one SearchGraph snapshot: for every
// feature id mentioned by some edge's FeatureVec, the (ascending) list of
// edges carrying it. Lets a sparse weight delta (a MIRA step moves only
// the features on the endorsed and competing trees) be mapped to the
// exact set of edges whose cost can move, instead of re-evaluating
// w · f(e) for every edge. Built once per snapshot; a graph whose edges
// change gets a new snapshot.
class FeatureEdgeIndex {
 public:
  static FeatureEdgeIndex Build(const graph::SearchGraph& graph);

  // Appends every edge mentioning any feature in `touched` to `out`,
  // then sorts and dedups `out` (touched features commonly share edges).
  void CollectEdges(const std::vector<graph::FeatureId>& touched,
                    std::vector<graph::EdgeId>* out) const;

  std::size_t num_postings() const { return edges_.size(); }

 private:
  // CSR postings: edges_[offsets_[f] .. offsets_[f + 1]) carry feature f.
  // Features above the snapshot's max mentioned id have no postings.
  std::vector<std::uint32_t> offsets_;
  std::vector<graph::EdgeId> edges_;
};

// Flat CSR snapshot of a SearchGraph under one WeightVector: every edge
// cost is evaluated exactly once (w · f(e) is the expensive part of graph
// traversal), and both directed copies of each undirected edge are laid
// out contiguously per node. Built once per (graph, weights) pair and
// shared read-only by every Lawler subproblem; forced/banned edges are
// applied by solvers as O(|edit|) overlay masks instead of graph rebuilds.
//
// Per-node arc blocks are ordered by original edge id, matching the order
// in which the referee in tests/reference_steiner.h materializes arcs.
struct CsrGraph {
  std::uint32_t num_nodes = 0;
  std::uint32_t num_edges = 0;

  // Arcs: arc indices [offsets[v], offsets[v + 1]) belong to node v.
  std::vector<std::uint32_t> offsets;   // size num_nodes + 1
  std::vector<std::uint32_t> arc_head;  // size 2 * num_edges
  std::vector<graph::EdgeId> arc_edge;  // size 2 * num_edges
  std::vector<double> arc_cost;         // size 2 * num_edges

  // Per-edge endpoints and cost (same cost as the arc copies).
  std::vector<std::uint32_t> edge_u;
  std::vector<std::uint32_t> edge_v;
  std::vector<double> edge_cost;

  static CsrGraph Build(const graph::SearchGraph& graph,
                        const graph::WeightVector& weights);

  // Weight-only refresh: re-evaluates every edge cost (w · f(e)) in place
  // without re-extracting topology — offsets/arc_head/arc_edge and the
  // edge endpoint arrays are untouched, so snapshot holders keep their
  // arc ordering (and with it the determinism contract). Precondition:
  // `graph` has exactly the node/edge set this snapshot was built from.
  void Recost(const graph::SearchGraph& graph,
              const graph::WeightVector& weights);

  // Delta refresh: re-evaluates only the listed edges (same computation
  // as Recost, so a delta-recosted snapshot is bitwise identical to a
  // fully recosted one), patching both directed arc copies, and returns
  // how many edge costs actually moved. Same precondition as Recost;
  // `edges` need not be sorted but must not contain duplicates beyond
  // harmless re-pricing (idempotent).
  std::size_t RecostEdges(const graph::SearchGraph& graph,
                          const graph::WeightVector& weights,
                          const std::vector<graph::EdgeId>& edges);

  // Estimated resident bytes of the snapshot's arrays.
  std::size_t MemoryUsage() const;
};

}  // namespace q::steiner

#endif  // Q_STEINER_CSR_H_
