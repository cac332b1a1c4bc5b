// The uncompacted masked Dijkstra, kept as a referee for differential
// tests of the Steiner solvers' kernel. It runs over the global CSR and
// skips every arc whose head lies outside the mask's node bitmap, so all
// of its per-node arrays span the whole graph. SpTree and ComputeSpTree
// are the solvers' tree and Dijkstra from before masked solves moved to
// the compact local-id view, code unchanged (comments that cited the
// since-deleted shortest-path cache are trimmed); only tests link them.
// MaskedDijkstra applies an overlay the way the solvers do and projects
// the tree onto a MaskedSpProbe, so tests diff it element for element
// against ComputeMaskedSpTreeForTest.
#ifndef Q_TESTS_REFERENCE_MASKED_DIJKSTRA_H_
#define Q_TESTS_REFERENCE_MASKED_DIJKSTRA_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/csr.h"
#include "steiner/fast_solver.h"
#include "util/dary_heap.h"

namespace q::steiner::reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::uint8_t kFree = 0;
constexpr std::uint8_t kBanned = 1;
constexpr std::uint8_t kForced = 2;

// One terminal's single-source shortest-path tree over a CsrGraph under an
// overlay (forced edges traversed at cost 0, banned edges removed).
// `pred_edge[v]` is the first arc to achieve v's final distance under a
// canonical attempt order: nodes expand in (dist, id) order (the DaryHeap
// pops ties by id) and each node's arcs are scanned in fixed CSR order.
// That makes the whole structure a pure function of the overlayed costs —
// independent of push/decrease history.
// The search terminates as soon as every requested terminal is settled;
// nodes left unsettled are wiped back to (inf, invalid), so the stored
// arrays are again a canonical prefix of the full run. `settled[v]` marks
// the nodes whose dist/pred are final.
struct SpTree {
  std::vector<double> dist;
  std::vector<std::uint32_t> pred_node;
  std::vector<graph::EdgeId> pred_edge;
  std::vector<std::uint8_t> settled;
  // Sorted unique set of edges used as some settled node's predecessor.
  std::vector<graph::EdgeId> tree_edges;
  // The settled nodes — exactly the entries of dist/pred_*/settled that
  // differ from their (inf, invalid, 0) defaults. ComputeSpTree resets a
  // reused SpTree through this list instead of reinitializing the full
  // arrays, which keeps per-solve cost proportional to the neighborhood
  // the search actually explored rather than to the graph (the arrays
  // only pay O(num_nodes) once, when the object first grows).
  std::vector<std::uint32_t> touched;
  // True when the search ran to exhaustion (every reachable node settled);
  // such trees can seed the exact DP's singleton slices.
  bool complete = false;
  // Masked runs only: the cheapest offer (settled distance + arc cost)
  // the search declined because the arc's head fell outside the mask —
  // +inf when nothing was clipped (or the run was unmasked). Any path
  // escaping the mask costs at least this much, so every settled value
  // strictly below it is provably identical to the unmasked run's; the
  // masked solvers verify their reads against it (see fast_solver.h).
  double mask_min_clip = std::numeric_limits<double>::infinity();
};

// Single-source Dijkstra under the overlay flags, stopping as soon as all
// `num_targets` marked targets are settled. Unsettled nodes are wiped back
// to (inf, invalid) so the output is a canonical prefix of the full run.
// A non-null `in_mask` restricts the search to the induced subgraph (arcs
// whose head is outside the mask are skipped); the masked solvers verify
// afterwards that every value they read lies in the radius the mask
// provably reproduces (see fast_solver.h).
inline void ComputeSpTree(const CsrGraph& csr,
                   const std::vector<std::uint8_t>& edge_flag,
                   const std::vector<std::uint8_t>& is_target,
                   std::size_t num_targets, bool stop_at_targets,
                   std::uint32_t source,
                   const std::vector<std::uint8_t>* in_mask,
                   util::DaryHeap& heap, SpTree* out) {
  const std::uint32_t n = csr.num_nodes;
  // Sparse reset: only entries named by the previous run's touched list
  // can differ from the defaults, so a reused SpTree resets in O(prior
  // neighborhood). Fresh (or grown) objects pay the full initialization
  // once, below.
  if (out->dist.size() < n) {
    out->dist.resize(n, kInf);
    out->pred_node.resize(n, graph::kInvalidNode);
    out->pred_edge.resize(n, graph::kInvalidEdge);
    out->settled.resize(n, 0);
  }
  for (std::uint32_t v : out->touched) {
    out->dist[v] = kInf;
    out->pred_node[v] = graph::kInvalidNode;
    out->pred_edge[v] = graph::kInvalidEdge;
    out->settled[v] = 0;
  }
  out->touched.clear();
  out->mask_min_clip = kInf;
  heap.Drain(n);
  out->dist[source] = 0.0;
  out->touched.push_back(source);
  heap.PushOrDecrease(source, 0.0);
  std::size_t remaining = num_targets;
  bool stopped_early = false;
  while (!heap.empty()) {
    auto [d, v] = heap.PopMin();
    out->settled[v] = 1;
    if (stop_at_targets && is_target[v] && --remaining == 0) {
      // Every terminal is settled; relaxations from v could only touch
      // nodes nothing downstream reads.
      stopped_early = !heap.empty();
      break;
    }
    const std::uint32_t end = csr.offsets[v + 1];
    for (std::uint32_t a = csr.offsets[v]; a < end; ++a) {
      graph::EdgeId e = csr.arc_edge[a];
      std::uint8_t flag = edge_flag[e];
      if (flag == kBanned) continue;
      std::uint32_t to = csr.arc_head[a];
      double next = d + (flag == kForced ? 0.0 : csr.arc_cost[a]);
      if (in_mask != nullptr && !(*in_mask)[to]) {
        // Clipped at the mask boundary: remember the cheapest declined
        // offer — it lower-bounds every path escaping the mask, which is
        // what lets the masked solvers certify their reads afterwards.
        if (next < out->mask_min_clip) out->mask_min_clip = next;
        continue;
      }
      double& dt = out->dist[to];
      // Strictly-improving updates only: the predecessor graph stays
      // acyclic even across 0-cost plateaus, and because the heap pops in
      // canonical (dist, id) order and arcs are scanned in fixed CSR
      // order, pred is the *first* arc achieving each node's final
      // distance under a canonical attempt order — a pure function of the
      // overlayed costs.
      if (next < dt) {
        if (dt == kInf) out->touched.push_back(to);
        dt = next;
        out->pred_node[to] = v;
        out->pred_edge[to] = e;
        heap.PushOrDecrease(to, next);
      }
    }
  }
  out->complete = !stopped_early;
  // One pass over the touched set wipes offered-but-unsettled nodes back
  // to the defaults (so the stored arrays are a canonical prefix of the
  // full run), shrinks `touched` to the settled survivors, and collects
  // the predecessor edges.
  out->tree_edges.clear();
  std::size_t settled_count = 0;
  for (std::uint32_t v : out->touched) {
    if (!out->settled[v]) {
      out->dist[v] = kInf;
      out->pred_node[v] = graph::kInvalidNode;
      out->pred_edge[v] = graph::kInvalidEdge;
      continue;
    }
    out->touched[settled_count++] = v;
    if (out->pred_edge[v] != graph::kInvalidEdge) {
      out->tree_edges.push_back(out->pred_edge[v]);
    }
  }
  out->touched.resize(settled_count);
  std::sort(out->tree_edges.begin(), out->tree_edges.end());
  out->tree_edges.erase(
      std::unique(out->tree_edges.begin(), out->tree_edges.end()),
      out->tree_edges.end());
}

// One masked single-source Dijkstra from `source` under the overlay
// (forced edges at cost 0, banned edges skipped), stopping once every
// target is settled when `stop_at_targets` is set. Targets outside the
// mask, or duplicates, never settle and so keep the run going.
inline MaskedSpProbe MaskedDijkstra(const CsrGraph& csr,
                                    const std::vector<std::uint8_t>& in_mask,
                                    std::uint32_t source,
                                    const std::vector<graph::NodeId>& targets,
                                    bool stop_at_targets,
                                    const std::vector<graph::EdgeId>& forced,
                                    const std::vector<graph::EdgeId>& banned) {
  std::vector<std::uint8_t> edge_flag(csr.num_edges, kFree);
  for (graph::EdgeId e : forced) edge_flag[e] = kForced;
  for (graph::EdgeId e : banned) edge_flag[e] = kBanned;
  std::vector<std::uint8_t> is_target(csr.num_nodes, 0);
  for (graph::NodeId t : targets) is_target[t] = 1;
  util::DaryHeap heap;
  SpTree tree;
  ComputeSpTree(csr, edge_flag, is_target, targets.size(), stop_at_targets,
                source, &in_mask, heap, &tree);

  MaskedSpProbe probe;
  probe.dist.assign(csr.num_nodes, kInf);
  probe.pred_node.assign(csr.num_nodes, graph::kInvalidNode);
  probe.pred_edge.assign(csr.num_nodes, graph::kInvalidEdge);
  probe.settled.assign(csr.num_nodes, 0);
  for (std::uint32_t v : tree.touched) {
    probe.dist[v] = tree.dist[v];
    probe.pred_node[v] = tree.pred_node[v];
    probe.pred_edge[v] = tree.pred_edge[v];
    probe.settled[v] = 1;
  }
  probe.tree_edges = std::move(tree.tree_edges);
  probe.mask_min_clip = tree.mask_min_clip;
  probe.complete = tree.complete;
  return probe;
}

}  // namespace q::steiner::reference

#endif  // Q_TESTS_REFERENCE_MASKED_DIJKSTRA_H_
