// The contracted Steiner solvers, kept as referees for differential tests
// of steiner::FastSteinerEngine. A SteinerProblem rebuilds the whole
// instance per subproblem: edge costs frozen under one WeightVector,
// banned edges removed, forced edges contracted by endpoint merging and
// charged up front. SolveKmbSteiner and SolveExactSteiner solve it with
// their own priority-queue Dijkstras. The bodies are the solvers the fast
// engine replaced, code unchanged (their file-local helpers moved into
// `detail`); TopKSteinerTrees below runs them through the production
// Lawler enumerator. Only tests link them.
#ifndef Q_TESTS_REFERENCE_STEINER_H_
#define Q_TESTS_REFERENCE_STEINER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/steiner_tree.h"
#include "steiner/top_k.h"
#include "util/status.h"

namespace q::steiner::reference {

// A self-contained snapshot of a Steiner instance: edge costs frozen under
// one WeightVector, `banned` edges removed, and `forced` edges contracted
// (endpoint merging). Forced-edge contraction is what lets the Lawler
// top-k scheme reuse any single-tree solver: a subproblem's optimum *must*
// contain the forced edges, so we charge their cost up front and solve on
// the contracted graph.
class SteinerProblem {
 public:
  // Arcs are directed copies of the surviving undirected edges.
  struct Arc {
    std::uint32_t to;
    graph::EdgeId original;
    double cost;
  };

  SteinerProblem(const graph::SearchGraph& graph,
                 const graph::WeightVector& weights,
                 const std::vector<graph::NodeId>& terminals,
                 const std::vector<graph::EdgeId>& forced,
                 const std::vector<graph::EdgeId>& banned)
      : forced_(forced) {
    std::unordered_set<graph::EdgeId> banned_set(banned.begin(), banned.end());
    std::unordered_set<graph::EdgeId> forced_set(forced.begin(), forced.end());
    for (graph::EdgeId e : forced_) {
      if (banned_set.count(e) > 0) {
        valid_ = false;
        return;
      }
    }

    // Union-find over original node ids; contraction of forced edges.
    std::vector<graph::NodeId> parent(graph.num_nodes());
    for (graph::NodeId i = 0; i < parent.size(); ++i) parent[i] = i;
    auto find = [&](graph::NodeId x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (graph::EdgeId e : forced_) {
      const graph::EdgeView edge = graph.edge(e);
      graph::NodeId ru = find(edge.u);
      graph::NodeId rv = find(edge.v);
      if (ru == rv) {
        valid_ = false;  // forced edges form a cycle
        return;
      }
      parent[ru] = rv;
      base_cost_ += graph.EdgeCost(e, weights);
    }

    // Dense super-node ids.
    super_of_.assign(graph.num_nodes(), 0);
    std::vector<graph::NodeId> root_to_super(graph.num_nodes(),
                                             graph::kInvalidNode);
    std::uint32_t next = 0;
    for (graph::NodeId i = 0; i < graph.num_nodes(); ++i) {
      graph::NodeId r = find(i);
      if (root_to_super[r] == graph::kInvalidNode) root_to_super[r] = next++;
      super_of_[i] = root_to_super[r];
    }
    arcs_.resize(next);

    for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (banned_set.count(e) > 0 || forced_set.count(e) > 0) continue;
      const graph::EdgeView edge = graph.edge(e);
      std::uint32_t su = super_of_[edge.u];
      std::uint32_t sv = super_of_[edge.v];
      if (su == sv) continue;  // self-loop after contraction
      double cost = graph.EdgeCost(e, weights);
      arcs_[su].push_back(Arc{sv, e, cost});
      arcs_[sv].push_back(Arc{su, e, cost});
    }

    std::unordered_set<std::uint32_t> seen;
    for (graph::NodeId t : terminals) {
      std::uint32_t s = super_of_[t];
      if (seen.insert(s).second) terminals_.push_back(s);
    }
  }

  // False when forced edges are also banned or form a cycle; such
  // subproblems have no solution.
  bool valid() const { return valid_; }

  std::size_t num_nodes() const { return arcs_.size(); }
  const std::vector<Arc>& arcs(std::uint32_t super_node) const {
    return arcs_[super_node];
  }

  // Super-node ids of the terminals, deduplicated (contraction can merge
  // terminals together).
  const std::vector<std::uint32_t>& terminals() const { return terminals_; }

  // Cost already paid for the forced edges.
  double base_cost() const { return base_cost_; }
  const std::vector<graph::EdgeId>& forced() const { return forced_; }

  std::uint32_t SuperOf(graph::NodeId node) const { return super_of_[node]; }

 private:
  bool valid_ = true;
  double base_cost_ = 0.0;
  std::vector<graph::EdgeId> forced_;
  std::vector<std::uint32_t> super_of_;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<std::uint32_t> terminals_;
};

namespace detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ShortestPaths {
  std::vector<double> dist;
  std::vector<std::uint32_t> pred_node;
  std::vector<graph::EdgeId> pred_edge;
};

inline ShortestPaths Dijkstra(const SteinerProblem& problem,
                              std::uint32_t source) {
  std::size_t n = problem.num_nodes();
  ShortestPaths sp;
  sp.dist.assign(n, kInf);
  sp.pred_node.assign(n, 0);
  sp.pred_edge.assign(n, graph::kInvalidEdge);
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  sp.dist[source] = 0.0;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    auto [d, v] = queue.top();
    queue.pop();
    if (d > sp.dist[v]) continue;
    for (const SteinerProblem::Arc& arc : problem.arcs(v)) {
      double next = d + arc.cost;
      if (next < sp.dist[arc.to]) {
        sp.dist[arc.to] = next;
        sp.pred_node[arc.to] = v;
        sp.pred_edge[arc.to] = arc.original;
        queue.emplace(next, arc.to);
      }
    }
  }
  return sp;
}

// Backpointer for DP reconstruction.
struct Back {
  enum class Type : std::uint8_t { kNone, kBase, kMerge, kGrow };
  Type type = Type::kNone;
  std::uint32_t merge_subset = 0;   // for kMerge: S1 (other part is S\S1)
  std::uint32_t grow_pred = 0;      // for kGrow: predecessor super node
  graph::EdgeId grow_edge = graph::kInvalidEdge;
};

}  // namespace detail

// Kou–Markowsky–Berman 2-approximation, used instead of the exact DP for
// large query graphs (the paper's "approximation algorithm at larger
// scales"): metric closure over the terminals, MST of the closure,
// expansion of the closure paths, MST of the induced subgraph, then
// iterative pruning of non-terminal leaves. Returns std::nullopt when the
// terminals are disconnected.
inline std::optional<SteinerTree> SolveKmbSteiner(
    const SteinerProblem& problem) {
  using detail::kInf;
  using detail::ShortestPaths;
  if (!problem.valid()) return std::nullopt;
  const auto& terminals = problem.terminals();
  SteinerTree result;
  result.edges = problem.forced();
  result.cost = problem.base_cost();
  if (terminals.size() <= 1) {
    result.Canonicalize();
    return result;
  }

  // 1. Shortest paths from every terminal.
  std::vector<ShortestPaths> sp;
  sp.reserve(terminals.size());
  for (std::uint32_t t : terminals) sp.push_back(detail::Dijkstra(problem, t));

  // 2. Prim MST over the terminal metric closure.
  std::size_t t = terminals.size();
  std::vector<bool> in_mst(t, false);
  std::vector<double> best(t, kInf);
  std::vector<std::size_t> best_from(t, 0);
  best[0] = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> closure_edges;
  for (std::size_t round = 0; round < t; ++round) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (!in_mst[i] && (pick == t || best[i] < best[pick])) pick = i;
    }
    if (pick == t || best[pick] == kInf) return std::nullopt;  // disconnected
    in_mst[pick] = true;
    if (pick != 0) closure_edges.emplace_back(best_from[pick], pick);
    for (std::size_t i = 0; i < t; ++i) {
      if (in_mst[i]) continue;
      double d = sp[pick].dist[terminals[i]];
      if (d < best[i]) {
        best[i] = d;
        best_from[i] = pick;
      }
    }
  }

  // 3. Expand closure edges into original-graph edges.
  std::unordered_set<graph::EdgeId> subgraph_edges;
  for (auto [a, b] : closure_edges) {
    // Walk b's super node back to terminal a along a's shortest-path tree.
    std::uint32_t v = terminals[b];
    while (v != terminals[a]) {
      graph::EdgeId e = sp[a].pred_edge[v];
      if (e == graph::kInvalidEdge) break;
      subgraph_edges.insert(e);
      v = sp[a].pred_node[v];
    }
  }

  // 4. MST of the induced subgraph (Kruskal), over super nodes.
  std::vector<graph::EdgeId> edge_list(subgraph_edges.begin(),
                                       subgraph_edges.end());
  // Recover per-edge cost and endpoints from the problem arcs: build a map
  // original edge -> (u, v, cost).
  struct EdgeInfo {
    std::uint32_t u, v;
    double cost;
  };
  std::unordered_map<graph::EdgeId, EdgeInfo> info;
  for (std::uint32_t v = 0; v < problem.num_nodes(); ++v) {
    for (const SteinerProblem::Arc& arc : problem.arcs(v)) {
      if (subgraph_edges.count(arc.original) > 0) {
        info[arc.original] = EdgeInfo{v, arc.to, arc.cost};
      }
    }
  }
  std::sort(edge_list.begin(), edge_list.end(),
            [&](graph::EdgeId a, graph::EdgeId b) {
              if (info[a].cost != info[b].cost) {
                return info[a].cost < info[b].cost;
              }
              return a < b;
            });
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  std::function<std::uint32_t(std::uint32_t)> find =
      [&](std::uint32_t x) -> std::uint32_t {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent[x] = x;
      return x;
    }
    if (it->second == x) return x;
    std::uint32_t r = find(it->second);
    parent[x] = r;
    return r;
  };
  // Adjacency of the pruned tree for leaf pruning.
  std::unordered_map<std::uint32_t, std::vector<graph::EdgeId>> adj;
  std::vector<graph::EdgeId> mst;
  for (graph::EdgeId e : edge_list) {
    std::uint32_t ru = find(info[e].u);
    std::uint32_t rv = find(info[e].v);
    if (ru == rv) continue;
    parent[ru] = rv;
    mst.push_back(e);
    adj[info[e].u].push_back(e);
    adj[info[e].v].push_back(e);
  }

  // 5. Iteratively prune non-terminal leaves.
  std::unordered_set<std::uint32_t> terminal_set(terminals.begin(),
                                                 terminals.end());
  std::unordered_set<graph::EdgeId> removed;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [node, edges] : adj) {
      if (terminal_set.count(node) > 0) continue;
      std::size_t live = 0;
      graph::EdgeId last = graph::kInvalidEdge;
      for (graph::EdgeId e : edges) {
        if (removed.count(e) == 0) {
          ++live;
          last = e;
        }
      }
      if (live == 1) {
        removed.insert(last);
        changed = true;
      }
    }
  }

  for (graph::EdgeId e : mst) {
    if (removed.count(e) > 0) continue;
    result.edges.push_back(e);
    result.cost += info[e].cost;
  }
  result.Canonicalize();
  return result;
}

// Exact minimum Steiner tree via the Dreyfus–Wagner dynamic program with
// Dijkstra-based "grow" steps (Erickson–Monma–Veinott formulation):
//
//   dp[S][v] = cost of the cheapest tree spanning terminal subset S plus v
//   merge:  dp[S][v] <- dp[S1][v] + dp[S\S1][v]
//   grow:   dp[S][v] <- min over paths u ~> v of dp[S][u] + dist(u, v)
//
// Exponential only in the number of terminals (the keyword count, small).
// Returns std::nullopt when the terminals cannot be connected. The
// returned tree includes the problem's forced edges and their cost.
inline std::optional<SteinerTree> SolveExactSteiner(
    const SteinerProblem& problem) {
  using detail::Back;
  using detail::kInf;
  if (!problem.valid()) return std::nullopt;
  const auto& terminals = problem.terminals();
  const std::size_t n = problem.num_nodes();
  const std::size_t t = terminals.size();

  SteinerTree result;
  result.edges = problem.forced();
  result.cost = problem.base_cost();
  if (t <= 1) {
    // All terminals already coincide after contraction.
    result.Canonicalize();
    return result;
  }

  const std::uint32_t full = (1u << t) - 1;
  std::vector<std::vector<double>> dp(full + 1,
                                      std::vector<double>(n, kInf));
  std::vector<std::vector<Back>> back(full + 1, std::vector<Back>(n));

  for (std::size_t i = 0; i < t; ++i) {
    dp[1u << i][terminals[i]] = 0.0;
    back[1u << i][terminals[i]].type = Back::Type::kBase;
  }

  using Item = std::pair<double, std::uint32_t>;
  for (std::uint32_t subset = 1; subset <= full; ++subset) {
    // Merge step: combine two disjoint sub-forests rooted at the same node.
    for (std::uint32_t part = (subset - 1) & subset; part > 0;
         part = (part - 1) & subset) {
      std::uint32_t other = subset ^ part;
      if (part > other) continue;  // each unordered split once
      for (std::uint32_t v = 0; v < n; ++v) {
        if (dp[part][v] == kInf || dp[other][v] == kInf) continue;
        double candidate = dp[part][v] + dp[other][v];
        if (candidate < dp[subset][v]) {
          dp[subset][v] = candidate;
          back[subset][v].type = Back::Type::kMerge;
          back[subset][v].merge_subset = part;
        }
      }
    }
    // Grow step: Dijkstra seeded with the merge results.
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (dp[subset][v] < kInf) queue.emplace(dp[subset][v], v);
    }
    while (!queue.empty()) {
      auto [d, v] = queue.top();
      queue.pop();
      if (d > dp[subset][v]) continue;
      for (const SteinerProblem::Arc& arc : problem.arcs(v)) {
        double next = d + arc.cost;
        if (next < dp[subset][arc.to]) {
          dp[subset][arc.to] = next;
          Back& b = back[subset][arc.to];
          b.type = Back::Type::kGrow;
          b.grow_pred = v;
          b.grow_edge = arc.original;
          queue.emplace(next, arc.to);
        }
      }
    }
  }

  std::uint32_t root = terminals[0];
  if (dp[full][root] == kInf) return std::nullopt;

  // Reconstruct edges by unwinding backpointers.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // (S, v)
  stack.emplace_back(full, root);
  while (!stack.empty()) {
    auto [subset, v] = stack.back();
    stack.pop_back();
    const Back& b = back[subset][v];
    switch (b.type) {
      case Back::Type::kNone:
        Q_CHECK_MSG(false, "unreachable DP state in Steiner reconstruction");
        break;
      case Back::Type::kBase:
        break;
      case Back::Type::kGrow:
        result.edges.push_back(b.grow_edge);
        stack.emplace_back(subset, b.grow_pred);
        break;
      case Back::Type::kMerge:
        stack.emplace_back(b.merge_subset, v);
        stack.emplace_back(subset ^ b.merge_subset, v);
        break;
    }
  }

  result.cost += dp[full][root];
  result.Canonicalize();
  return result;
}

// The top-k enumeration of steiner::TopKSteinerTrees, with every Lawler
// subproblem rebuilt as a contracted SteinerProblem and solved by the
// solver family TopKSteinerTrees would pick for `config` (KMB when
// approximate or above approximate_above_nodes). It runs the production
// enumerator through its test seam, so the branching order, seen-set and
// pool are the fast path's and only the per-subproblem solver differs.
inline std::vector<SteinerTree> TopKSteinerTrees(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config) {
  const bool use_kmb =
      config.approximate || graph.num_nodes() > config.approximate_above_nodes;
  return EnumerateTopKForTest(
      graph, terminals, config,
      [&graph, &weights, &terminals, use_kmb](
          const std::vector<graph::EdgeId>& forced,
          const std::vector<graph::EdgeId>& banned) {
        SteinerProblem problem(graph, weights, terminals, forced, banned);
        return use_kmb ? SolveKmbSteiner(problem) : SolveExactSteiner(problem);
      });
}

}  // namespace q::steiner::reference

#endif  // Q_TESTS_REFERENCE_STEINER_H_
