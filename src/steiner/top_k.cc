#include "steiner/top_k.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <unordered_set>
#include <utility>

#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "util/thread_pool.h"

namespace q::steiner {
namespace {

// A heap entry is either *solved* (tree is the subspace optimum, key is
// its cost) or *parked* (no tree yet; key is a certified lower bound on
// the subspace optimum, produced by a failed masked attempt — see
// fast_solver.h). Parked entries are only re-solved if they surface
// before k trees are emitted; entries whose bound stays above the k-th
// cost are never solved at all, which is what keeps Lawler children with
// genuinely non-local detours from forcing mask escalation.
struct Subproblem {
  double key = 0.0;
  bool solved = false;
  SteinerTree tree;  // empty while parked
  std::vector<graph::EdgeId> forced;
  std::vector<graph::EdgeId> banned;
};

struct SubproblemGreater {
  bool operator()(const Subproblem& a, const Subproblem& b) const {
    // Min-heap by key. Lower bounds are slack-shaved below any true cost
    // they could round up to (see SubspaceCostBound in fast_solver.cc),
    // so a parked entry always pops no later than its solved self would;
    // re-solving it and re-pushing at true cost therefore reproduces the
    // eager enumeration's solved pop sequence exactly. Ties: parked
    // before solved (the re-solve re-inserts at >= key, never earlier),
    // then deterministic content order so heap behavior is reproducible.
    if (a.key != b.key) return a.key > b.key;
    if (a.solved != b.solved) return a.solved;
    if (a.solved) return TreeLess(b.tree, a.tree);
    if (a.banned != b.banned) return a.banned > b.banned;
    return a.forced > b.forced;
  }
};

// One subproblem attempt: either the subspace optimum, a certified lower
// bound to park on, or neither (provably infeasible subspace).
struct AttemptResult {
  std::optional<SteinerTree> tree;
  bool parked = false;
  double lower_bound = 0.0;
};

using AttemptFn = std::function<AttemptResult(
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, bool must_solve)>;

// Buffers for BranchOrder, reused across expansions (pivots hold about 10
// edges).
struct BranchWalk {
  std::vector<graph::EdgeId> order;
  std::vector<char> taken;  // indexed like the pivot's edges
  std::vector<graph::NodeId> reached;
  std::vector<graph::NodeId> stack;
};

// The order in which a pivot's edges are branched on: depth-first preorder
// of the pivot's own edges from terminals[0], taking at each node the
// lowest-id untaken edge that touches it and backing up when none is left;
// then the same walk from each later terminal not yet reached; then every
// edge still untaken (a forest pivot's floating pieces) in ascending id.
// `edges` is canonical (sorted), so the first match is the lowest id.
// Forced edges are walked through like any other; the caller skips them
// when it branches, so every forced prefix is a connected piece hanging
// off a terminal with at most one non-terminal leaf. The order is a pure
// function of the edge ids, their endpoints and the terminals as passed,
// never of costs (see "Branching order" in docs/query_engine.md).
void BranchOrder(const graph::SearchGraph& graph,
                 const std::vector<graph::EdgeId>& edges,
                 const std::vector<graph::NodeId>& terminals,
                 BranchWalk* walk) {
  walk->order.clear();
  walk->taken.assign(edges.size(), 0);
  walk->reached.clear();
  auto reach = [walk](graph::NodeId node) {
    if (std::find(walk->reached.begin(), walk->reached.end(), node) !=
        walk->reached.end()) {
      return false;
    }
    walk->reached.push_back(node);
    return true;
  };
  for (graph::NodeId start : terminals) {
    if (!reach(start)) continue;
    walk->stack.assign(1, start);
    while (!walk->stack.empty()) {
      const graph::NodeId at = walk->stack.back();
      std::size_t next = 0;
      for (; next < edges.size(); ++next) {
        if (walk->taken[next]) continue;
        const graph::EdgeView edge = graph.edge(edges[next]);
        if (edge.u == at || edge.v == at) break;
      }
      if (next == edges.size()) {
        walk->stack.pop_back();
        continue;
      }
      walk->taken[next] = 1;
      walk->order.push_back(edges[next]);
      const graph::NodeId other = graph.edge(edges[next]).Other(at);
      if (reach(other)) walk->stack.push_back(other);
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!walk->taken[i]) walk->order.push_back(edges[i]);
  }
}

// The Lawler enumeration over `attempt`. `certificate`, when non-null,
// arrives reset and is filled in here.
std::vector<SteinerTree> Enumerate(const graph::SearchGraph& graph,
                                   const std::vector<graph::NodeId>& terminals,
                                   const TopKConfig& config, bool use_kmb,
                                   const AttemptFn& attempt,
                                   RelevanceCertificate* certificate) {
  std::vector<SteinerTree> output;
  std::priority_queue<Subproblem, std::vector<Subproblem>, SubproblemGreater>
      heap;
  if (AttemptResult best = attempt({}, {}, /*must_solve=*/true);
      best.tree.has_value()) {
    const double cost = best.tree->cost;
    heap.push(Subproblem{cost, true, std::move(*best.tree), {}, {}});
  }

  // Lawler partitioning never revisits a tree, but approximate solvers can
  // return duplicates across subspaces; keep a seen-set for safety.
  std::set<std::vector<graph::EdgeId>> seen;
  std::size_t expansions = 0;

  // Reused per-expansion walk and child buffers (parallel solves write
  // into index-addressed slots, so the merge below is deterministic).
  BranchWalk walk;
  std::vector<std::vector<graph::EdgeId>> child_forced;
  std::vector<std::vector<graph::EdgeId>> child_banned;
  std::vector<AttemptResult> child_result;
  std::vector<std::function<void()>> child_tasks;

  while (!heap.empty() && output.size() < static_cast<std::size_t>(config.k) &&
         expansions < config.max_subproblems) {
    Subproblem sub = heap.top();
    heap.pop();
    if (!sub.solved) {
      // A parked subspace surfaced before k trees were emitted, so its
      // optimum might still be needed: solve it exactly now (escalating
      // the mask as required) and re-insert at true cost. This pop does
      // not count as an expansion and runs no seen-set check — the
      // sequence of *solved* pops is provably identical to the eager
      // enumeration's (the bound never exceeds the true cost, so the
      // re-inserted entry lands exactly where the eager one would), and
      // expansions/seen/emission are all driven by solved pops alone.
      AttemptResult res = attempt(sub.forced, sub.banned, /*must_solve=*/true);
      if (res.tree.has_value()) {
        const double cost = res.tree->cost;
        heap.push(Subproblem{cost, true, std::move(*res.tree),
                             std::move(sub.forced), std::move(sub.banned)});
      }
      continue;
    }
    ++expansions;
    if (!seen.insert(sub.tree.edges).second) continue;
    // A pivot with a dangling forced edge is not a proper Steiner tree (a
    // leaf that is no keyword node). It is still the subspace's cost lower
    // bound, so we branch on it, but it is not emitted: every proper tree
    // of the subspace lacks one of its free edges and thus lives in a
    // child subspace (trees containing *all* of the pivot's edges are
    // supersets of a tree and therefore improper).
    if (IsProperSteinerTree(graph, sub.tree, terminals)) {
      output.push_back(sub.tree);
      // The k-th pivot's children exist only to bound the certificate gap
      // (their keys feed heap.top() below); when no certificate is asked
      // for, or none can be issued, branching them buys nothing — skip the
      // whole attempt round. Output is unchanged: the loop condition would
      // stop before any of those children could surface.
      if (output.size() == static_cast<std::size_t>(config.k) &&
          (use_kmb || certificate == nullptr)) {
        break;
      }
    }

    // Branch on the tree's free (non-forced) edges in BranchOrder: child
    // i forces the first i free edges and bans the (i+1)-th. Any order
    // partitions the subspace; this one keeps each forced prefix attached
    // to a terminal, so few children solve to improper pivots.
    BranchOrder(graph, sub.tree.edges, terminals, &walk);
    std::unordered_set<graph::EdgeId> forced_set(sub.forced.begin(),
                                                 sub.forced.end());
    child_forced.clear();
    child_banned.clear();
    std::vector<graph::EdgeId> forced = sub.forced;
    for (graph::EdgeId e : walk.order) {
      if (forced_set.count(e) > 0) continue;
      child_forced.push_back(forced);
      child_banned.push_back(sub.banned);
      child_banned.back().push_back(e);
      forced.push_back(e);
    }

    const std::size_t num_children = child_forced.size();
    child_result.assign(num_children, AttemptResult{});
    if (config.pool != nullptr && num_children > 1) {
      // The children are independent Lawler subproblems; solve them on the
      // pool and merge results in child order. Solver output does not
      // depend on scheduling (see fast_solver.h), so this is byte-
      // identical to the sequential loop.
      child_tasks.clear();
      for (std::size_t i = 0; i < num_children; ++i) {
        child_tasks.push_back([&, i] {
          child_result[i] =
              attempt(child_forced[i], child_banned[i], /*must_solve=*/false);
        });
      }
      config.pool->RunAll(child_tasks);
    } else {
      for (std::size_t i = 0; i < num_children; ++i) {
        child_result[i] =
            attempt(child_forced[i], child_banned[i], /*must_solve=*/false);
      }
    }
    for (std::size_t i = 0; i < num_children; ++i) {
      AttemptResult& res = child_result[i];
      if (res.tree.has_value()) {
        const double cost = res.tree->cost;
        heap.push(Subproblem{cost, true, std::move(*res.tree),
                             std::move(child_forced[i]),
                             std::move(child_banned[i])});
      } else if (res.parked) {
        heap.push(Subproblem{res.lower_bound, false, SteinerTree{},
                             std::move(child_forced[i]),
                             std::move(child_banned[i])});
      }
    }
  }

  if (certificate != nullptr) {
    // A certificate is only provable when the output is exactly the k
    // cheapest proper trees: the exact solver guarantees each subspace
    // optimum, and an enumeration cut short by max_subproblems (heap
    // nonempty, fewer than k trees emitted) proves nothing about the
    // unexplored remainder. KMB pivots are heuristic, so approximate runs
    // never certify. Nor does a run that used more than half the cap: a
    // certificate promises 2x expansion headroom below it.
    const bool truncated =
        !heap.empty() && output.size() < static_cast<std::size_t>(config.k);
    const bool cap_headroom = expansions * 2 <= config.max_subproblems;
    if (!use_kmb && !truncated && cap_headroom) {
      certificate->valid = true;
      if (heap.empty()) {
        // Space exhausted: every proper tree is in the output.
        certificate->gap = std::numeric_limits<double>::infinity();
      } else {
        // Exact subspace optima pop in nondecreasing cost order, and a
        // parked entry's key lower-bounds its subspace optimum, so the
        // heap top's key lower-bounds every tree not returned (the gap
        // may understate — never overstate — the true slack).
        certificate->gap =
            heap.top().key - (output.empty() ? 0.0 : output.back().cost);
      }
    }
  }
  return output;
}

}  // namespace

std::vector<SteinerTree> TopKSteinerTrees(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config) {
  return TopKSteinerTrees(graph, weights, terminals, config,
                          /*shared_engine=*/nullptr);
}

std::vector<SteinerTree> TopKSteinerTrees(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config,
    FastSteinerEngine* shared_engine, RelevanceCertificate* certificate,
    const SnapshotPin* pin) {
  if (certificate != nullptr) *certificate = RelevanceCertificate{};
  if (terminals.empty() || config.k <= 0) return {};
  // A terminal outside the graph connects to nothing. The solvers index
  // per-thread scratch by terminal, so it must not reach them.
  for (graph::NodeId t : terminals) {
    if (t >= graph.num_nodes()) return {};
  }

  const bool use_kmb =
      config.approximate || graph.num_nodes() > config.approximate_above_nodes;

  // The fast engine solves every subproblem as an O(|edit|) overlay on a
  // CSR snapshot — the caller's shared one when provided (batched
  // refresh), otherwise one built for this call.
  std::unique_ptr<FastSteinerEngine> owned_engine;
  FastSteinerEngine* engine = shared_engine;
  if (engine == nullptr) {
    owned_engine = std::make_unique<FastSteinerEngine>(graph, weights);
    engine = owned_engine.get();
  }
  // One pin spans the whole enumeration: every Lawler subproblem solves
  // against the same frozen CSR snapshot even if an install lands between
  // subproblems (a repair passes the re-costed snapshot it searches).
  const SnapshotPin enumeration_pin = pin != nullptr ? *pin : engine->Pin();
  auto solve = [engine, &enumeration_pin, &terminals, use_kmb](
                   const std::vector<graph::EdgeId>& forced,
                   const std::vector<graph::EdgeId>& banned) {
    return use_kmb
               ? engine->SolveKmb(enumeration_pin, terminals, forced, banned)
               : engine->SolveExact(enumeration_pin, terminals, forced,
                                    banned);
  };

  if (config.sharded.enabled) {
    // Terminal-local sharded search: one localizer spans the
    // enumeration. With must_solve, a subproblem
    // retries through escalation until its masked result verifies or the
    // mask covers everything worth covering — at which point the ordinary
    // unmasked solve takes over. Without it, a single masked attempt
    // either verifies or yields the certified lower bound the caller
    // parks on — the mask never grows for a subspace whose bound may keep
    // it from ever surfacing. Masked results that verify are
    // bit-identical to unmasked ones (see fast_solver.h), so the
    // enumeration's output — and its certificate — never depends on
    // sharding, mask growth, or scheduling.
    TerminalLocalizer localizer(
        enumeration_pin.csr,
        engine->Shards(config.sharded.target_shard_nodes), terminals);
    return Enumerate(
        graph, terminals, config, use_kmb,
        [engine, &enumeration_pin, &terminals, use_kmb, &localizer, &solve](
            const std::vector<graph::EdgeId>& forced,
            const std::vector<graph::EdgeId>& banned,
            bool must_solve) -> AttemptResult {
          for (;;) {
            TerminalLocalizer::Snapshot snap = localizer.Acquire();
            if (snap.mask->covers_all) {
              return AttemptResult{solve(forced, banned)};
            }
            MaskedOutcome outcome;
            double bound = 0.0;
            auto tree =
                use_kmb ? engine->SolveKmbMasked(enumeration_pin, terminals,
                                                 forced, banned, *snap.mask,
                                                 &outcome, &bound)
                        : engine->SolveExactMasked(enumeration_pin, terminals,
                                                   forced, banned, *snap.mask,
                                                   &outcome, &bound);
            if (outcome == MaskedOutcome::kOk) {
              return AttemptResult{std::move(tree)};
            }
            if (!must_solve) {
              AttemptResult parked;
              parked.parked = true;
              parked.lower_bound = bound;
              return parked;
            }
            localizer.Escalate(snap.epoch);
          }
        },
        certificate);
  }

  return Enumerate(
      graph, terminals, config, use_kmb,
      [&solve](const std::vector<graph::EdgeId>& forced,
               const std::vector<graph::EdgeId>& banned, bool /*must_solve*/) {
        return AttemptResult{solve(forced, banned)};
      },
      certificate);
}

std::vector<SteinerTree> EnumerateTopKForTest(
    const graph::SearchGraph& graph,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config,
    const SubproblemSolver& solve) {
  if (terminals.empty() || config.k <= 0) return {};
  // Without a certificate the solver family changes nothing in Enumerate.
  return Enumerate(
      graph, terminals, config, /*use_kmb=*/config.approximate,
      [&solve](const std::vector<graph::EdgeId>& forced,
               const std::vector<graph::EdgeId>& banned, bool /*must_solve*/) {
        return AttemptResult{solve(forced, banned)};
      },
      /*certificate=*/nullptr);
}

}  // namespace q::steiner
