#ifndef Q_STEINER_TOP_K_H_
#define Q_STEINER_TOP_K_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/steiner_tree.h"

namespace q::util {
class ThreadPool;
}  // namespace q::util

namespace q::steiner {

// Sharded terminal-local search (docs/architecture.md, "Memory layout and
// sharding"). When enabled on the fast engine, the graph is partitioned
// once into BFS-grown shards of about `target_shard_nodes` nodes, and
// every Lawler subproblem is solved over only the shards within a proven
// real-cost radius of the terminals. Each masked solve verifies the
// conditions under which its result is bit-identical to the unmasked one
// and escalates (doubling the radius, until the mask holds every node the
// terminals reach) when verification fails — so enabling sharding NEVER
// changes the output, only the number of nodes each subproblem touches.
struct ShardedSearchConfig {
  bool enabled = false;
  // Shard granularity trades mask padding for escalation risk: a mask is
  // the union of whole shards touching the proof ball, so the shard size
  // bounds how much dead weight a masked solve carries beyond the ball
  // itself. 512 keeps a typical mask's per-node arrays (dist + parent +
  // heap slots) inside L2 even when the ball spans several shards —
  // masked solve cost then tracks the ball, not the catalog or the shard
  // grid. Certification depends only on the proof radius, so smaller
  // shards never change results; at worst a query pays an extra
  // escalation that coarser padding would have absorbed. Masked solves
  // run over each mask's dense local-id sub-CSR (see shard.h), so
  // per-node state spans the mask instead of the whole graph.
  std::uint32_t target_shard_nodes = 512;
};

struct TopKConfig {
  // Number of trees to return (the paper's k).
  int k = 5;
  // Use the KMB approximation instead of the exact DP (for larger query
  // graphs, per Sec. 2.2). The enumeration is then heuristic too.
  bool approximate = false;
  // Query graphs with more than this many nodes switch to KMB even when
  // `approximate` is false.
  std::size_t approximate_above_nodes = 20000;
  // Safety bound on Lawler subproblem expansions.
  std::size_t max_subproblems = 20000;
  // Has no effect; it stays because the benchmark names it (ROADMAP item
  // 1 drops it).
  bool use_sp_cache = true;
  // When set, the independent child subproblems of each Lawler expansion
  // are solved on this pool and merged back in deterministic order. The
  // pool never changes the output (the determinism contract of
  // docs/query_engine.md), only how fast the same trees are produced.
  util::ThreadPool* pool = nullptr;
  ShardedSearchConfig sharded;
};

// K lowest-cost Steiner trees connecting `terminals`, best first
// (Sec. 2.2: each tree with the keyword nodes as leaves is a candidate
// join query). Uses Lawler partitioning: the best tree is solved, then
// the solution space is split into disjoint subspaces by forcing a prefix
// of its edges and banning the next one. The edges are taken in
// depth-first order from the terminals, so each forced prefix stays
// attached to a terminal; the order decides which of several equal-cost
// trees comes first, and depends only on the tree's edges and the
// terminals as passed (see "Branching order" in docs/query_engine.md).
// Returns fewer than k trees when the space is exhausted or terminals are
// disconnected, and none when a terminal id is not a node of `graph`
// (>= graph.num_nodes()).
std::vector<SteinerTree> TopKSteinerTrees(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config);

class FastSteinerEngine;
struct SnapshotPin;

// What an exact enumeration proves about the trees it did not return.
// Filled in by TopKSteinerTrees when the caller passes one; view searches
// pass none. `valid` stays false for KMB/approximate runs and for
// enumerations truncated by `max_subproblems`, whose output is not
// provably the k cheapest proper trees. The name is kept because the
// benchmark names it (ROADMAP item 1 drops it).
struct RelevanceCertificate {
  // True iff the enumeration's output is provably the k cheapest proper
  // trees under deterministic tie-breaking (exact solver, not truncated)
  // AND the run used at most half of max_subproblems.
  bool valid = false;
  // Slack: a lower bound on cost(k+1-th proper tree) - cost(k-th returned
  // tree), read off the Lawler heap, or +inf when the enumeration
  // exhausted the space (every proper tree is already in the output).
  double gap = std::numeric_limits<double>::infinity();
};

// Same enumeration, but served from a caller-owned CSR snapshot instead of
// building one per call (the RefreshEngine's batched-refresh substrate).
// The snapshot searched must have been built (or re-costed) from exactly
// this (graph, weights) pair. A null engine falls back to the
// self-contained overload above. When `certificate` is non-null it is
// overwritten with this search's certificate (valid only for untruncated
// exact runs; see RelevanceCertificate), which costs one more round of
// Lawler children below the k-th tree.
//
// The whole enumeration runs against ONE pinned CSR snapshot: `pin` when
// the caller provides one (a repair searches the re-costed snapshot it
// has not installed yet), otherwise a pin taken once at entry. Either way
// an install landing mid-enumeration cannot mix cost snapshots across
// subproblems of one search. A non-null `pin` requires a non-null
// `shared_engine` whose topology the pinned snapshot shares.
std::vector<SteinerTree> TopKSteinerTrees(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config,
    FastSteinerEngine* shared_engine,
    RelevanceCertificate* certificate = nullptr,
    const SnapshotPin* pin = nullptr);

// Test seam: TopKSteinerTrees' Lawler enumeration (branching order,
// seen-set, pool, limits) with each subproblem solved by `solve`: the
// cheapest tree with every forced edge and no banned one, or nullopt.
// Differential tests pass the referees of tests/reference_steiner.h; a
// copy of the enumerator would have to duplicate its branching order.
using SubproblemSolver = std::function<std::optional<SteinerTree>(
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned)>;
std::vector<SteinerTree> EnumerateTopKForTest(
    const graph::SearchGraph& graph,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config,
    const SubproblemSolver& solve);

}  // namespace q::steiner

#endif  // Q_STEINER_TOP_K_H_
