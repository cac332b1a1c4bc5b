#ifndef Q_STEINER_TOP_K_H_
#define Q_STEINER_TOP_K_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/steiner_tree.h"

namespace q::util {
class ThreadPool;
}  // namespace q::util

namespace q::steiner {

// Which single-tree solver substrate drives the Lawler enumeration.
//   kFast   — CSR snapshot built once per call, forced/banned edges applied
//             as overlays, allocation-free scratch arenas, and whole
//             enumerations shared through a caller-owned engine's TopKMemo
//             (see fast_solver.h and docs/query_engine.md).
//   kLegacy — rebuilds a contracted SteinerProblem per subproblem; kept as
//             the reference implementation and benchmark baseline.
enum class SteinerEngine { kFast = 0, kLegacy = 1 };

// Sharded terminal-local search (docs/architecture.md, "Memory layout and
// sharding"). When enabled on the fast engine, the graph is partitioned
// once into BFS-grown shards of about `target_shard_nodes` nodes, and
// every Lawler subproblem is solved over only the shards within a proven
// real-cost radius of the terminals. Each masked solve verifies the
// conditions under which its result is bit-identical to the unmasked one
// and escalates (doubling the radius, up to a whole-graph fallback) when
// verification fails — so enabling sharding NEVER changes the output,
// only the number of nodes each subproblem touches. Ignored by the
// legacy engine.
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
  // Fast-path controls. Disabling the memo or the pool never changes the
  // output (the determinism contract of docs/query_engine.md); it only
  // changes how fast the same trees are produced. Despite its name,
  // `use_sp_cache` only says whether an engine built from this config
  // (the RefreshEngine's per-view engines) carries an enumeration memo
  // (top_k_memo.h), which serves an unsharded search repeated at the same
  // engine generation with one lookup. A shared engine passed to the
  // overload below keeps the setting it was built with; the per-call
  // engine of the overload above never has a memo.
  SteinerEngine engine = SteinerEngine::kFast;
  bool use_sp_cache = true;
  // When set, the independent child subproblems of each Lawler expansion
  // are solved on this pool and merged back in deterministic order.
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
// disconnected.
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
// `shared_engine` must have been built (or last Recost) from exactly this
// (graph, weights) pair. When it carries a memo and the search is
// unsharded, the memo is looked up once after pinning (waiting while a
// concurrent search runs the same enumeration) and, on a miss, given the
// trees and certificate once after the enumeration; a hit returns
// exactly what the stored run returned (the determinism contract
// of docs/query_engine.md). A null engine, or config.engine == kLegacy,
// falls back to the self-contained overload above. When `certificate` is
// non-null it is overwritten with this search's certificate (valid only
// for untruncated exact runs; see RelevanceCertificate), which costs one
// more round of Lawler children below the k-th tree.
//
// The whole enumeration runs against ONE pinned CSR snapshot: `pin` when
// the caller provides one (the concurrent serving path pins before
// reading its weight snapshot, so search costs and weights are captured
// atomically), otherwise a pin taken once at entry. Either way a re-cost
// landing mid-enumeration cannot mix cost generations across subproblems
// of one search. A non-null `pin` requires a non-null `shared_engine` the
// pin was taken from.
std::vector<SteinerTree> TopKSteinerTrees(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::NodeId>& terminals, const TopKConfig& config,
    FastSteinerEngine* shared_engine,
    RelevanceCertificate* certificate = nullptr,
    const SnapshotPin* pin = nullptr);

}  // namespace q::steiner

#endif  // Q_STEINER_TOP_K_H_
