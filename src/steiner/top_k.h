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

// Proof object letting a later weight delta be tested for relevance to
// this search's output without re-running it (the alpha-neighborhood gate
// of docs/query_engine.md). Emitted by TopKSteinerTrees when the
// enumeration ran the *exact* substrate to completion; `valid` stays false
// for KMB/approximate runs and for enumerations truncated by
// `max_subproblems`, whose output is not provably the k cheapest proper
// trees and therefore admits no safety argument.
//
// The certificate makes the following claim about the costs the search
// ran against (the baseline): any cost change confined to edges outside
// `edges` that (a) only increases costs, or (b) decreases them by a total
// magnitude strictly inside `gap`, produces a search (and downstream
// compile/union) output bit-identical to the baseline output. See
// "Relevance-scoped refresh" in docs/query_engine.md for the proof
// obligations; core::ClassifyDeltaRelevance applies the rule.
struct RelevanceCertificate {
  // True iff the enumeration's output is provably the k cheapest proper
  // trees under deterministic tie-breaking (exact solver, not truncated)
  // AND the run used at most half of max_subproblems — the 2x expansion
  // headroom keeps a delta-reshaped enumeration from hitting the cap
  // (the one cost-dependent mechanism knob) and truncating.
  bool valid = false;
  // Monotone per-view search counter, stamped by TopKView::RunSearch so
  // consumers can tell which search the certificate describes.
  std::uint64_t serial = 0;
  // Sorted, deduped: every edge of every returned tree, every edge
  // incident to a node some returned tree (or terminal) touches, and —
  // after TopKView augments it — every edge the ranked union's
  // schema-unification reads. A delta touching any of these edges can
  // change the output and must fall through to a real refresh.
  std::vector<graph::EdgeId> edges;
  // Slack: cost(k+1-th candidate) − cost(k-th returned tree), or +inf
  // when the enumeration exhausted the space (every proper tree is
  // already in the output). Lower-bounds how far any non-returned tree
  // sits above the returned set.
  double gap = std::numeric_limits<double>::infinity();

  // --- Structural half (streaming source onboarding) --------------------
  //
  // Everything below describes an alpha-neighborhood around the view's
  // first terminal, measured in the baseline query graph under the
  // baseline weights. A *structural* delta (new base nodes/edges from
  // RegisterSource / AddAssociations) attaches to the old graph at a set
  // of pre-existing "attachment" nodes; any candidate tree that uses new
  // topology must reach one of them from the anchor terminal over old
  // edges, so its cost is lower-bounded by the anchor distance to the
  // nearest attachment. core::ClassifyStructuralRelevance applies the
  // rule; TopKView::BuildSearchSnapshot fills these fields in.
  //
  // True iff the structural fields below were populated (exact search on
  // a journal-coherent snapshot). Stays false for approximate runs.
  bool structural_valid = false;
  // Cost of the k-th returned tree when the search returned exactly k
  // trees, +inf otherwise. With fewer than k answers any reachable new
  // tree could enter the top-k, so only attachment-free deltas may skip.
  double kth_cost = std::numeric_limits<double>::infinity();
  // Explored radius of the anchor ball: nodes with anchor distance
  // <= alpha_radius are listed in alpha_nodes; any node absent from
  // alpha_nodes is provably farther than alpha_radius from the anchor.
  double alpha_radius = 0.0;
  // Sorted node ids (base-graph id space — the query-graph copy preserves
  // base node ids) inside the anchor ball, with alpha_dist[i] holding the
  // exact baseline anchor distance of alpha_nodes[i].
  std::vector<graph::NodeId> alpha_nodes;
  std::vector<double> alpha_dist;
  // Fingerprint of the keyword->match expansion the query graph was built
  // from (query::KeywordMatchFingerprint). TF-IDF scores are corpus-wide,
  // so classification recomputes the fingerprint against the live text
  // index: equality proves a rebuilt query graph would be the old one
  // plus the new base nodes/edges only.
  std::uint64_t keyword_fingerprint = 0;
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
// non-null it is overwritten with this search's relevance certificate
// (valid only for untruncated exact runs; see RelevanceCertificate).
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
