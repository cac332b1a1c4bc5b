#ifndef Q_STEINER_FAST_SOLVER_H_
#define Q_STEINER_FAST_SOLVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/csr.h"
#include "steiner/sp_cache.h"
#include "steiner/steiner_tree.h"

namespace q::steiner {

struct ShardPartition;
struct ShardMask;

struct FastSolveStats {
  std::size_t sp_cache_hits = 0;
  std::size_t sp_cache_misses = 0;
  std::size_t sp_cache_entries = 0;
  // Masked-solve cache traffic (compacted local trees, mask-uid keyed;
  // see sp_cache.h) and the bypass counter for masked solves that ran
  // with no cache at all (the uncompacted referee path).
  std::size_t sp_local_hits = 0;
  std::size_t sp_local_misses = 0;
  std::size_t sp_local_entries = 0;
  std::size_t masked_bypasses = 0;
  // Subproblem memo traffic (FastSteinerEngine::SolveMemoized): lookups
  // served and missed, live entries, and the heap bytes they hold.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t memo_entries = 0;
  std::size_t memo_bytes = 0;
};

// Bytes currently retained by the calling thread's solver scratch arena
// (heap, per-terminal tree slots, overlay flags, DP tables). The arena
// shrinks itself after a sustained streak of solves much smaller than its
// high-water capacity — one oversized solve no longer pins tens of MB per
// serving thread forever; bench_serve_load asserts this stays bounded.
std::size_t ThreadScratchBytes();

// A pinned read handle on a FastSteinerEngine's current CSR snapshot.
// While any pin is alive, mutators copy-on-write instead of patching in
// place (and move the shortest-path cache to a new generation), so the
// pinned CsrGraph — and with it the generation the pin captured — stays
// bitwise frozen for as long as the holder keeps the struct alive.
// Solve* pin internally unless handed a pin; a whole top-k enumeration
// passes one pin through every subproblem (see top_k.h) so a re-cost
// landing mid-enumeration can never mix cost snapshots within one search.
// Namespace-scope (rather than nested) so top_k.h can forward-declare it.
struct SnapshotPin {
  std::shared_ptr<const CsrGraph> csr;
  // Engine generation at pin time.
  std::uint64_t generation = 0;
  // Shortest-path cache generation at pin time; the pinned solve's
  // cache lookups and inserts are keyed under it (see sp_cache.h), so
  // they can never mix with entries of other cost snapshots.
  std::uint64_t cache_generation = 0;
};

// Borrowed view of a TerminalLocalizer mask for one masked solve (see
// shard.h). The pointed-to vectors are owned by an immutable ShardMask
// the caller keeps alive via shared_ptr for the duration of the call.
struct MaskView {
  const std::vector<std::uint8_t>* in_mask = nullptr;  // node bitmap
  const std::vector<std::uint32_t>* nodes = nullptr;   // ascending node ids
  // Compact local-id view (the ShardMask owning the vectors above, which
  // also carries the local sub-CSR — see shard.h). When set, masked
  // Dijkstras run over dense local ids with every per-node array sized to
  // the mask, translating back to global ids only where results feed the
  // metric closure, the certificates, the exact-DP eligibility scan, and
  // tree extraction. Null runs the uncompacted masked path — kept as the
  // bit-identity referee (ShardedSearchConfig::compact_local_ids).
  const ShardMask* compact = nullptr;
  // Real-cost radius around the terminals the mask provably covers. The
  // solvers certify each solve from its own clipped-frontier offers
  // rather than from this radius; it remains the localizer's growth
  // knob (each escalation doubles it — see shard.h).
  double r_proof = 0.0;
  // Mask epoch, forwarded from the localizer snapshot the view was taken
  // under; Escalate uses it to dedup concurrent growth requests.
  std::uint64_t epoch = 0;
};

// Verdict of a masked solve. kOk means the per-subproblem identity
// conditions verified and the returned value (tree or infeasibility) is
// bit-identical to what the unmasked solver would produce. kEscalate
// means a condition failed — the result carries no information and the
// caller must grow the mask (TerminalLocalizer::Escalate) and retry.
enum class MaskedOutcome { kOk, kEscalate };

// Allocation-free Steiner solvers over a shared CSR snapshot.
//
// One engine is built per (graph, weights) pair — the CSR adjacency and
// edge costs are materialized exactly once — and then every Lawler
// subproblem is solved against it with forced/banned edges applied as
// O(|edit|) overlays: forced edges are traversed at cost 0 (the overlay
// analogue of SteinerProblem's endpoint contraction; their real cost is
// charged up front) and banned edges are skipped. Per-solve state lives in
// a thread-local scratch arena, so Solve* are safe to call concurrently
// and do no steady-state allocation.
//
// When `use_cache` is set, per-terminal Dijkstra trees are shared across
// subproblems through a ShortestPathCache (see sp_cache.h for the reuse
// rule), and whole unmasked subproblem verdicts through a SolveMemo (see
// SolveMemoized). Cache and memo state never change solver output (any
// valid entry equals a fresh computation), which is what keeps
// cached/parallel runs byte-identical to sequential uncached runs.
//
// Concurrency (the async refresh scheduler's contract): any number of
// Solve* calls may run concurrently with each other AND with one
// mutator (Recost/RecostDelta) — each solve pins the CSR snapshot at
// entry (see Pin) and runs to completion against those costs even if a
// re-cost lands mid-solve; the mutator copies-on-write when pins are
// outstanding, so a search never observes a half-repriced snapshot.
// Mutators and PreviewDelta must still be externally serialized against
// each other (they share the engine's scratch and postings index);
// per-view task ordering provides that upstream.
class FastSteinerEngine {
 public:
  FastSteinerEngine(const graph::SearchGraph& graph,
                    const graph::WeightVector& weights, bool use_cache);

  // Weight-only snapshot refresh: re-costs every CSR edge in place
  // (topology arrays untouched; copy-on-write when a SnapshotPin is
  // outstanding) and moves the shortest-path cache to a new generation so
  // no tree computed under the old weights can be served.
  // Precondition: `graph` has exactly the node/edge set this engine was
  // built from. Far cheaper than rebuilding the engine and — because arc
  // order is preserved and the cache is generation-keyed — produces
  // byte-identical output to a fresh engine over the same (graph, weights).
  void Recost(const graph::SearchGraph& graph,
              const graph::WeightVector& weights);

  // Outcome of RecostDelta, for the refresh engine's classification and
  // observability counters.
  struct RecostDeltaOutcome {
    // False when the delta was too large to be worth the selective path
    // (candidate edges above half the snapshot); nothing was changed and
    // the caller must fall back to full Recost.
    bool applied = false;
    // Edges whose features mention a touched feature (the postings hits).
    std::size_t candidate_edges = 0;
    // Edges whose cost actually moved.
    std::size_t edges_repriced = 0;
    // Shortest-path cache entries retained/dropped by the selective
    // invalidation (both 0 when caching is disabled or nothing moved).
    std::size_t cache_entries_retained = 0;
    std::size_t cache_entries_dropped = 0;
  };

  // Delta snapshot refresh: maps the touched features of a sparse weight
  // update (plus optionally `extra_edges`, e.g. edges whose FeatureVec
  // itself was mutated) through a lazily built feature->edge postings
  // index and re-evaluates only those edges. Bitwise identical to a full
  // Recost over the same state — same EdgeCost computation, untouched
  // edges provably cannot move (their w · f(e) reads no touched weight).
  // The shortest-path cache is invalidated selectively
  // (ShortestPathCache::InvalidateRepriced) instead of wholesale: its
  // generation does not move, so provably unaffected Dijkstra trees keep
  // serving lookups across the refresh. The engine generation advances
  // only when at least one edge cost moved.
  //
  // Precondition: same node/edge set as at construction, and every
  // edge's FeatureVec unchanged since the postings index was built —
  // after mutating a FeatureVec, call InvalidateFeatureIndex() and list
  // the mutated edges in `extra_edges`.
  RecostDeltaOutcome RecostDelta(
      const graph::SearchGraph& graph, const graph::WeightVector& weights,
      const std::vector<graph::FeatureDelta>& deltas,
      const std::vector<graph::EdgeId>& extra_edges = {});

  // Read-only twin of RecostDelta for the relevance gate: maps the delta
  // through the same feature->edge postings and appends the would-be
  // RepricedEdge records to `repriced` without patching the snapshot or
  // touching the shortest-path cache. Returns false (and leaves
  // `repriced` untouched) when the delta is dense (candidates above half
  // the snapshot, the same threshold RecostDelta declines at) — the
  // caller must then take the ordinary re-cost paths. Same FeatureVec
  // precondition as RecostDelta; callers with mutated edges must not
  // preview (the gate only runs on pure weight deltas).
  bool PreviewDelta(const graph::SearchGraph& graph,
                    const graph::WeightVector& weights,
                    const std::vector<graph::FeatureDelta>& deltas,
                    std::vector<RepricedEdge>* repriced);

  // Drops the feature->edge postings index (rebuilt from the graph on
  // the next RecostDelta). Required after any edge FeatureVec mutation.
  void InvalidateFeatureIndex() { feature_index_.reset(); }

  // Snapshot generation: 0 at construction, +1 per Recost and per
  // effective RecostDelta (one that moved at least one edge cost), so it
  // names the CSR cost bits — the subproblem memo is scoped to it.
  // Mirrors the cache generation when caching is enabled and only full
  // Recosts occur; a delta re-cost advances the engine generation but
  // deliberately not the cache generation (surviving entries stay
  // servable).
  std::uint64_t generation() const { return generation_; }

  SnapshotPin Pin() const;

  // KMB 2-approximation (the contraction semantics of SolveKmbSteiner).
  // Returns nullopt when the subproblem is infeasible (forced edges banned
  // or cyclic, or terminals disconnected). The pin-taking overloads solve
  // against the caller's pinned snapshot (one Pin() can cover a whole
  // enumeration); the pin-free ones pin per call.
  std::optional<SteinerTree> SolveKmb(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);
  std::optional<SteinerTree> SolveKmb(
      const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);

  // Dreyfus–Wagner style exact DP (the semantics of SolveExactSteiner).
  std::optional<SteinerTree> SolveExact(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);
  std::optional<SteinerTree> SolveExact(
      const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);

  // SolveKmb or SolveExact (per `kind`) against `pin`, served from the
  // engine's subproblem memo when the same call was already solved under
  // the pin's generation (see SolveMemo in sp_cache.h). The memo exists
  // exactly when the shortest-path cache does (`use_cache`); a hit
  // returns what the pure call returns, so memo state never changes
  // output. Entries live for one engine generation: Recost and every
  // RecostDelta that moves a cost purge them, and a solve pinned to an
  // older generation neither reads nor inserts. TopKSteinerTrees routes
  // every unmasked Lawler subproblem through here.
  std::optional<SteinerTree> SolveMemoized(
      const SnapshotPin& pin, SolverKind kind,
      const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);

  // Masked variants for sharded terminal-local search. They solve over
  // the subgraph induced by the mask (arcs whose head is outside are
  // skipped) and then VERIFY, per subproblem, a boundary certificate
  // under which the masked result is provably bit-identical to the
  // unmasked one. Each masked Dijkstra records the cheapest offer it
  // clipped at the mask boundary (SpTree::mask_min_clip); any path that
  // escapes the mask costs at least that offer, so every settled value
  // strictly below it can neither be improved nor tied from outside —
  // by induction over the canonical (dist, id) settle order, the masked
  // prefix below the clip floor IS the unmasked prefix, predecessors
  // included. Per solve the checks are:
  //
  //  * KMB: for each terminal's tree, every pairwise terminal overlay
  //    distance (KMB's read horizon — predecessor walks sit below it)
  //    is strictly below that tree's clip floor. A terminal unreachable
  //    within the mask certifies only when the tree clipped nothing, in
  //    which case the infeasibility verdict is exact.
  //  * Exact additionally requires the slacked KMB bound to sit strictly
  //    below every tree's clip floor: the DP reads distances up to that
  //    pruning threshold (eligibility, singleton slices, reconstruction
  //    walks), so the bound-pruned eligible set, the mini-CSR, the DP,
  //    and the reconstruction provably coincide with the unmasked ones.
  //
  // The certificate is per-run and overlay-exact: forced edges shorten
  // overlay distances on both sides of the comparison identically, so
  // deep Lawler children with expensive forced prefixes certify as long
  // as their reads stay local — no radius is charged for the prefix.
  //
  // Any violated condition sets *outcome = kEscalate and returns nullopt
  // with no verdict — in particular the masked exact solver never runs
  // the threshold-lifting eligibility retry, because an uncovered
  // terminal under a mask proves nothing. An escalating solve still
  // yields one certified fact, reported through `escalate_bound` when
  // non-null: a lower bound on the cost of EVERY tree in the subspace.
  // Any spanning tree's cost is at least the forced prefix plus the
  // largest pairwise terminal overlay distance, and each such distance
  // is at least min(masked distance, clip floor) — a connecting path
  // either stays inside the mask (≥ the masked distance) or escapes it
  // (≥ the clip floor). Lawler enumeration uses this to park
  // uncertified children in its heap by bound and only pay for mask
  // escalation if a child surfaces before k trees are emitted (see
  // top_k.cc).
  //
  // Caching: masked solves never touch the unmasked (generation-keyed)
  // half of the shortest-path cache — those entries describe the full
  // graph. Compacted masked solves (mask.compact set) share *local*
  // trees through the cache's mask-uid-keyed half instead: arrays are
  // mask-sized, so materializing them is cheap, and the uid pins both
  // the mask and the cost snapshot its view baked in. A served tree's
  // mask_min_clip can understate a fresh run's under a superset banned
  // set (see sp_cache.h) — certification is then conservative, never
  // unsound, and certified output is still bit-identical. The
  // uncompacted referee path keeps the original behavior — no caching
  // at all — and counts toward FastSolveStats::masked_bypasses.
  std::optional<SteinerTree> SolveKmbMasked(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const MaskView& mask,
      MaskedOutcome* outcome, double* escalate_bound = nullptr);
  std::optional<SteinerTree> SolveExactMasked(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const MaskView& mask,
      MaskedOutcome* outcome, double* escalate_bound = nullptr);

  // Lazily built, cached shard partition of the engine's topology (the
  // node/edge set is fixed for the engine's lifetime and re-costs never
  // move arcs, so one partition serves every snapshot generation).
  // Rebuilt only when `target_nodes` changes.
  std::shared_ptr<const ShardPartition> Shards(std::uint32_t target_nodes);

  // The current snapshot. Valid only while no mutator runs concurrently;
  // concurrent readers must hold a Pin instead.
  const CsrGraph& csr() const { return *csr_; }
  FastSolveStats stats() const;

 private:
  // Shared front half of RecostDelta/PreviewDelta: maps the deltas'
  // touched features through the (lazily built) postings index into
  // candidate_scratch_ (sorted, deduped, plus extra_edges). Returns
  // false when the delta is dense — candidates above half the snapshot —
  // and selective repricing would gain nothing.
  bool CollectDeltaCandidates(const graph::SearchGraph& graph,
                              const std::vector<graph::FeatureDelta>& deltas,
                              const std::vector<graph::EdgeId>& extra_edges);

  // Takes snapshot_mu_, and clones csr_ first when pins are outstanding
  // (copy-on-write: the old buffer stays alive under its holders'
  // shared_ptrs). Returns whether a clone happened — the caller must then
  // bump the cache generation wholesale instead of invalidating
  // selectively, because solves of the old snapshot may still be
  // populating the old generation.
  bool BeginMutation();

  // Shared bodies of the plain and masked solvers; `mask` == nullptr is
  // the unmasked path (then `outcome` is ignored and the engine's own
  // cache serves the solve; masked solves run uncached).
  std::optional<SteinerTree> SolveKmbImpl(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const MaskView* mask,
      MaskedOutcome* outcome, double* escalate_bound);
  std::optional<SteinerTree> SolveExactImpl(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const MaskView* mask,
      MaskedOutcome* outcome, double* escalate_bound);

  // COW under snapshot_mu_: holders of a SnapshotPin share this pointer.
  std::shared_ptr<CsrGraph> csr_;
  // Outstanding SnapshotPin count. Pin() increments under snapshot_mu_;
  // the last copy of a pin's csr handle decrements with release ordering
  // from its deleter. BeginMutation's acquire load of 0 is the
  // happens-before edge that makes the in-place (un-pinned) mutation
  // path safe — shared_ptr's use_count() is a relaxed load and cannot
  // order the writer after a reader's final unpin. Heap-allocated so a
  // pin outliving the engine decrements a still-live counter.
  std::shared_ptr<std::atomic<std::int64_t>> pins_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
  mutable std::mutex snapshot_mu_;
  std::uint64_t generation_ = 0;
  std::unique_ptr<ShortestPathCache> cache_;  // null when caching disabled
  std::unique_ptr<SolveMemo> memo_;           // null when caching disabled
  // Lazily built by RecostDelta; reset by InvalidateFeatureIndex.
  std::unique_ptr<FeatureEdgeIndex> feature_index_;
  // Scratch reused across RecostDelta calls.
  std::vector<graph::FeatureId> touched_scratch_;
  std::vector<graph::EdgeId> candidate_scratch_;
  std::vector<RepricedEdge> repriced_scratch_;
  // Cached shard partition (see Shards); guarded by snapshot_mu_.
  std::shared_ptr<const ShardPartition> shards_;
  std::uint32_t shard_target_ = 0;
};

// Test-only probe: one masked single-source Dijkstra through either the
// compacted (mask.compact set) or uncompacted path, projected to global
// node ids so the stress suite can assert the two are byte-equal —
// distances, predecessors, settled sets, tree edges, and mask_min_clip.
struct MaskedSpProbe {
  std::vector<double> dist;                // per global node; +inf outside
  std::vector<std::uint32_t> pred_node;    // global ids
  std::vector<graph::EdgeId> pred_edge;    // global edge ids
  std::vector<std::uint8_t> settled;       // per global node
  std::vector<graph::EdgeId> tree_edges;   // sorted unique global edges
  double mask_min_clip = 0.0;
  bool complete = false;
};
MaskedSpProbe ComputeMaskedSpTreeForTest(
    const CsrGraph& csr, const MaskView& mask, std::uint32_t source,
    const std::vector<graph::NodeId>& targets, bool stop_at_targets,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned);

}  // namespace q::steiner

#endif  // Q_STEINER_FAST_SOLVER_H_
