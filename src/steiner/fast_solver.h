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
#include "steiner/steiner_tree.h"
#include "steiner/top_k_memo.h"

namespace q::steiner {

struct ShardPartition;
struct ShardMask;

// sp_cache_hits, sp_cache_misses, sp_local_hits, sp_local_misses and
// masked_bypasses always read 0: the shortest-path cache they counted is
// gone. They stay because the benchmark reads them.
struct FastSolveStats {
  std::size_t sp_cache_hits = 0;
  std::size_t sp_cache_misses = 0;
  std::size_t sp_local_hits = 0;
  std::size_t sp_local_misses = 0;
  std::size_t masked_bypasses = 0;
  // Enumeration memo traffic (TopKMemo): enumerations served and missed,
  // live entries, and the heap bytes they hold.
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
// place, so the pinned CsrGraph — and with it the generation the pin
// captured — stays bitwise frozen for as long as the holder keeps the
// struct alive.
// Solve* pin internally unless handed a pin; a whole top-k enumeration
// passes one pin through every subproblem (see top_k.h) so a re-cost
// landing mid-enumeration can never mix cost snapshots within one search.
// Namespace-scope (rather than nested) so top_k.h can forward-declare it.
struct SnapshotPin {
  std::shared_ptr<const CsrGraph> csr;
  // Engine generation at pin time; it scopes the enumeration memo.
  std::uint64_t generation = 0;
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
// analogue of the contraction in tests/reference_steiner.h; their real
// cost is charged up front) and banned edges are skipped. Per-solve state
// lives in a thread-local scratch arena, so Solve* are safe to call
// concurrently and do no steady-state allocation.
//
// Solves run their Dijkstras over an adjacency view: the CSR for unmasked
// solves, a mask's compact local-id sub-CSR for masked ones (see
// shard.h). The exact solver grows every deduped terminal's complete
// tree. KMB grows a terminal's tree only when Prim picks it, stopped once
// every terminal Prim has not picked yet is settled, and never grows the
// last pick's: Prim reads a tree only from a picked terminal at unpicked
// ones, and Dijkstra's canonical settle order makes the shorter run a
// prefix of the full one, so every value KMB reads equals the full run's.
// Trees live in the thread's scratch and are never shared between
// solves. When `use_memo` is set, the engine carries a TopKMemo of whole
// unsharded top-k enumerations (see top_k_memo.h), its only cache; the
// solvers themselves never read it. Memo state never changes output (a
// hit returns what the stored run returned), which is what keeps
// memoized/parallel runs byte-identical to sequential unmemoized runs.
//
// Concurrency (the async refresh scheduler's contract): any number of
// Solve* calls may run concurrently with each other AND with one
// mutator (Recost) — each solve pins the CSR snapshot at entry (see Pin)
// and runs to completion against those costs even if a re-cost lands
// mid-solve; the mutator copies-on-write when pins are outstanding, so a
// search never observes a half-repriced snapshot.
class FastSteinerEngine {
 public:
  FastSteinerEngine(const graph::SearchGraph& graph,
                    const graph::WeightVector& weights, bool use_memo);

  // Weight-only snapshot refresh: re-costs every CSR edge in place
  // (topology arrays untouched; copy-on-write when a SnapshotPin is
  // outstanding) and returns how many edge costs moved. The generation,
  // and with it the memo, advances only when at least one cost moved.
  // Precondition: `graph` has exactly the node/edge set this engine was
  // built from. Far cheaper than rebuilding the engine and — because arc
  // order is preserved and the memo is generation-keyed — produces
  // byte-identical output to a fresh engine over the same (graph, weights).
  std::size_t Recost(const graph::SearchGraph& graph,
                     const graph::WeightVector& weights);

  // Snapshot generation: 0 at construction, +1 per Recost that moved at
  // least one edge cost, so it names the CSR cost bits — the enumeration
  // memo is scoped to it.
  std::uint64_t generation() const { return generation_; }

  SnapshotPin Pin() const;

  // KMB 2-approximation (the semantics of the referee SolveKmbSteiner).
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

  // Dreyfus–Wagner exact DP (the referee SolveExactSteiner's semantics).
  std::optional<SteinerTree> SolveExact(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);
  std::optional<SteinerTree> SolveExact(
      const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned);

  // Masked variants for sharded terminal-local search. They solve over
  // the mask's compact local-id sub-CSR (see shard.h) — every per-node
  // array spans the mask, not the graph — skipping the arcs whose head
  // left the mask, and then VERIFY, per subproblem, a boundary certificate
  // under which the masked result is provably bit-identical to the
  // unmasked one. Each masked Dijkstra records the cheapest offer it
  // clipped at the mask boundary (its clip floor); any path that
  // escapes the mask costs at least that offer, so every settled value
  // strictly below it can neither be improved nor tied from outside —
  // by induction over the canonical (dist, id) settle order, the masked
  // prefix below the clip floor IS the unmasked prefix, predecessors
  // included. Per solve the checks are:
  //
  //  * KMB: each tree Prim grows certifies, as it is grown, the
  //    distances Prim reads from it — to the terminals still unpicked,
  //    KMB's read horizon (predecessor walks sit below it) — strictly
  //    below its clip floor. A terminal unreachable within the mask
  //    certifies only when the tree clipped nothing, in which case the
  //    infeasibility verdict is exact. When a tree fails, the solve grows
  //    every terminal's tree and checks every pairwise terminal distance
  //    against each tree's clip floor, so an escalating solve reports the
  //    verdict and bound of a solve that grew every tree. (A lazy tree
  //    stops no later than the every-terminal tree, so its clip floor is
  //    no lower and its largest read no higher: it passes whenever that
  //    one does, and a tree KMB never reads cannot fail the solve.)
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
  // Every clip floor a masked solve certifies against is computed by the
  // solve itself.
  //
  // Precondition: `mask` carries a compact view (ShardMask::BuildCompact)
  // built over the pinned snapshot that holds every deduplicated
  // terminal. TerminalLocalizer builds every mask that way.
  std::optional<SteinerTree> SolveKmbMasked(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const ShardMask& mask,
      MaskedOutcome* outcome, double* escalate_bound = nullptr);
  std::optional<SteinerTree> SolveExactMasked(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const ShardMask& mask,
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

  // The engine's enumeration memo, or null when built without `use_memo`.
  // Entries live for one engine generation: a Recost that moves a cost
  // purges them.
  TopKMemo* memo() { return memo_.get(); }

 private:
  // Caller holds snapshot_mu_. Clones csr_ first when pins are
  // outstanding (copy-on-write: the old buffer stays alive under its
  // holders' shared_ptrs).
  void BeginMutation();

  // Shared bodies of the plain and masked solvers; `mask` == nullptr is
  // the unmasked path (then `outcome` is ignored).
  std::optional<SteinerTree> SolveKmbImpl(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const ShardMask* mask,
      MaskedOutcome* outcome, double* escalate_bound);
  std::optional<SteinerTree> SolveExactImpl(
      const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
      const std::vector<graph::EdgeId>& forced,
      const std::vector<graph::EdgeId>& banned, const ShardMask* mask,
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
  std::unique_ptr<TopKMemo> memo_;  // null when built without `use_memo`
  // Cached shard partition (see Shards); guarded by snapshot_mu_.
  std::shared_ptr<const ShardPartition> shards_;
  std::uint32_t shard_target_ = 0;
};

// Test-only probe: one masked single-source Dijkstra through the solvers'
// kernel over `mask`'s compact view, projected to global node ids so the
// stress suite can diff it against the uncompacted referee in tests —
// distances, predecessors, settled sets, tree edges, and mask_min_clip.
// Precondition: `mask` has a compact view built over `csr` that holds
// `source`. Targets outside the mask are never settled, so they only
// keep the run from stopping early.
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
    const CsrGraph& csr, const ShardMask& mask, std::uint32_t source,
    const std::vector<graph::NodeId>& targets, bool stop_at_targets,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned);

}  // namespace q::steiner

#endif  // Q_STEINER_FAST_SOLVER_H_
