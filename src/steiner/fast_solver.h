#ifndef Q_STEINER_FAST_SOLVER_H_
#define Q_STEINER_FAST_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/csr.h"
#include "steiner/steiner_tree.h"

namespace q::steiner {

struct ShardPartition;
struct ShardMask;

// Every field always reads 0: the shortest-path cache they counted is
// gone, and the engine keeps no other cache. They stay because the
// benchmark reads them (ROADMAP item 1 drops them).
struct FastSolveStats {
  std::size_t sp_cache_hits = 0;
  std::size_t sp_cache_misses = 0;
  std::size_t sp_local_hits = 0;
  std::size_t sp_local_misses = 0;
  std::size_t masked_bypasses = 0;
};

// Bytes currently retained by the calling thread's search scratch: the
// solver arena (heap, union-finds, per-terminal tree slots, overlay flags,
// DP tables) and the localizer's (see shard.h). Every array in either is
// indexed by the ids of what one solve or mask build spans — a mask's
// compact view, a ball — so a thread serving masked requests holds about
// as much on a 100k-source catalog as on a 10k one
// (tests/graph_scale_test.cc). The solver arena also shrinks itself after
// a sustained streak of solves much smaller than its high-water capacity,
// so one unmasked solve does not pin catalog-sized arrays per thread
// forever (tests/local_compaction_test.cc, ScratchShrinkTest).
std::size_t ThreadScratchBytes();

// A read handle on an immutable CSR snapshot: the engine's current one
// (FastSteinerEngine::Pin), or a re-costed copy not installed yet
// (FastSteinerEngine::Recosted). Snapshots are never written after they
// are built, so the pinned costs stay bitwise frozen for as long as the
// holder keeps the struct alive, whatever the engine installs meanwhile.
// Solve* pin internally unless handed a pin; a whole top-k enumeration
// passes one pin through every subproblem (see top_k.h) so an install
// landing mid-enumeration can never mix cost snapshots within one search.
// Namespace-scope (rather than nested) so top_k.h can forward-declare it.
struct SnapshotPin {
  std::shared_ptr<const CsrGraph> csr;
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
// A solve runs wholly over an adjacency view — the CSR for unmasked
// solves, a mask's compact local-id sub-CSR for masked ones (see shard.h)
// — in its ids: the forced-edge contraction, the Dijkstras, Kruskal, leaf
// pruning and the exact DP's remap, with overlay flags per view arc. The
// unmasked path is the same code over the CSR. The exact solver grows
// every deduped terminal's complete tree. KMB grows a terminal's tree
// only when Prim picks it, stopped once every terminal Prim has not
// picked yet is settled, and never grows the last pick's: Prim reads a
// tree only from a picked terminal at unpicked ones, and Dijkstra's
// canonical settle order makes the shorter run a prefix of the full one,
// so every value KMB reads equals the full run's.
// Trees live in the thread's scratch and are never shared between
// solves; the engine keeps no cache.
//
// Concurrency (the async refresh scheduler's contract): a snapshot is
// immutable once built. Any number of Solve* calls may run concurrently
// with each other AND with Recosted and Install — each solve pins the
// snapshot at entry (see Pin) and runs to completion against those costs
// even if an install lands mid-solve.
class FastSteinerEngine {
 public:
  // `use_sp_cache` has no effect; it stays because the benchmark passes it
  // (ROADMAP item 1 drops it).
  FastSteinerEngine(const graph::SearchGraph& graph,
                    const graph::WeightVector& weights,
                    bool use_sp_cache = true);

  // Weight-only snapshot refresh, not installed: a copy of the current
  // snapshot with every edge re-costed (topology arrays untouched), and in
  // *moved how many edge costs differ from the current snapshot's.
  // Precondition: `graph` has exactly the node/edge set this engine was
  // built from. Far cheaper than rebuilding the engine and — because arc
  // order is preserved — produces byte-identical output to a fresh engine
  // over the same (graph, weights).
  SnapshotPin Recosted(const graph::SearchGraph& graph,
                       const graph::WeightVector& weights,
                       std::size_t* moved) const;

  // Makes `next` (a Recosted result) the current snapshot. Pins taken
  // before keep the snapshot they hold.
  void Install(SnapshotPin next);

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
  // built over the pinned snapshot that holds every terminal and both
  // endpoints of every forced and banned edge (checked). TerminalLocalizer
  // builds every mask around the terminals, and its masks only grow, so a
  // Lawler enumeration's edits — edges of pivots solved under the same or
  // a smaller mask — always lie inside.
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
  // move arcs, so one partition serves every installed snapshot).
  // Rebuilt only when `target_nodes` changes.
  std::shared_ptr<const ShardPartition> Shards(std::uint32_t target_nodes);

  // The current snapshot. Valid only while no Install runs concurrently;
  // concurrent readers must hold a Pin instead.
  const CsrGraph& csr() const { return *csr_; }
  // Always zero (see FastSolveStats).
  FastSolveStats stats() const { return {}; }

 private:
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

  // The current snapshot, replaced whole by Install under snapshot_mu_;
  // holders of a SnapshotPin share it.
  std::shared_ptr<const CsrGraph> csr_;
  mutable std::mutex snapshot_mu_;
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
