#ifndef Q_STEINER_SP_CACHE_H_
#define Q_STEINER_SP_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/csr.h"
#include "steiner/steiner_tree.h"

namespace q::steiner {

// One terminal's single-source shortest-path tree over a CsrGraph under an
// overlay (forced edges traversed at cost 0, banned edges removed).
// `pred_edge[v]` is the first arc to achieve v's final distance under a
// canonical attempt order: nodes expand in (dist, id) order (the DaryHeap
// pops ties by id) and each node's arcs are scanned in fixed CSR order.
// That makes the whole structure a pure function of the overlayed costs —
// independent of push/decrease history — which the reuse rule below
// relies on.
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

// Cross-subproblem cache of per-terminal Dijkstra trees, keyed on the
// terminal plus the overlay signature it was computed under. Lawler
// enumeration produces long chains of subproblems that differ by one
// banned edge; an entry computed under (F1, B1) answers a query for
// (F2, B2) exactly when the edit set provably cannot change the result:
//
//   * every edge in F1 xor F2 has base cost 0 (forcing an edge that is
//     already free, or un-forcing one, changes neither the cost function
//     nor the arc set, so nothing changes), and
//   * B1 is a subset of B2 and every edge in B2 \ B1 is absent from the
//     cached tree. Removing a non-tree edge e cannot change any distance
//     (the predecessor chains are e-free witnesses of every dist value),
//     so the canonical expansion order is unchanged; and e cannot be any
//     settled node's first achieving arc in that order (it would be the
//     predecessor, i.e. a tree edge), so dropping it changes no
//     predecessor either.
//
// Because searches stop early, a valid entry must additionally have
// settled every terminal the caller needs (`required` below); different
// settled extents never change the values actually read, since settled
// prefixes of the same canonical run agree wherever both are settled.
//
// FastSteinerEngine inserts clean-overlay (F, B) = ({}, {}) trees only, in
// both halves (see AcquireSpTrees in fast_solver.cc), so an overlay
// lookup is answered by the rule above from its terminal's clean tree or
// recomputed in scratch; exact repeats of whole overlay subproblems are
// served one level up by SolveMemo below. On the qbench workloads the
// rule serves almost no lookups (measured in docs/query_engine.md,
// "Shortest-path cache").
//
// Entries are immutable after insertion and returned by shared_ptr, so
// concurrent solvers can hold results while other threads insert. Because
// any valid entry is byte-identical to a fresh computation, cache state
// (and therefore thread interleaving) can never change solver output.
//
// Entries are keyed by (generation, terminal): the generation names the
// cost snapshot the tree was computed under, so a cache that outlives one
// top-k enumeration (the RefreshEngine keeps one per view across
// refreshes) is invalidated wholesale by BumpGeneration() when the
// snapshot is re-costed — a lookup can never be served by a tree from an
// older weight vector. Within one generation entries stay valid
// indefinitely, which is what lets consecutive refreshes at the same
// generation reuse each other's Dijkstra trees.
//
// Thread safety: the entry map is sharded by key hash with a mutex per
// shard, and the hit/miss/size/generation counters are atomics, so any
// number of pinned solves may Lookup/Insert concurrently (the serving
// path runs many searches against one shared view engine). BumpGeneration
// may also run concurrently with pinned traffic — old-generation lookups
// and inserts racing the purge are harmless by the keying argument above.
// InvalidateRepriced keeps its stronger contract: no same-generation
// solve may be in flight (the engine guarantees this by holding its
// snapshot lock and bumping instead whenever the snapshot is pinned).
class ShortestPathCache {
 public:
  explicit ShortestPathCache(std::size_t max_entries = 1024)
      : max_entries_(max_entries) {}

  // Moves the cache to a new cost snapshot: generation() advances and
  // entries of older generations are purged (a current-generation lookup
  // could never match them — the generation is part of the key — so
  // dropping them reclaims their memory and capacity). Solves in flight
  // across a bump are safe as long as they pass the generation they
  // pinned: their lookups and inserts stay keyed under the old
  // generation, so an old-cost tree can never satisfy a new-generation
  // lookup (inserts after the purge linger as capacity-bounded garbage
  // until the next bump).
  void BumpGeneration();
  std::uint64_t generation() const;

  // Selective invalidation after a delta re-cost, the alternative to
  // BumpGeneration when only a few edges moved: keeps an entry iff no
  // repriced edge can change its tree under a conservative provable
  // rule — for every repriced edge e, at least one of
  //
  //   * e is in the entry's forced set (traversed at cost 0 regardless
  //     of its base cost, so the tree never read the old value), or
  //   * e is in the entry's banned set (excluded from traversal), or
  //   * e's cost strictly increased and e is not a tree edge: every
  //     settled distance keeps its e-free predecessor-chain witness,
  //     every offer through e only grows (so it can neither settle a new
  //     node earlier nor become a first-achieving arc), and the
  //     canonical expansion order — hence the settled prefix of an
  //     early-stopped run — is unchanged.
  //
  // A cost decrease anywhere outside forced/banned, or any change to a
  // tree edge, drops the entry. Surviving entries stay keyed under the
  // current generation and remain bitwise identical to fresh
  // computations under the new costs, so cache hits after a delta
  // re-cost still never change solver output. Unlike BumpGeneration this
  // re-judges current-generation entries under new costs, so callers must
  // not invalidate while a solve of the *same generation* is in flight —
  // FastSteinerEngine enforces this by bumping instead whenever its
  // snapshot is pinned. `retained`/`dropped` (optional) receive the
  // entry counts.
  void InvalidateRepriced(const std::vector<RepricedEdge>& repriced,
                          std::size_t* retained, std::size_t* dropped);

  // A valid cached tree for `terminal` under the (sorted) overlay sets
  // with every node of `required` settled, or nullptr. `edge_cost` is the
  // CSR base cost array used for the zero-cost forced-set rule.
  //
  // `generation` names the cost snapshot the caller is solving against —
  // normally generation(), but a solver holding a SnapshotPin passes the
  // generation captured at pin time, so a solve that outlives a
  // concurrent re-cost keeps hitting (and populating) only entries of its
  // own pinned costs and can never be served a tree from a different
  // snapshot (see FastSteinerEngine::Pin).
  std::shared_ptr<const SpTree> Lookup(
      std::uint64_t generation, std::uint32_t terminal,
      const std::vector<graph::EdgeId>& forced_sorted,
      const std::vector<graph::EdgeId>& banned_sorted,
      const std::vector<double>& edge_cost,
      const std::vector<std::uint32_t>& required, bool require_complete);

  // True while the cache still accepts inserts; lets callers skip
  // materializing entries that would be dropped anyway.
  bool HasRoom() const;

  // Registers a freshly computed tree for (terminal, forced, banned)
  // under `generation` (same pin rule as Lookup: a pinned solve inserts
  // under its pinned generation, so stale-cost trees can never satisfy
  // current-generation lookups). Drops the insert once `max_entries` is
  // reached (entries stay valid for the lifetime of their generation, so
  // eviction is not needed within one top-k enumeration, which is the
  // cache's scope).
  void Insert(std::uint64_t generation, std::uint32_t terminal,
              std::vector<graph::EdgeId> forced_sorted,
              std::vector<graph::EdgeId> banned_sorted,
              std::shared_ptr<const SpTree> tree);

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t size() const;

  // --- masked local-tree cache (mask-uid keyed) -------------------------
  //
  // Compacted masked solves store per-terminal Dijkstra trees whose
  // arrays are indexed by the mask's *local* ids (see shard.h). Such a
  // tree is meaningless under any other mask, so these entries are keyed
  // by the mask's process-unique uid instead of the cost generation: a
  // grown (escalated) mask gets a fresh uid and starts cold, and the uid
  // also names the cost snapshot (the compact view bakes the pinned arc
  // costs), so generation never enters the key. The overlay reuse rule is
  // the same as the global store's — edge ids in forced/banned/tree_edges
  // are global either way — with `required` given as local terminal ids.
  //
  // Clip caveat: a cached tree's mask_min_clip was recorded under the
  // entry's own banned set. Serving a superset-ban lookup can only
  // *understate* the fresh clip floor (banning a boundary arc removes a
  // clipped offer, never adds one), so certification against a served
  // clip is conservative — a solve may escalate where a fresh run would
  // certify, but a certified result is still exactly the unmasked one,
  // and solver *output* is unchanged (bounds never exceed true costs).
  //
  // Capacity is separate and small; local working sets live and die with
  // one enumeration. When full, the store is wholesale-cleared before the
  // insert — cheap, and each enumeration keeps its own hits.
  std::shared_ptr<const SpTree> LookupLocal(
      std::uint64_t mask_uid, std::uint32_t terminal,
      const std::vector<graph::EdgeId>& forced_sorted,
      const std::vector<graph::EdgeId>& banned_sorted,
      const std::vector<double>& edge_cost,
      const std::vector<std::uint32_t>& required_local, bool require_complete);
  void InsertLocal(std::uint64_t mask_uid, std::uint32_t terminal,
                   std::vector<graph::EdgeId> forced_sorted,
                   std::vector<graph::EdgeId> banned_sorted,
                   std::shared_ptr<const SpTree> tree);

  // Counts masked solves that ran with no cache at all (uncompacted
  // referee path); the observability gap that hid the compaction bug.
  void NoteMaskedBypass(std::size_t trees);

  std::size_t local_hits() const;
  std::size_t local_misses() const;
  std::size_t local_size() const;
  std::size_t masked_bypasses() const;

 private:
  struct Entry {
    std::vector<graph::EdgeId> forced;  // sorted
    std::vector<graph::EdgeId> banned;  // sorted
    std::shared_ptr<const SpTree> tree;
  };

  static bool Valid(const Entry& entry,
                    const std::vector<graph::EdgeId>& forced,
                    const std::vector<graph::EdgeId>& banned,
                    const std::vector<double>& edge_cost,
                    const std::vector<std::uint32_t>& required,
                    bool require_complete);

  // (generation << 32) | terminal. Terminals are node ids of one CSR
  // snapshot and stay well below 2^32; generations count re-costs.
  static std::uint64_t Key(std::uint64_t generation, std::uint32_t terminal) {
    return (generation << 32) | terminal;
  }

  // One lock + map per shard; keys spread by a Fibonacci-hash of the key
  // so concurrent searches over different terminals rarely contend.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> by_key;
  };
  static constexpr std::size_t kNumShards = 8;
  static std::size_t ShardIndex(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 61);
  }

  // (mask_uid << 32) | terminal, in a separate shard array so local and
  // global keys can never meet. Uids are process-monotone and stay far
  // below 2^32 in any realistic run.
  static std::uint64_t LocalKey(std::uint64_t mask_uid,
                                std::uint32_t terminal) {
    return (mask_uid << 32) | terminal;
  }

  std::size_t max_entries_;
  std::atomic<std::size_t> num_entries_{0};
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::array<Shard, kNumShards> shards_;

  std::size_t max_local_entries_ = 512;
  std::atomic<std::size_t> num_local_entries_{0};
  mutable std::atomic<std::size_t> local_hits_{0};
  mutable std::atomic<std::size_t> local_misses_{0};
  std::atomic<std::size_t> masked_bypasses_{0};
  std::array<Shard, kNumShards> local_shards_;
};

// The single-tree solver a memoized verdict came from.
enum class SolverKind : std::uint8_t { kKmb, kExact };

// Memo of solved unmasked Lawler subproblems, one per FastSteinerEngine
// (see FastSteinerEngine::SolveMemoized). An entry maps a solve's exact
// inputs — solver kind, terminals, forced and banned edges, as passed —
// plus the engine generation the solve was pinned to, onto the verdict
// the solver returned: the tree, or nullopt for an infeasible subspace.
// A solver run is a pure function of those inputs and the CSR cost bits
// the generation names, so a hit is exactly what re-solving would
// return; Lawler rebuilds identical vectors whenever it repeats a
// subproblem, which is what every search repeated against an unchanged
// snapshot does.
//
// Generation scope: the memo holds entries of one engine generation only.
// Advance() moves it to the engine's new generation and purges the rest.
// A solve pinned to an older generation neither reads nor inserts
// current-generation entries: the generation is part of the key, and an
// insert compares it with the current one under the shard lock. Advance
// publishes the new generation before it purges a shard, so no
// old-generation insert can land after that shard's purge.
//
// Bounded by kMaxEntries; once full, inserts are dropped (as in the
// shortest-path cache) until the next generation frees the memo.
// Thread safety: sharded map with one mutex per shard and atomic
// counters, so concurrent enumerations and pool-parallel Lawler children
// on one engine may look up and insert at once.
class SolveMemo {
 public:
  // Per-engine entry cap. The most entries one engine generation held
  // on the qbench workloads were 336 (one enumeration of the heaviest
  // InterPro-GO serving view), 265 (a k = 3 GBCO view under feedback)
  // and 48 (onboarding), so 2048 leaves at least 6x headroom.
  static constexpr std::size_t kMaxEntries = 2048;

  // True, with the memoized verdict copied to *verdict, when the
  // subproblem was solved under `generation`.
  bool Lookup(std::uint64_t generation, SolverKind kind,
              const std::vector<graph::NodeId>& terminals,
              const std::vector<graph::EdgeId>& forced,
              const std::vector<graph::EdgeId>& banned,
              std::optional<SteinerTree>* verdict) const;

  // Records a verdict solved under `generation`. Dropped when the memo
  // is full, when `generation` is no longer current, or when a
  // concurrent solve already recorded the same subproblem.
  void Insert(std::uint64_t generation, SolverKind kind,
              const std::vector<graph::NodeId>& terminals,
              const std::vector<graph::EdgeId>& forced,
              const std::vector<graph::EdgeId>& banned,
              const std::optional<SteinerTree>& verdict);

  // Moves to engine generation `generation` and purges every entry.
  void Advance(std::uint64_t generation);

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t size() const;
  // Bytes held by the entries: the entry records, their map nodes and
  // bucket slots, and the heap payload of their vectors.
  std::size_t bytes() const;

 private:
  struct Entry {
    std::uint64_t generation = 0;
    SolverKind kind = SolverKind::kKmb;
    std::vector<graph::NodeId> terminals;
    std::vector<graph::EdgeId> forced;
    std::vector<graph::EdgeId> banned;
    std::optional<SteinerTree> verdict;
  };

  static std::uint64_t Hash(std::uint64_t generation, SolverKind kind,
                            const std::vector<graph::NodeId>& terminals,
                            const std::vector<graph::EdgeId>& forced,
                            const std::vector<graph::EdgeId>& banned);
  static bool Matches(const Entry& entry, std::uint64_t generation,
                      SolverKind kind,
                      const std::vector<graph::NodeId>& terminals,
                      const std::vector<graph::EdgeId>& forced,
                      const std::vector<graph::EdgeId>& banned);

  // Same layout as ShortestPathCache's shards, keyed by the input hash;
  // a hash collision just lengthens one bucket's vector.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> by_hash;
    std::size_t bytes = 0;  // of the entries in by_hash
  };
  static constexpr std::size_t kNumShards = 8;
  static std::size_t ShardIndex(std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> 61);
  }

  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> num_entries_{0};
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::array<Shard, kNumShards> shards_;
};

}  // namespace q::steiner

#endif  // Q_STEINER_SP_CACHE_H_
