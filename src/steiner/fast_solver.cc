#include "steiner/fast_solver.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "steiner/shard.h"
#include "util/dary_heap.h"
#include "util/status.h"

namespace q::steiner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::uint8_t kFree = 0;
constexpr std::uint8_t kBanned = 1;
constexpr std::uint8_t kForced = 2;

bool SortedIntersect(const std::vector<graph::EdgeId>& a,
                     const std::vector<graph::EdgeId>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Union-find whose Reset is O(1): entries are lazily re-initialized via a
// version stamp, so a scratch arena can run one instance per subproblem
// without touching all n slots.
struct VersionedUf {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> version;
  std::uint32_t cur = 0;

  void Begin(std::size_t n) {
    if (parent.size() < n) {
      parent.resize(n);
      version.resize(n, 0);
    }
    if (++cur == 0) {  // stamp wrap: invalidate everything once
      std::fill(version.begin(), version.end(), 0);
      cur = 1;
    }
  }

  std::uint32_t Find(std::uint32_t x) {
    if (version[x] != cur) {
      version[x] = cur;
      parent[x] = x;
      return x;
    }
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // touched nodes only link to touched
      x = parent[x];
    }
    return x;
  }

  // Precondition: ru and rv are distinct roots from Find this round.
  void Union(std::uint32_t ru, std::uint32_t rv) { parent[ru] = rv; }
};

// Non-singleton DP backpointer; singleton subsets reconstruct by walking
// the per-terminal shortest-path trees instead.
struct Back {
  enum class Type : std::uint8_t { kNone, kMerge, kGrow };
  Type type = Type::kNone;
  std::uint32_t merge_subset = 0;
  std::uint32_t grow_pred = 0;
  graph::EdgeId grow_edge = graph::kInvalidEdge;
};

// A closure-path edge KMB collected, with its endpoints' view ids in the
// CSR's (edge_u, edge_v) orientation.
struct CollectedEdge {
  graph::EdgeId edge;
  std::uint32_t u;
  std::uint32_t v;
};

// One terminal's single-source shortest-path tree over an adjacency view
// (see AdjacencyView) under an overlay (forced edges traversed at cost 0,
// banned edges removed). Indexed by view id. `pred_edge[v]` is the first
// arc to achieve v's final distance under a canonical attempt order: nodes
// expand in (dist, id) order (the DaryHeap pops ties by id) and each
// node's arcs are scanned in fixed view order. That makes the whole
// structure a pure function of the overlayed costs — independent of
// push/decrease history.
// The search terminates as soon as every requested terminal is settled;
// nodes left unsettled are wiped back to (inf, invalid), so the stored
// arrays are a canonical prefix of the full run. `settled[v]` marks the
// nodes whose dist/pred are final.
struct SpTree {
  std::vector<double> dist;
  std::vector<std::uint32_t> pred_node;
  std::vector<graph::EdgeId> pred_edge;
  std::vector<std::uint8_t> settled;
  // The settled nodes — exactly the entries of dist/pred_*/settled that
  // differ from their (inf, invalid, 0) defaults. ComputeSpTree resets a
  // reused SpTree through this list instead of reinitializing the full
  // arrays, which keeps per-solve cost proportional to the neighborhood
  // the search actually explored rather than to the graph (the arrays
  // only pay O(num_nodes) once, when the object first grows).
  std::vector<std::uint32_t> touched;
  // True when the search ran to exhaustion (every reachable node settled).
  bool complete = false;
  // Masked runs only: the cheapest offer (settled distance + arc cost)
  // the search declined because the arc's head fell outside the mask —
  // +inf when nothing was clipped (or the run was unmasked). Any path
  // escaping the mask costs at least this much, so every settled value
  // strictly below it is provably identical to the unmasked run's; the
  // masked solvers verify their reads against it (see fast_solver.h).
  double mask_min_clip = kInf;
};

// The graph one solve runs over, wholly in its ids: the snapshot's CSR
// for unmasked solves, a mask's compact sub-CSR for masked ones (see
// shard.h). View ids run 0..num_nodes-1 and ascend with node ids, so
// (dist, view id) tie order is the canonical (dist, node id) order.
// `node_of` maps view ids to node ids; null means the identity (the CSR's
// case). A head equal to ShardMask::kExternal left the mask; the CSR has
// none. Each node's arcs list their edge ids in ascending order (the CSR
// is filled in edge-id order and the compact view copies each node's
// block), one arc per incident edge.
struct AdjacencyView {
  std::uint32_t num_nodes = 0;
  const std::uint32_t* offsets = nullptr;
  const std::uint32_t* heads = nullptr;
  const graph::EdgeId* edges = nullptr;  // global edge ids
  const double* costs = nullptr;
  const std::uint32_t* node_of = nullptr;  // view id -> node id, ascending

  std::uint32_t num_arcs() const { return offsets[num_nodes]; }

  std::uint32_t NodeOf(std::uint32_t id) const {
    return node_of == nullptr ? id : node_of[id];
  }
  // Binary search over the ascending node_of, so no node-indexed map is
  // needed; solves map only their terminals and edit edges, O(log L)
  // each. ShardMask::kExternal for a node outside the view. Branch-free:
  // the probes are unpredictable, and a solve maps a few dozen nodes.
  std::uint32_t ViewOf(std::uint32_t node) const {
    if (node_of == nullptr) {
      return node < num_nodes ? node : ShardMask::kExternal;
    }
    if (num_nodes == 0) return ShardMask::kExternal;
    // The last entry <= node, or the first entry when none is.
    const std::uint32_t* base = node_of;
    for (std::uint32_t n = num_nodes; n > 1;) {
      const std::uint32_t half = n / 2;
      base = base[half] <= node ? base + half : base;
      n -= half;
    }
    return *base == node ? static_cast<std::uint32_t>(base - node_of)
                         : ShardMask::kExternal;
  }
  // The arc of edge `e` in view node `v`'s block. Precondition: `e` is
  // incident on v.
  std::uint32_t ArcOf(std::uint32_t v, graph::EdgeId e) const {
    const graph::EdgeId* it =
        std::lower_bound(edges + offsets[v], edges + offsets[v + 1], e);
    return static_cast<std::uint32_t>(it - edges);
  }
};

AdjacencyView CsrView(const CsrGraph& csr) {
  return AdjacencyView{csr.num_nodes,
                       csr.offsets.data(),
                       csr.arc_head.data(),
                       csr.arc_edge.data(),
                       csr.arc_cost.data(),
                       /*node_of=*/nullptr};
}

// Precondition: m.HasCompact().
AdjacencyView CompactView(const ShardMask& m) {
  return AdjacencyView{static_cast<std::uint32_t>(m.nodes.size()),
                       m.local_offsets.data(),
                       m.local_arc_head.data(),
                       m.local_arc_edge.data(),
                       m.local_arc_cost.data(),
                       m.nodes.data()};
}

template <typename T>
std::size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t SpTreeBytes(const SpTree& sp) {
  return VecBytes(sp.dist) + VecBytes(sp.pred_node) + VecBytes(sp.pred_edge) +
         VecBytes(sp.settled) + VecBytes(sp.touched);
}

// Per-thread arena: every vector below is reused across solves, so the
// steady-state kernel does not allocate. Node- and arc-indexed arrays are
// indexed by view id and view arc, so a masked solve sizes them to its
// mask, however large the catalog around it. A shrink-after-oversized-
// solve policy (NoteSolveExtent below) keeps one full-graph solve on a
// huge snapshot from pinning the high-water arrays for the thread's
// lifetime.
struct SolverScratch {
  util::DaryHeap heap;
  VersionedUf uf;          // forced-edge contraction
  VersionedUf kruskal_uf;  // runs on top of the contraction's roots
  std::vector<graph::EdgeId> forced_sorted;
  std::vector<graph::EdgeId> banned_sorted;
  // View ids of the edit edges' endpoints, two per edge: forced_sorted's,
  // then banned_sorted's (ShardMask::kExternal outside the view).
  std::vector<std::uint32_t> edit_ends;
  // View ids of the deduped terminals, one per supernode; the trees in
  // sp_slots are read through them.
  std::vector<std::uint32_t> terminals;
  // Overlay flag per view arc. All-zero between solves; OverlayGuard sets
  // the edit edges' arcs (listed in flagged_arcs) and restores them. The
  // flat array makes the per-arc overlay test a single byte load.
  std::vector<std::uint8_t> arc_flag;  // kFree / kBanned / kForced
  std::vector<std::uint32_t> flagged_arcs;
  // Terminal markers for early stop, view-indexed; set and cleared around
  // each tree's growth (all-zero between solves).
  std::vector<std::uint8_t> is_target;

  // One tree slot per deduped terminal, in terminal order. A KMB solve
  // grows only the slots Prim reads (see GrowPickedTree); the others keep
  // whatever an earlier solve left there.
  std::vector<SpTree> sp_slots;

  // Prim over the terminal metric closure.
  std::vector<std::uint8_t> in_mst;
  std::vector<double> best;
  // t x t pairwise floor matrix for the boundary certificate's parked
  // lower bound (see CertifyPairwiseReads).
  std::vector<double> cert_floor;
  std::vector<std::size_t> best_from;
  std::vector<std::pair<std::size_t, std::size_t>> closure;

  // Closure-path expansion, Kruskal, and leaf pruning.
  std::vector<CollectedEdge> collected;
  std::vector<graph::EdgeId> mst;
  std::vector<std::uint32_t> ep_u;  // super endpoint per mst edge
  std::vector<std::uint32_t> ep_v;
  std::vector<std::uint32_t> local_of;     // view id -> local id
  std::vector<std::uint32_t> local_stamp;  // validity stamp for local_of
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> degree;
  std::vector<std::uint8_t> is_terminal_local;
  std::vector<std::uint32_t> inc_offset;
  std::vector<std::uint32_t> incidence;
  std::vector<std::uint32_t> leaf_queue;
  std::vector<std::uint8_t> removed;

  // Exact DP: eligible-subgraph mini CSR and flat (2^t) x n_e tables.
  // View id of each eligible node, ascending = mini id order.
  std::vector<std::uint32_t> elig_view;
  std::vector<std::uint32_t> mini_offsets;
  std::vector<std::uint32_t> mini_head;
  std::vector<graph::EdgeId> mini_edge;
  std::vector<double> mini_cost;
  std::vector<std::uint32_t> mini_terms;
  std::vector<double> dp;
  std::vector<Back> back;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rebuild_stack;

  // --- shrink-after-oversized-solve policy ------------------------------
  // A solve notes how many nodes its adjacency view spans (the mask size
  // for masked solves, num_nodes otherwise). After a streak of solves at
  // most 1/4 of the retained capacity, the oversized arrays are released
  // down to the streak's peak need — the next big solve pays one regrow,
  // which is the right trade against every serving thread pinning
  // full-graph arrays forever after one hub query.
  static constexpr int kShrinkStreak = 16;
  static constexpr std::size_t kShrinkFactor = 4;
  static constexpr std::size_t kMinShrinkNodes = std::size_t{1} << 14;
  int small_streak = 0;
  std::size_t streak_peak_nodes = 0;

  std::size_t CapacityNodes() const {
    std::size_t cap = heap.capacity_ids();
    for (const SpTree& slot : sp_slots) cap = std::max(cap, slot.dist.size());
    cap = std::max({cap, is_target.size(), uf.parent.size(),
                    kruskal_uf.parent.size(), local_stamp.size()});
    return cap;
  }

  // Reallocates the view-sized node arrays at `keep_nodes` (the stamped
  // ones empty: they regrow zeroed, which their stamps read as unset) and
  // sheds the arc flags, per-solve work lists and DP tables wholesale
  // (they regrow lazily, re-zeroing as they do). Precondition: between
  // solves — arc_flag/is_target are all-zero.
  void ReleaseOversized(std::size_t keep_nodes) {
    for (SpTree& slot : sp_slots) {
      if (slot.dist.size() > keep_nodes) slot = SpTree{};
    }
    if (heap.capacity_ids() > keep_nodes) heap.ShrinkTo(keep_nodes);
    if (is_target.size() > keep_nodes) {
      std::vector<std::uint8_t>(keep_nodes, 0).swap(is_target);
    }
    if (uf.parent.size() > keep_nodes) uf = VersionedUf{};
    if (kruskal_uf.parent.size() > keep_nodes) kruskal_uf = VersionedUf{};
    if (local_stamp.size() > keep_nodes) {
      std::vector<std::uint32_t>().swap(local_stamp);
      std::vector<std::uint32_t>().swap(local_of);
    }
    std::vector<std::uint8_t>().swap(arc_flag);
    std::vector<CollectedEdge>().swap(collected);
    std::vector<graph::EdgeId>().swap(mst);
    std::vector<std::uint32_t>().swap(ep_u);
    std::vector<std::uint32_t>().swap(ep_v);
    std::vector<std::uint8_t>().swap(is_terminal_local);
    std::vector<std::uint32_t>().swap(leaf_queue);
    std::vector<double>().swap(dp);
    std::vector<Back>().swap(back);
    std::vector<std::uint32_t>().swap(elig_view);
    std::vector<std::uint32_t>().swap(mini_offsets);
    std::vector<std::uint32_t>().swap(mini_head);
    std::vector<graph::EdgeId>().swap(mini_edge);
    std::vector<double>().swap(mini_cost);
    std::vector<std::uint32_t>().swap(incidence);
    std::vector<std::uint32_t>().swap(inc_offset);
    std::vector<std::uint32_t>().swap(degree);
    std::vector<std::uint8_t>().swap(removed);
  }

  void NoteSolveExtent(std::size_t extent_nodes) {
    const std::size_t cap = CapacityNodes();
    if (cap <= kMinShrinkNodes || extent_nodes > cap / kShrinkFactor) {
      small_streak = 0;
      streak_peak_nodes = 0;
      return;
    }
    streak_peak_nodes = std::max(streak_peak_nodes, extent_nodes);
    if (++small_streak < kShrinkStreak) return;
    ReleaseOversized(streak_peak_nodes);
    small_streak = 0;
    streak_peak_nodes = 0;
  }

  std::size_t FootprintBytes() const {
    std::size_t b = heap.MemoryBytes();
    for (const SpTree& slot : sp_slots) b += SpTreeBytes(slot);
    b += VecBytes(forced_sorted) + VecBytes(banned_sorted) +
         VecBytes(edit_ends) + VecBytes(terminals);
    b += VecBytes(arc_flag) + VecBytes(flagged_arcs) + VecBytes(is_target);
    b += VecBytes(uf.parent) + VecBytes(uf.version) +
         VecBytes(kruskal_uf.parent) + VecBytes(kruskal_uf.version);
    b += VecBytes(in_mst) + VecBytes(best) + VecBytes(cert_floor) +
         VecBytes(best_from) + VecBytes(closure);
    b += VecBytes(collected) + VecBytes(mst) + VecBytes(ep_u) + VecBytes(ep_v);
    b += VecBytes(local_of) + VecBytes(local_stamp) + VecBytes(degree) +
         VecBytes(is_terminal_local) + VecBytes(inc_offset) +
         VecBytes(incidence) + VecBytes(leaf_queue) + VecBytes(removed);
    b += VecBytes(elig_view) + VecBytes(mini_offsets) +
         VecBytes(mini_head) + VecBytes(mini_edge) + VecBytes(mini_cost) +
         VecBytes(mini_terms);
    b += VecBytes(dp) + VecBytes(back) + VecBytes(rebuild_stack);
    return b;
  }
};

// Feeds a solve's node extent into the scratch's shrink policy on every
// exit path. Construct BEFORE the OverlayGuard: destructors run in
// reverse order, so the guard restores the all-zero overlay invariant
// first and the release (which may reallocate those arrays) runs last.
struct ExtentGuard {
  SolverScratch& s;
  std::size_t nodes;
  ~ExtentGuard() { s.NoteSolveExtent(nodes); }
};

SolverScratch& GetScratch() {
  thread_local SolverScratch scratch;
  return scratch;
}

// Sorts the edit sets into the scratch and maps their endpoints to `g`'s
// view ids (s.edit_ends).
void MapEdits(const CsrGraph& csr, const AdjacencyView& g,
              const std::vector<graph::EdgeId>& forced,
              const std::vector<graph::EdgeId>& banned, SolverScratch& s) {
  s.forced_sorted.assign(forced.begin(), forced.end());
  std::sort(s.forced_sorted.begin(), s.forced_sorted.end());
  s.banned_sorted.assign(banned.begin(), banned.end());
  std::sort(s.banned_sorted.begin(), s.banned_sorted.end());
  s.edit_ends.clear();
  for (const auto* edits : {&s.forced_sorted, &s.banned_sorted}) {
    for (graph::EdgeId e : *edits) {
      s.edit_ends.push_back(g.ViewOf(csr.edge_u[e]));
      s.edit_ends.push_back(g.ViewOf(csr.edge_v[e]));
    }
  }
}

// Flags the edit edges' arcs in `g` (MapEdits done) for the duration of
// one solve, restoring the all-zero invariant on every exit path. An edge
// has an arc at each endpoint inside the view; an endpoint outside it has
// none there. Banned flags are set last, so an edge in both sets is
// banned.
class OverlayGuard {
 public:
  OverlayGuard(SolverScratch& s, const AdjacencyView& g) : s_(s) {
    if (s_.arc_flag.size() < g.num_arcs()) s_.arc_flag.resize(g.num_arcs(), 0);
    s_.flagged_arcs.clear();
    const std::uint32_t* ends = s_.edit_ends.data();
    Flag(g, s_.forced_sorted, ends, kForced);
    Flag(g, s_.banned_sorted, ends + 2 * s_.forced_sorted.size(), kBanned);
  }

  ~OverlayGuard() {
    for (std::uint32_t a : s_.flagged_arcs) s_.arc_flag[a] = kFree;
  }

 private:
  // `ends` holds two view ids per edge of `edges`.
  void Flag(const AdjacencyView& g, const std::vector<graph::EdgeId>& edges,
            const std::uint32_t* ends, std::uint8_t flag) {
    for (std::size_t k = 0; k < edges.size(); ++k) {
      for (std::uint32_t v : {ends[2 * k], ends[2 * k + 1]}) {
        if (v == ShardMask::kExternal) continue;
        const std::uint32_t a = g.ArcOf(v, edges[k]);
        s_.arc_flag[a] = flag;
        s_.flagged_arcs.push_back(a);
      }
    }
  }

  SolverScratch& s_;
};

// Single-source Dijkstra over `g` under the arc overlay flags, stopping as
// soon as all `num_targets` marked targets are settled. Unsettled nodes
// are wiped back to (inf, invalid) so the output is a canonical prefix of
// the full run. An arc whose head is ShardMask::kExternal left the mask:
// it is not relaxed, and its offer feeds mask_min_clip, which the masked
// solvers verify their reads against (see fast_solver.h). Banned arcs are
// skipped first, so they never contribute a clip offer.
// Bit-identity with the unmasked run below the clip floor rests on view
// ids ascending with node ids: (dist, view id) tie order is the canonical
// (dist, node id) order, and with per-node arc order preserved by the
// compact view, settle order and predecessor selection match the CSR
// scan. dist/pred_node/settled/touched are view-indexed; pred_edge holds
// global edge ids.
void ComputeSpTree(const AdjacencyView& g,
                   const std::vector<std::uint8_t>& arc_flag,
                   const std::vector<std::uint8_t>& is_target,
                   std::size_t num_targets, bool stop_at_targets,
                   std::uint32_t source, util::DaryHeap& heap, SpTree* out) {
  const std::uint32_t n = g.num_nodes;
  // Sparse reset: only entries named by the previous run's touched list
  // can differ from the defaults, so a reused SpTree resets in O(prior
  // neighborhood), whatever view that run used. Fresh (or grown) objects
  // pay the full initialization once, below.
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
    const std::uint32_t end = g.offsets[v + 1];
    for (std::uint32_t a = g.offsets[v]; a < end; ++a) {
      std::uint8_t flag = arc_flag[a];
      if (flag == kBanned) continue;
      std::uint32_t to = g.heads[a];
      double next = d + (flag == kForced ? 0.0 : g.costs[a]);
      if (to == ShardMask::kExternal) {
        // Clipped at the mask boundary: remember the cheapest declined
        // offer — it lower-bounds every path escaping the mask.
        if (next < out->mask_min_clip) out->mask_min_clip = next;
        continue;
      }
      double& dt = out->dist[to];
      // Strictly-improving updates only: the predecessor graph stays
      // acyclic even across 0-cost plateaus, and because the heap pops in
      // canonical (dist, id) order and arcs are scanned in fixed order,
      // pred is the *first* arc achieving each node's final distance
      // under a canonical attempt order — a pure function of the
      // overlayed costs.
      if (next < dt) {
        if (dt == kInf) out->touched.push_back(to);
        dt = next;
        out->pred_node[to] = v;
        out->pred_edge[to] = g.edges[a];
        heap.PushOrDecrease(to, next);
      }
    }
  }
  out->complete = !stopped_early;
  // One pass over the touched set wipes offered-but-unsettled nodes back
  // to the defaults (so the arrays are a canonical prefix of the full
  // run) and shrinks `touched` to the settled survivors.
  std::size_t settled_count = 0;
  for (std::uint32_t v : out->touched) {
    if (!out->settled[v]) {
      out->dist[v] = kInf;
      out->pred_node[v] = graph::kInvalidNode;
      out->pred_edge[v] = graph::kInvalidEdge;
      continue;
    }
    out->touched[settled_count++] = v;
  }
  out->touched.resize(settled_count);
}

// The adjacency view a solve runs over: the pinned CSR, or `mask`'s
// compact view.
AdjacencyView SolveView(const CsrGraph& csr, const ShardMask* mask) {
  if (mask == nullptr) return CsrView(csr);
  Q_CHECK_MSG(mask->HasCompact() && mask->csr_num_nodes == csr.num_nodes,
              "masked solve needs a compact view over the pinned snapshot");
  return CompactView(*mask);
}

// Shared preamble of both solvers, in `view`'s ids: sort the edit sets,
// reject infeasible subproblems, contract forced edges in the union-find,
// charge their cost, and dedup terminals to one representative per
// supernode (s.terminals), sizing the per-terminal scratch. Every terminal
// and every edit edge's endpoints must lie in the view: a mask holds its
// terminals, and an enumeration hands a masked solve only edges of pivots
// solved under the same or a smaller mask. Returns false when the
// subproblem is infeasible.
bool PrepareSubproblem(const CsrGraph& csr, const AdjacencyView& view,
                       const std::vector<graph::NodeId>& terminals,
                       const std::vector<graph::EdgeId>& forced,
                       const std::vector<graph::EdgeId>& banned,
                       SolverScratch& s, SteinerTree* result) {
  MapEdits(csr, view, forced, banned, s);
  if (SortedIntersect(s.forced_sorted, s.banned_sorted)) return false;
  for (std::uint32_t v : s.edit_ends) {
    Q_CHECK_MSG(v != ShardMask::kExternal,
                "solve needs a view that holds every edit edge");
  }

  // The cost is charged in the caller's forced order: a returned tree's
  // cost bits depend on that order. The contraction does not.
  result->edges.assign(forced.begin(), forced.end());
  result->cost = 0.0;
  for (graph::EdgeId e : forced) result->cost += csr.edge_cost[e];
  s.uf.Begin(view.num_nodes);
  for (std::size_t i = 0; i < s.forced_sorted.size(); ++i) {
    std::uint32_t ru = s.uf.Find(s.edit_ends[2 * i]);
    std::uint32_t rv = s.uf.Find(s.edit_ends[2 * i + 1]);
    if (ru == rv) return false;  // forced edges form a cycle
    s.uf.Union(ru, rv);
  }

  s.terminals.clear();
  for (graph::NodeId t : terminals) {
    const std::uint32_t tv = view.ViewOf(t);
    Q_CHECK_MSG(tv != ShardMask::kExternal,
                "solve needs a view that holds every terminal");
    std::uint32_t root = s.uf.Find(tv);
    bool seen = false;
    for (std::uint32_t kept : s.terminals) {
      if (s.uf.Find(kept) == root) {
        seen = true;
        break;
      }
    }
    if (!seen) s.terminals.push_back(tv);
  }
  if (s.is_target.size() < view.num_nodes) {
    s.is_target.resize(view.num_nodes, 0);
  }
  if (s.sp_slots.size() < s.terminals.size()) {
    s.sp_slots.resize(s.terminals.size());
  }
  return true;
}

// Fills s.sp_slots with one shortest-path tree per deduped terminal over
// `g`, each stopped once every terminal is settled. `full` requests
// complete (non-early-stopped) trees — the exact DP seeds its singleton
// slices from them. Expects PrepareSubproblem done and an OverlayGuard
// active.
void AcquireSpTrees(const AdjacencyView& g, SolverScratch& s, bool full) {
  const std::size_t t = s.terminals.size();
  for (std::uint32_t v : s.terminals) s.is_target[v] = 1;
  for (std::size_t i = 0; i < t; ++i) {
    ComputeSpTree(g, s.arc_flag, s.is_target, t, !full, s.terminals[i],
                  s.heap, &s.sp_slots[i]);
  }
  // Restore the all-zero invariant now: nothing downstream reads the
  // target marks, and the shrink policy may reallocate the array between
  // solves.
  for (std::uint32_t v : s.terminals) s.is_target[v] = 0;
}

// Grows Prim's latest pick p's tree over `g` into s.sp_slots[p], stopped
// once every terminal Prim has not picked yet (s.in_mst[j] == 0) is
// settled: Prim reads the tree only there, and the closure expansion walks
// it only from those terminals. The eager run (AcquireSpTrees) stops at a
// superset of these targets, and Dijkstra settles nodes in canonical
// (dist, id) order with every predecessor final at settle time, so this
// tree is a prefix of the eager one: every value read from it is the same.
// Expects PrepareSubproblem done and an OverlayGuard active.
void GrowPickedTree(const AdjacencyView& g, SolverScratch& s, std::size_t p) {
  const std::size_t t = s.terminals.size();
  std::size_t targets = 0;
  for (std::size_t j = 0; j < t; ++j) {
    if (s.in_mst[j]) continue;
    s.is_target[s.terminals[j]] = 1;
    ++targets;
  }
  ComputeSpTree(g, s.arc_flag, s.is_target, targets, /*stop_at_targets=*/true,
                s.terminals[p], s.heap, &s.sp_slots[p]);
  for (std::size_t j = 0; j < t; ++j) {
    if (!s.in_mst[j]) s.is_target[s.terminals[j]] = 0;
  }
}

// Boundary certificate of one masked tree. Its settled prefix is
// bit-identical to the unmasked run's whenever the cheapest offer it
// clipped at the mask boundary (`clip`) strictly exceeds the largest
// distance the caller reads (`max_read`): any path escaping the mask costs
// at least the clipped offer, so it can neither improve nor tie — and
// hence never reorder, re-predecessor, or newly settle — anything at or
// below the read horizon (induction over the canonical (dist, id) settle
// order; the first diverging node's predecessor would have had to reach
// it through a clipped arc). A read of +inf — a terminal unreachable
// within the mask — certifies only when nothing was clipped at all: then
// the mask exhausted the component and the infeasible verdict is exact.
bool ReadsCertified(double clip, double max_read) {
  return max_read == kInf ? clip == kInf : clip > max_read;
}

// The certificate for one tree grown by GrowPickedTree: the reads Prim
// makes from it, at the terminals still unpicked.
bool CertifiesUnpickedReads(const SolverScratch& s, const SpTree& sp) {
  double max_read = 0.0;
  for (std::size_t j = 0; j < s.terminals.size(); ++j) {
    if (!s.in_mst[j]) {
      max_read = std::max(max_read, sp.dist[s.terminals[j]]);
    }
  }
  return ReadsCertified(sp.mask_min_clip, max_read);
}

// Boundary certificate over the trees AcquireSpTrees grew, for the exact
// solver and for a KMB solve whose lazy tree failed its own certificate.
// Every tree must certify (ReadsCertified) the pairwise terminal distances
// it holds and the predecessor chains below them, so its read horizon is
// max_j dist[t_j].
MaskedOutcome CertifyPairwiseReads(SolverScratch& s,
                                   double* overlay_lower_bound) {
  const std::size_t t = s.terminals.size();
  MaskedOutcome verdict = MaskedOutcome::kOk;
  // Certified lower bound on the subspace's overlay tree cost, valid even
  // when certification fails. Per pair, a connecting path either stays
  // inside the mask (costing at least the masked distance) or escapes
  // through a clipped arc (costing at least the clip floor), so
  // min(dist, clip) lower-bounds the true pairwise overlay distance. Any
  // tree spanning the terminals pays at least the largest pairwise floor
  // beyond its forced prefix, which is what lets an escalating solve
  // still park its subspace in the enumeration heap by bound (see
  // fast_solver.h).
  double pairwise_lb = 0.0;
  s.cert_floor.assign(t * t, 0.0);
  for (std::size_t i = 0; i < t; ++i) {
    const SpTree& sp = s.sp_slots[i];
    double max_read = 0.0;
    for (std::size_t j = 0; j < t; ++j) {
      double d = sp.dist[s.terminals[j]];
      max_read = std::max(max_read, d);
      const double floor = std::min(d, sp.mask_min_clip);
      pairwise_lb = std::max(pairwise_lb, floor);
      s.cert_floor[i * t + j] = floor;
    }
    if (!ReadsCertified(sp.mask_min_clip, max_read)) {
      verdict = MaskedOutcome::kEscalate;
    }
  }
  // Triple strengthening: for any three terminals, each tree edge lies on
  // at most two of their three pairwise tree paths (the edge splits the
  // triple 1-vs-2 or 0-vs-3), so the tree costs at least half the sum of
  // the three pairwise distances — and hence at least half the sum of
  // their floors. With near-equal floors this beats the single-pair bound
  // by up to 1.5x, which is what keeps bound-parked Lawler children from
  // surfacing (and being re-solved) needlessly. Only computed when the
  // bound will actually be used; O(t^3) over the handful of terminals.
  if (overlay_lower_bound != nullptr) {
    if (verdict != MaskedOutcome::kOk && t >= 3 && pairwise_lb < kInf) {
      // Both directional floors bound the same true distance; keep the
      // tighter (masks clip different arcs per source terminal).
      for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = i + 1; j < t; ++j) {
          const double f =
              std::max(s.cert_floor[i * t + j], s.cert_floor[j * t + i]);
          s.cert_floor[i * t + j] = f;
          s.cert_floor[j * t + i] = f;
        }
      }
      for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = i + 1; j < t; ++j) {
          const double fij = s.cert_floor[i * t + j];
          for (std::size_t k = j + 1; k < t; ++k) {
            const double triple = 0.5 * (fij + s.cert_floor[i * t + k] +
                                         s.cert_floor[j * t + k]);
            pairwise_lb = std::max(pairwise_lb, triple);
          }
        }
      }
    }
    *overlay_lower_bound = pairwise_lb;
  }
  return verdict;
}

// Converts an overlay-space pairwise lower bound into a subspace tree
// cost bound: forced prefix plus overlay floor, shaved by a relative
// slack so float summation-order differences can never push the bound
// above a tree cost it provably undercuts in exact arithmetic.
double SubspaceCostBound(double forced_cost, double overlay_lb) {
  if (overlay_lb == kInf) return kInf;
  double bound = forced_cost + overlay_lb;
  return std::max(0.0, bound - (bound * 1e-12 + 1e-12));
}

// KMB step 2: Prim's MST over the terminal metric closure, into
// s.closure. Prim starts at terminal 0 and repeatedly picks the closest
// unpicked terminal (lowest index on ties). It reads a tree only from a
// terminal it has picked, and only at terminals still unpicked, so the
// last pick's tree is never read. `picked_tree(p)` returns terminal p's
// tree right after Prim picks it (s.in_mst marks the picked terminals,
// p included), or nullptr to abort. Returns false when the terminals are
// disconnected or `picked_tree` aborted. Expects PrepareSubproblem done
// and t >= 2 deduped terminals.
template <typename PickedTree>
bool PrimClosure(SolverScratch& s, PickedTree&& picked_tree) {
  const std::size_t t = s.terminals.size();
  s.in_mst.assign(t, 0);
  s.best.assign(t, kInf);
  s.best_from.assign(t, 0);
  s.best[0] = 0.0;
  s.closure.clear();
  for (std::size_t round = 0; round < t; ++round) {
    std::size_t pick = t;
    for (std::size_t i = 0; i < t; ++i) {
      if (!s.in_mst[i] && (pick == t || s.best[i] < s.best[pick])) pick = i;
    }
    if (pick == t || s.best[pick] == kInf) return false;
    s.in_mst[pick] = 1;
    if (pick != 0) s.closure.emplace_back(s.best_from[pick], pick);
    if (round + 1 == t) break;  // every terminal picked: nothing to read
    const SpTree* sp = picked_tree(pick);
    if (sp == nullptr) return false;
    for (std::size_t i = 0; i < t; ++i) {
      if (s.in_mst[i]) continue;
      double d = sp->dist[s.terminals[i]];
      if (d < s.best[i]) {
        s.best[i] = d;
        s.best_from[i] = pick;
      }
    }
  }
  return true;
}

// Starts a local-id remap round over view ids: bumps the stamp (a
// wholesale re-zero on the ~4-billion-round wrap) and sizes
// local_stamp/local_of to the view.
void BeginLocalIds(SolverScratch& s, std::uint32_t num_nodes) {
  if (++s.stamp == 0) {
    std::fill(s.local_stamp.begin(), s.local_stamp.end(), 0);
    s.stamp = 1;
  }
  if (s.local_stamp.size() < num_nodes) {
    s.local_stamp.resize(num_nodes, 0);
    s.local_of.resize(num_nodes);
  }
}

// KMB steps 3-5 over s.closure (PrimClosure done), in `g`'s view ids.
// Closure edge (a, b) walks a's tree from b, which was still unpicked when
// Prim picked a: the walk stays at or below a distance Prim read, so even
// a lazily grown tree holds every node it visits. `result` carries the
// forced prefix and base cost. Collected edges keep their global ids, so
// the edge order Kruskal scans is view independent. Expects an
// OverlayGuard active. Safe to call concurrently (scratch is per-thread).
SteinerTree KmbFromClosure(const CsrGraph& csr, const AdjacencyView& g,
                           SolverScratch& s, SteinerTree result) {
  // 3. Expand closure edges into original-graph edges along the
  // predecessor trees (forced edges are already part of the result).
  s.collected.clear();
  for (auto [a, b] : s.closure) {
    std::uint32_t v = s.terminals[b];
    const std::uint32_t src = s.terminals[a];
    const SpTree& sp = s.sp_slots[a];
    while (v != src) {
      const graph::EdgeId e = sp.pred_edge[v];
      if (e == graph::kInvalidEdge) break;
      const std::uint32_t p = sp.pred_node[v];
      if (!std::binary_search(s.forced_sorted.begin(), s.forced_sorted.end(),
                              e)) {
        const bool v_is_u = csr.edge_u[e] == g.NodeOf(v);
        s.collected.push_back({e, v_is_u ? v : p, v_is_u ? p : v});
      }
      v = p;
    }
  }

  // 4. Kruskal MST of the induced subgraph, in supernode space, scanning
  // the distinct edges by (cost, id).
  std::sort(s.collected.begin(), s.collected.end(),
            [&](const CollectedEdge& a, const CollectedEdge& b) {
              const double ca = csr.edge_cost[a.edge];
              const double cb = csr.edge_cost[b.edge];
              if (ca != cb) return ca < cb;
              return a.edge < b.edge;
            });
  s.collected.erase(
      std::unique(s.collected.begin(), s.collected.end(),
                  [](const CollectedEdge& a, const CollectedEdge& b) {
                    return a.edge == b.edge;
                  }),
      s.collected.end());
  s.kruskal_uf.Begin(g.num_nodes);
  s.mst.clear();
  s.ep_u.clear();
  s.ep_v.clear();
  for (const CollectedEdge& c : s.collected) {
    std::uint32_t su = s.uf.Find(c.u);
    std::uint32_t sv = s.uf.Find(c.v);
    std::uint32_t ru = s.kruskal_uf.Find(su);
    std::uint32_t rv = s.kruskal_uf.Find(sv);
    if (ru == rv) continue;
    s.kruskal_uf.Union(ru, rv);
    s.mst.push_back(c.edge);
    s.ep_u.push_back(su);
    s.ep_v.push_back(sv);
  }

  // 5. Iteratively prune non-terminal leaves (in supernode space).
  BeginLocalIds(s, g.num_nodes);
  std::uint32_t num_local = 0;
  auto local_id = [&](std::uint32_t super) {
    if (s.local_stamp[super] != s.stamp) {
      s.local_stamp[super] = s.stamp;
      s.local_of[super] = num_local++;
    }
    return s.local_of[super];
  };
  std::size_t num_mst = s.mst.size();
  s.degree.clear();
  for (std::size_t i = 0; i < num_mst; ++i) {
    std::uint32_t lu = local_id(s.ep_u[i]);
    std::uint32_t lv = local_id(s.ep_v[i]);
    s.ep_u[i] = lu;
    s.ep_v[i] = lv;
    if (s.degree.size() < num_local) s.degree.resize(num_local, 0);
    ++s.degree[lu];
    ++s.degree[lv];
  }
  s.is_terminal_local.assign(num_local, 0);
  for (std::uint32_t term : s.terminals) {
    std::uint32_t super = s.uf.Find(term);
    if (s.local_stamp[super] == s.stamp) {
      s.is_terminal_local[s.local_of[super]] = 1;
    }
  }
  // Flat incidence lists.
  s.inc_offset.assign(num_local + 1, 0);
  for (std::uint32_t l = 0; l < num_local; ++l) {
    s.inc_offset[l + 1] = s.inc_offset[l] + s.degree[l];
  }
  s.incidence.resize(2 * num_mst);
  {
    std::vector<std::uint32_t>& cursor = s.leaf_queue;  // reuse as cursor
    cursor.assign(s.inc_offset.begin(), s.inc_offset.end() - 1);
    for (std::size_t i = 0; i < num_mst; ++i) {
      s.incidence[cursor[s.ep_u[i]]++] = static_cast<std::uint32_t>(i);
      s.incidence[cursor[s.ep_v[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  s.removed.assign(num_mst, 0);
  s.leaf_queue.clear();
  for (std::uint32_t l = 0; l < num_local; ++l) {
    if (s.degree[l] == 1 && !s.is_terminal_local[l]) s.leaf_queue.push_back(l);
  }
  while (!s.leaf_queue.empty()) {
    std::uint32_t l = s.leaf_queue.back();
    s.leaf_queue.pop_back();
    if (s.degree[l] != 1) continue;  // already pruned below 1
    for (std::uint32_t a = s.inc_offset[l]; a < s.inc_offset[l + 1]; ++a) {
      std::uint32_t i = s.incidence[a];
      if (s.removed[i]) continue;
      s.removed[i] = 1;
      std::uint32_t other = s.ep_u[i] == l ? s.ep_v[i] : s.ep_u[i];
      --s.degree[l];
      --s.degree[other];
      if (s.degree[other] == 1 && !s.is_terminal_local[other]) {
        s.leaf_queue.push_back(other);
      }
      break;
    }
  }

  for (std::size_t i = 0; i < num_mst; ++i) {
    if (s.removed[i]) continue;
    result.edges.push_back(s.mst[i]);
    result.cost += csr.edge_cost[s.mst[i]];
  }
  result.Canonicalize();
  return result;
}

}  // namespace

FastSteinerEngine::FastSteinerEngine(const graph::SearchGraph& graph,
                                     const graph::WeightVector& weights,
                                     bool /*use_sp_cache*/)
    : csr_(std::make_shared<const CsrGraph>(CsrGraph::Build(graph, weights))) {}

SnapshotPin FastSteinerEngine::Pin() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return SnapshotPin{csr_};
}

SnapshotPin FastSteinerEngine::Recosted(const graph::SearchGraph& graph,
                                        const graph::WeightVector& weights,
                                        std::size_t* moved) const {
  auto next = std::make_shared<CsrGraph>(*Pin().csr);
  *moved = next->Recost(graph, weights);
  return SnapshotPin{std::move(next)};
}

void FastSteinerEngine::Install(SnapshotPin next) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  csr_ = std::move(next.csr);
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmb(
    const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  // Pin the snapshot for the whole solve: a concurrent Install replaces
  // the engine's snapshot, never the pinned one.
  return SolveKmb(Pin(), terminals, forced, banned);
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmb(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  return SolveKmbImpl(pin, terminals, forced, banned, /*mask=*/nullptr,
                      /*outcome=*/nullptr, /*escalate_bound=*/nullptr);
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmbMasked(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, const ShardMask& mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  return SolveKmbImpl(pin, terminals, forced, banned, &mask, outcome,
                      escalate_bound);
}

std::optional<SteinerTree> FastSteinerEngine::SolveExactMasked(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, const ShardMask& mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  return SolveExactImpl(pin, terminals, forced, banned, &mask, outcome,
                        escalate_bound);
}

std::shared_ptr<const ShardPartition> FastSteinerEngine::Shards(
    std::uint32_t target_nodes) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (shards_ == nullptr || shard_target_ != target_nodes) {
    shards_ = std::make_shared<const ShardPartition>(
        ShardPartition::Build(*csr_, target_nodes));
    shard_target_ = target_nodes;
  }
  return shards_;
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmbImpl(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, const ShardMask* mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  if (outcome != nullptr) *outcome = MaskedOutcome::kOk;
  const CsrGraph& csr = *pin.csr;
  SolverScratch& s = GetScratch();
  const AdjacencyView view = SolveView(csr, mask);
  ExtentGuard extent{s, view.num_nodes};
  SteinerTree result;
  if (!PrepareSubproblem(csr, view, terminals, forced, banned, s, &result)) {
    return std::nullopt;
  }
  if (s.terminals.size() <= 1) {
    result.Canonicalize();
    return result;
  }
  OverlayGuard overlay(s, view);
  // Trees grow only as Prim picks their terminals (GrowPickedTree), and a
  // masked tree must certify the reads Prim makes from it: every value
  // KMB reads must sit strictly below that tree's clipped-offer horizon,
  // or the tree is not a certified prefix of the unmasked run.
  bool uncertified = false;
  const bool connected =
      PrimClosure(s, [&](std::size_t p) -> const SpTree* {
        GrowPickedTree(view, s, p);
        const SpTree& sp = s.sp_slots[p];
        if (mask != nullptr && !CertifiesUnpickedReads(s, sp)) {
          uncertified = true;
          return nullptr;
        }
        return &sp;
      });
  if (uncertified) {
    // No verdict — but the clip floors still bound the subspace cost from
    // below, which the caller may keep. A lazy tree stops no later than
    // the eager one, so its clip floor is no lower and its largest read no
    // higher: the eager trees fail whenever a lazy one does. Growing them
    // reports the same verdict and bound as an eager solve.
    AcquireSpTrees(view, s, /*full=*/false);
    double overlay_lb = 0.0;
    const MaskedOutcome verdict = CertifyPairwiseReads(s, &overlay_lb);
    Q_CHECK_MSG(verdict == MaskedOutcome::kEscalate,
                "eager trees certify where a lazy tree failed");
    *outcome = verdict;
    if (escalate_bound != nullptr) {
      *escalate_bound = SubspaceCostBound(result.cost, overlay_lb);
    }
    return std::nullopt;
  }
  if (!connected) return std::nullopt;
  return KmbFromClosure(csr, view, s, std::move(result));
}

std::optional<SteinerTree> FastSteinerEngine::SolveExact(
    const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  // Same pinning rule as SolveKmb.
  return SolveExact(Pin(), terminals, forced, banned);
}

std::optional<SteinerTree> FastSteinerEngine::SolveExact(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  return SolveExactImpl(pin, terminals, forced, banned, /*mask=*/nullptr,
                        /*outcome=*/nullptr, /*escalate_bound=*/nullptr);
}

std::optional<SteinerTree> FastSteinerEngine::SolveExactImpl(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, const ShardMask* mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  if (outcome != nullptr) *outcome = MaskedOutcome::kOk;
  const CsrGraph& csr = *pin.csr;
  SolverScratch& s = GetScratch();
  const AdjacencyView view = SolveView(csr, mask);
  ExtentGuard extent{s, view.num_nodes};
  SteinerTree result;
  if (!PrepareSubproblem(csr, view, terminals, forced, banned, s, &result)) {
    return std::nullopt;
  }
  const std::size_t t = s.terminals.size();
  if (t <= 1) {
    result.Canonicalize();
    return result;
  }
  OverlayGuard overlay(s, view);

  // Acquire complete per-terminal shortest-path trees once; they serve
  // triple duty: the KMB upper bound (terminals disconnected iff KMB fails
  // iff the DP would fail), the eligibility filter, and the DP's singleton
  // slices dp[{i}] = dist(t_i, .) — so those 2^0-subsets need no grow pass
  // at all.
  AcquireSpTrees(view, s, /*full=*/true);
  if (mask != nullptr) {
    // Guarantees the KMB upper bound below (and its infeasibility
    // verdict) is the unmasked one before we derive a threshold from it.
    double overlay_lb = 0.0;
    MaskedOutcome verdict = CertifyPairwiseReads(s, &overlay_lb);
    if (verdict != MaskedOutcome::kOk) {
      *outcome = verdict;
      if (escalate_bound != nullptr) {
        *escalate_bound = SubspaceCostBound(result.cost, overlay_lb);
      }
      return std::nullopt;
    }
  }
  // The KMB upper bound runs the KMB solver's Prim over these full trees.
  if (!PrimClosure(s, [&](std::size_t p) { return &s.sp_slots[p]; })) {
    return std::nullopt;
  }
  const SteinerTree kmb = KmbFromClosure(csr, view, s, result);
  double bound = kmb.cost - result.cost;  // overlay-space upper bound
  // Relative slack absorbs float summation-order differences between the
  // bound and the distances.
  bound += bound * 1e-12 + 1e-12;
  if (mask != nullptr) {
    // The DP reads distances up to the pruning threshold (eligibility,
    // singleton slices, reconstruction walks), so the whole read horizon
    // must sit strictly below every tree's clipped-offer floor — then
    // the bound-pruned eligible set, the mini-CSR, and every value read
    // are provably the unmasked ones. (This subsumes the pairwise check
    // above: any tree path between two terminals costs at most `bound`.)
    for (std::size_t i = 0; i < t; ++i) {
      if (!(s.sp_slots[i].mask_min_clip > bound)) {
        *outcome = MaskedOutcome::kEscalate;
        if (escalate_bound != nullptr) {
          // Pairwise distances certified above are exact here, so they
          // bound the subspace optimum even without the DP verdict.
          double pairwise = 0.0;
          for (std::size_t a = 0; a < t; ++a) {
            for (std::uint32_t b : s.terminals) {
              pairwise = std::max(pairwise, s.sp_slots[a].dist[b]);
            }
          }
          *escalate_bound = SubspaceCostBound(result.cost, pairwise);
        }
        return std::nullopt;
      }
    }
  }

  // Restrict the DP to nodes a below-bound tree can possibly touch: any
  // node v of a tree T spanning the terminals satisfies
  // max_i dist(t_i, v) <= cost(T) in overlay space. Eligible nodes get
  // dense mini ids (in view-id order); the induced mini-CSR bakes the
  // overlay costs in, so the DP inner loops run flag-free on the small
  // subgraph. The slack makes a terminal falling outside the bound a
  // float-only corner case; if it ever happens, fall back to the
  // unpruned reachable set (unmasked runs only — under a mask the lifted
  // threshold proves nothing, so the masked solver escalates instead).
  const int max_attempts = mask != nullptr ? 1 : 2;
  std::uint32_t n_e = 0;
  bool terminals_covered = false;
  for (int attempt = 0; attempt < max_attempts && !terminals_covered;
       ++attempt) {
    double threshold = attempt == 0 ? bound : kInf;
    s.elig_view.clear();
    // View ids ascend with node ids, so the eligible list — and hence the
    // mini-id assignment — comes out in node-id order under either view.
    // Under a mask, below-bound nodes all live inside it (the clip floor
    // exceeds the bound, so any node whose true distance fits the
    // threshold was settled — identically — by the masked runs), so the
    // list is the unmasked one.
    for (std::uint32_t v = 0; v < view.num_nodes; ++v) {
      bool ok = true;
      for (std::size_t i = 0; i < t; ++i) {
        if (s.sp_slots[i].dist[v] > threshold) {
          ok = false;
          break;
        }
      }
      if (ok) s.elig_view.push_back(v);
    }
    BeginLocalIds(s, view.num_nodes);
    n_e = static_cast<std::uint32_t>(s.elig_view.size());
    for (std::uint32_t i = 0; i < n_e; ++i) {
      s.local_stamp[s.elig_view[i]] = s.stamp;
      s.local_of[s.elig_view[i]] = i;
    }
    s.mini_terms.clear();
    terminals_covered = true;
    for (std::uint32_t term : s.terminals) {
      if (s.local_stamp[term] != s.stamp) {
        terminals_covered = false;
        break;
      }
      s.mini_terms.push_back(s.local_of[term]);
    }
  }
  if (mask != nullptr && !terminals_covered) {
    *outcome = MaskedOutcome::kEscalate;
    return std::nullopt;
  }
  Q_CHECK_MSG(terminals_covered,
              "KMB-connected terminal unreachable in eligibility pass");

  s.mini_offsets.assign(n_e + 1, 0);
  s.mini_head.clear();
  s.mini_edge.clear();
  s.mini_cost.clear();
  for (std::uint32_t i = 0; i < n_e; ++i) {
    std::uint32_t v = s.elig_view[i];
    const std::uint32_t end = view.offsets[v + 1];
    for (std::uint32_t a = view.offsets[v]; a < end; ++a) {
      std::uint32_t to = view.heads[a];
      if (to == ShardMask::kExternal || s.local_stamp[to] != s.stamp) continue;
      std::uint8_t flag = s.arc_flag[a];
      if (flag == kBanned) continue;
      s.mini_head.push_back(s.local_of[to]);
      s.mini_edge.push_back(view.edges[a]);
      s.mini_cost.push_back(flag == kForced ? 0.0 : view.costs[a]);
    }
    s.mini_offsets[i + 1] = static_cast<std::uint32_t>(s.mini_head.size());
  }

  const std::uint32_t full = (1u << t) - 1;
  const std::size_t states = static_cast<std::size_t>(full + 1) * n_e;
  s.dp.assign(states, kInf);
  s.back.assign(states, Back{});
  // Singleton slices come straight from the shortest-path trees (bound-
  // pruned); their subsets below need neither merge nor grow.
  for (std::size_t i = 0; i < t; ++i) {
    double* dps = &s.dp[(std::size_t{1} << i) * n_e];
    const SpTree& sp = s.sp_slots[i];
    for (std::uint32_t mv = 0; mv < n_e; ++mv) {
      double d = sp.dist[s.elig_view[mv]];
      if (d <= bound) dps[mv] = d;
    }
  }

  for (std::uint32_t subset = 1; subset <= full; ++subset) {
    if ((subset & (subset - 1)) == 0) continue;  // singleton: prefilled
    double* dps = &s.dp[static_cast<std::size_t>(subset) * n_e];
    Back* backs = &s.back[static_cast<std::size_t>(subset) * n_e];
    // Merge step: combine two disjoint sub-forests rooted at the same node.
    for (std::uint32_t part = (subset - 1) & subset; part > 0;
         part = (part - 1) & subset) {
      std::uint32_t other = subset ^ part;
      if (part > other) continue;  // each unordered split once
      const double* a = &s.dp[static_cast<std::size_t>(part) * n_e];
      const double* b = &s.dp[static_cast<std::size_t>(other) * n_e];
      for (std::uint32_t v = 0; v < n_e; ++v) {
        if (a[v] == kInf || b[v] == kInf) continue;
        double candidate = a[v] + b[v];
        // States above the KMB bound can never be part of an optimal
        // decomposition (partial sums of nonnegative costs are bounded by
        // the total); pruning them keeps the grow frontier small.
        if (candidate < dps[v] && candidate <= bound) {
          dps[v] = candidate;
          backs[v].type = Back::Type::kMerge;
          backs[v].merge_subset = part;
        }
      }
    }
    // Grow step: Dijkstra over the mini-CSR seeded with the merge results
    // (O(n) heapify instead of n pushes).
    s.heap.Heapify(dps, n_e);
    while (!s.heap.empty()) {
      auto [d, v] = s.heap.PopMin();
      const std::uint32_t end = s.mini_offsets[v + 1];
      for (std::uint32_t a = s.mini_offsets[v]; a < end; ++a) {
        double next = d + s.mini_cost[a];
        if (next > bound) continue;
        std::uint32_t to = s.mini_head[a];
        if (next < dps[to]) {
          dps[to] = next;
          backs[to].type = Back::Type::kGrow;
          backs[to].grow_pred = v;
          backs[to].grow_edge = s.mini_edge[a];
          s.heap.PushOrDecrease(to, next);
        }
      }
    }
  }

  const std::uint32_t root = s.mini_terms[0];
  std::size_t root_idx = static_cast<std::size_t>(full) * n_e + root;
  if (s.dp[root_idx] == kInf) return std::nullopt;

  // Reconstruct edges by unwinding backpointers. Forced edges traversed at
  // cost 0 may reappear here; Canonicalize dedups them against the forced
  // prefix already in result.edges.
  s.rebuild_stack.clear();
  s.rebuild_stack.emplace_back(full, root);
  while (!s.rebuild_stack.empty()) {
    auto [subset, v] = s.rebuild_stack.back();
    s.rebuild_stack.pop_back();
    if ((subset & (subset - 1)) == 0) {
      // Singleton: walk the terminal's shortest-path tree from v back to
      // the terminal (possibly through nodes outside the eligible set on
      // cost ties — still a min-cost attachment path).
      const std::size_t i = static_cast<std::size_t>(__builtin_ctz(subset));
      const SpTree& sp = s.sp_slots[i];
      std::uint32_t cur = s.elig_view[v];
      const std::uint32_t src = s.terminals[i];
      while (cur != src) {
        graph::EdgeId e = sp.pred_edge[cur];
        if (e == graph::kInvalidEdge) break;
        result.edges.push_back(e);
        cur = sp.pred_node[cur];
      }
      continue;
    }
    const Back& b = s.back[static_cast<std::size_t>(subset) * n_e + v];
    switch (b.type) {
      case Back::Type::kNone:
        Q_CHECK_MSG(false, "unreachable DP state in Steiner reconstruction");
        break;
      case Back::Type::kGrow:
        result.edges.push_back(b.grow_edge);
        s.rebuild_stack.emplace_back(subset, b.grow_pred);
        break;
      case Back::Type::kMerge:
        s.rebuild_stack.emplace_back(b.merge_subset, v);
        s.rebuild_stack.emplace_back(subset ^ b.merge_subset, v);
        break;
    }
  }

  result.cost += s.dp[root_idx];
  result.Canonicalize();
  return result;
}

std::size_t ThreadScratchBytes() {
  return GetScratch().FootprintBytes() + ThreadLocalizerScratchBytes();
}

MaskedSpProbe ComputeMaskedSpTreeForTest(
    const CsrGraph& csr, const ShardMask& mask, std::uint32_t source,
    const std::vector<graph::NodeId>& targets, bool stop_at_targets,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  Q_CHECK_MSG(mask.HasCompact() && mask.csr_num_nodes == csr.num_nodes,
              "probe needs a compact view over `csr`");
  const AdjacencyView view = CompactView(mask);
  const std::uint32_t local_source = view.ViewOf(source);
  Q_CHECK_MSG(local_source != ShardMask::kExternal,
              "probe needs a compact view that holds the source");
  SolverScratch& s = GetScratch();
  MapEdits(csr, view, forced, banned, s);
  OverlayGuard overlay(s, view);

  if (s.is_target.size() < view.num_nodes) {
    s.is_target.resize(view.num_nodes, 0);
  }
  std::vector<std::uint32_t> local_targets;
  for (std::uint32_t t : targets) {
    const std::uint32_t lt = view.ViewOf(t);
    if (lt != ShardMask::kExternal) local_targets.push_back(lt);
  }
  for (std::uint32_t lt : local_targets) s.is_target[lt] = 1;
  // The stop threshold counts every target: one outside the mask (or a
  // duplicate) never settles, so the run keeps exploring instead of
  // stopping early — as the uncompacted masked Dijkstra does.
  SpTree tree;
  ComputeSpTree(view, s.arc_flag, s.is_target, targets.size(),
                stop_at_targets, local_source, s.heap, &tree);
  for (std::uint32_t lt : local_targets) s.is_target[lt] = 0;

  // Projected into global-indexed arrays so callers diff them
  // element-for-element against a global-indexed referee.
  MaskedSpProbe probe;
  probe.dist.assign(csr.num_nodes, kInf);
  probe.pred_node.assign(csr.num_nodes, graph::kInvalidNode);
  probe.pred_edge.assign(csr.num_nodes, graph::kInvalidEdge);
  probe.settled.assign(csr.num_nodes, 0);
  for (std::uint32_t lv : tree.touched) {  // settled survivors only
    const std::uint32_t v = view.NodeOf(lv);
    probe.dist[v] = tree.dist[lv];
    probe.pred_node[v] = tree.pred_node[lv] == graph::kInvalidNode
                             ? graph::kInvalidNode
                             : view.NodeOf(tree.pred_node[lv]);
    probe.pred_edge[v] = tree.pred_edge[lv];
    probe.settled[v] = 1;
    if (tree.pred_edge[lv] != graph::kInvalidEdge) {
      probe.tree_edges.push_back(tree.pred_edge[lv]);
    }
  }
  std::sort(probe.tree_edges.begin(), probe.tree_edges.end());
  probe.tree_edges.erase(
      std::unique(probe.tree_edges.begin(), probe.tree_edges.end()),
      probe.tree_edges.end());
  probe.mask_min_clip = tree.mask_min_clip;
  probe.complete = tree.complete;
  return probe;
}

}  // namespace q::steiner
