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

template <typename T>
std::size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t SpTreeBytes(const SpTree& sp) {
  return VecBytes(sp.dist) + VecBytes(sp.pred_node) + VecBytes(sp.pred_edge) +
         VecBytes(sp.settled) + VecBytes(sp.tree_edges) + VecBytes(sp.touched);
}

// Per-thread arena: every vector below is reused across solves, so the
// steady-state kernel allocates only on cache-entry creation. A
// shrink-after-oversized-solve policy (NoteSolveExtent below) keeps one
// full-graph solve on a huge snapshot from pinning the high-water arrays
// for the thread's lifetime.
struct SolverScratch {
  util::DaryHeap heap;
  VersionedUf uf;          // forced-edge contraction
  VersionedUf kruskal_uf;  // runs on top of the contraction's roots
  std::vector<graph::EdgeId> forced_sorted;
  std::vector<graph::EdgeId> banned_sorted;
  std::vector<std::uint32_t> terminals;  // deduped, one per supernode
  // Local ids of `terminals` under the active compact mask view (only
  // meaningful during a compacted masked solve).
  std::vector<std::uint32_t> terminals_local;
  // All-zero between solves; OverlayGuard sets and restores them. The
  // flat arrays make the per-arc overlay test a single byte load.
  std::vector<std::uint8_t> edge_flag;  // kFree / kBanned / kForced
  std::vector<std::uint8_t> is_target;  // terminal markers for early stop
  // Local-id twin of is_target, sized to the mask; set and cleared by
  // AcquireSpTreesLocal (all-zero between solves).
  std::vector<std::uint8_t> is_target_local;

  std::vector<SpTree> sp_slots;  // holds fresh trees when cache is off/full
  std::vector<std::shared_ptr<const SpTree>> sp_refs;
  std::vector<const SpTree*> sp;

  // Prim over the terminal metric closure.
  std::vector<std::uint8_t> in_mst;
  std::vector<double> best;
  // t x t pairwise floor matrix for the boundary certificate's parked
  // lower bound (see CertifyPairwiseReads).
  std::vector<double> cert_floor;
  std::vector<std::size_t> best_from;
  std::vector<std::pair<std::size_t, std::size_t>> closure;

  // Closure-path expansion, Kruskal, and leaf pruning.
  std::vector<graph::EdgeId> collected;
  std::vector<graph::EdgeId> mst;
  std::vector<std::uint32_t> ep_u;  // super endpoint per mst edge
  std::vector<std::uint32_t> ep_v;
  std::vector<std::uint32_t> local_of;     // node -> local id
  std::vector<std::uint32_t> local_stamp;  // validity stamp for local_of
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> degree;
  std::vector<std::uint8_t> is_terminal_local;
  std::vector<std::uint32_t> inc_offset;
  std::vector<std::uint32_t> incidence;
  std::vector<std::uint32_t> leaf_queue;
  std::vector<std::uint8_t> removed;

  // Exact DP: eligible-subgraph mini CSR and flat (2^t) x n_e tables.
  std::vector<std::uint32_t> elig_nodes;  // ascending node id = mini id order
  // Mask-local id of each eligible node (compacted masked solves only;
  // parallel to elig_nodes — the DP reads local trees through it).
  std::vector<std::uint32_t> elig_local;
  std::vector<std::uint32_t> mini_offsets;
  std::vector<std::uint32_t> mini_head;
  std::vector<graph::EdgeId> mini_edge;
  std::vector<double> mini_cost;
  std::vector<std::uint32_t> mini_terms;
  std::vector<double> dp;
  std::vector<Back> back;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rebuild_stack;

  // --- shrink-after-oversized-solve policy ------------------------------
  // A solve notes how many nodes it actually spanned (the mask size for
  // compacted masked solves, num_nodes otherwise). After a streak of
  // solves at most 1/4 of the retained capacity, the oversized arrays
  // are released down to the streak's peak need — the next big solve
  // pays one regrow, which is the right trade against every serving
  // thread pinning full-graph arrays forever after one hub query.
  static constexpr int kShrinkStreak = 16;
  static constexpr std::size_t kShrinkFactor = 4;
  static constexpr std::size_t kMinShrinkNodes = std::size_t{1} << 14;
  int small_streak = 0;
  std::size_t streak_peak_nodes = 0;

  // Only arrays whose size tracks the SOLVE extent participate in the
  // shrink policy. Global-domain arrays — the stamped union-finds, the
  // KMB remap (local_stamp/local_of), edge_flag, is_target — are indexed
  // by global node/edge id, so even a mask-compacted solve addresses them
  // at catalog size: shrinking them below num_nodes just forces an O(n)
  // regrow on the very next solve, which oscillates (regrow re-inflates
  // the capacity, re-arming the streak) and puts an O(catalog) term back
  // into every masked solve. They are lazily stamped, so their steady
  // cost per solve is O(touched) regardless of length; they stay sized to
  // the largest catalog served and are excluded from both the capacity
  // measure and the release.
  std::size_t CapacityNodes() const {
    std::size_t cap = heap.capacity_ids();
    for (const SpTree& slot : sp_slots) cap = std::max(cap, slot.dist.size());
    cap = std::max(cap, is_target_local.size());
    return cap;
  }

  // Reallocates extent-sized node arrays at `keep_nodes` and sheds the
  // per-solve work lists and DP tables wholesale (they regrow lazily,
  // re-zeroing as they do). Precondition: between solves —
  // edge_flag/is_target are all-zero and no SpTree slot is borrowed.
  void ReleaseOversized(std::size_t keep_nodes) {
    for (SpTree& slot : sp_slots) {
      if (slot.dist.size() > keep_nodes) slot = SpTree{};
    }
    if (heap.capacity_ids() > keep_nodes) heap.ShrinkTo(keep_nodes);
    if (is_target_local.size() > keep_nodes) {
      std::vector<std::uint8_t>(keep_nodes, 0).swap(is_target_local);
    }
    std::vector<graph::EdgeId>().swap(collected);
    std::vector<graph::EdgeId>().swap(mst);
    std::vector<std::uint32_t>().swap(ep_u);
    std::vector<std::uint32_t>().swap(ep_v);
    std::vector<std::uint8_t>().swap(is_terminal_local);
    std::vector<std::uint32_t>().swap(leaf_queue);
    std::vector<double>().swap(dp);
    std::vector<Back>().swap(back);
    std::vector<std::uint32_t>().swap(elig_nodes);
    std::vector<std::uint32_t>().swap(elig_local);
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
         VecBytes(terminals) + VecBytes(terminals_local);
    b += VecBytes(edge_flag) + VecBytes(is_target) + VecBytes(is_target_local);
    b += VecBytes(uf.parent) + VecBytes(uf.version) +
         VecBytes(kruskal_uf.parent) + VecBytes(kruskal_uf.version);
    b += VecBytes(in_mst) + VecBytes(best) + VecBytes(cert_floor) +
         VecBytes(best_from) + VecBytes(closure);
    b += VecBytes(collected) + VecBytes(mst) + VecBytes(ep_u) + VecBytes(ep_v);
    b += VecBytes(local_of) + VecBytes(local_stamp) + VecBytes(degree) +
         VecBytes(is_terminal_local) + VecBytes(inc_offset) +
         VecBytes(incidence) + VecBytes(leaf_queue) + VecBytes(removed);
    b += VecBytes(elig_nodes) + VecBytes(elig_local) + VecBytes(mini_offsets) +
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

// Applies the forced/banned flags (and, where wanted, the terminal
// markers) to the scratch's flat arrays for the duration of one solve,
// restoring the all-zero invariant on every exit path.
class OverlayGuard {
 public:
  OverlayGuard(SolverScratch& s, const CsrGraph& csr) : s_(s) {
    if (s_.edge_flag.size() < csr.num_edges) {
      s_.edge_flag.resize(csr.num_edges, 0);
    }
    if (s_.is_target.size() < csr.num_nodes) {
      s_.is_target.resize(csr.num_nodes, 0);
    }
    for (graph::EdgeId e : s_.forced_sorted) s_.edge_flag[e] = kForced;
    for (graph::EdgeId e : s_.banned_sorted) s_.edge_flag[e] = kBanned;
    for (std::uint32_t t : s_.terminals) s_.is_target[t] = 1;
  }

  ~OverlayGuard() {
    for (graph::EdgeId e : s_.forced_sorted) s_.edge_flag[e] = kFree;
    for (graph::EdgeId e : s_.banned_sorted) s_.edge_flag[e] = kFree;
    for (std::uint32_t t : s_.terminals) s_.is_target[t] = 0;
  }

 private:
  SolverScratch& s_;
};

// Single-source Dijkstra under the overlay flags, stopping as soon as all
// `num_targets` marked targets are settled. Unsettled nodes are wiped back
// to (inf, invalid) so the output is a canonical prefix of the full run.
// A non-null `in_mask` restricts the search to the induced subgraph (arcs
// whose head is outside the mask are skipped); the masked solvers verify
// afterwards that every value they read lies in the radius the mask
// provably reproduces (see fast_solver.h).
void ComputeSpTree(const CsrGraph& csr,
                   const std::vector<std::uint8_t>& edge_flag,
                   const std::vector<std::uint8_t>& is_target,
                   std::size_t num_targets, bool stop_at_targets,
                   std::uint32_t source,
                   const std::vector<std::uint8_t>* in_mask,
                   util::DaryHeap& heap, SpTree* out) {
  const std::uint32_t n = csr.num_nodes;
  // Sparse reset: only entries named by the previous run's touched list
  // can differ from the defaults, so a reused SpTree resets in O(prior
  // neighborhood). Fresh (or grown) objects pay the full initialization
  // once, below.
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
    const std::uint32_t end = csr.offsets[v + 1];
    for (std::uint32_t a = csr.offsets[v]; a < end; ++a) {
      graph::EdgeId e = csr.arc_edge[a];
      std::uint8_t flag = edge_flag[e];
      if (flag == kBanned) continue;
      std::uint32_t to = csr.arc_head[a];
      double next = d + (flag == kForced ? 0.0 : csr.arc_cost[a]);
      if (in_mask != nullptr && !(*in_mask)[to]) {
        // Clipped at the mask boundary: remember the cheapest declined
        // offer — it lower-bounds every path escaping the mask, which is
        // what lets the masked solvers certify their reads afterwards.
        if (next < out->mask_min_clip) out->mask_min_clip = next;
        continue;
      }
      double& dt = out->dist[to];
      // Strictly-improving updates only: the predecessor graph stays
      // acyclic even across 0-cost plateaus, and because the heap pops in
      // canonical (dist, id) order and arcs are scanned in fixed CSR
      // order, pred is the *first* arc achieving each node's final
      // distance under a canonical attempt order — a pure function of the
      // overlayed costs. The cache's reuse rule depends on exactly this
      // (see sp_cache.h).
      if (next < dt) {
        if (dt == kInf) out->touched.push_back(to);
        dt = next;
        out->pred_node[to] = v;
        out->pred_edge[to] = e;
        heap.PushOrDecrease(to, next);
      }
    }
  }
  out->complete = !stopped_early;
  // One pass over the touched set wipes offered-but-unsettled nodes back
  // to the defaults (so the stored arrays are a canonical prefix of the
  // full run), shrinks `touched` to the settled survivors, and collects
  // the predecessor edges.
  out->tree_edges.clear();
  std::size_t settled_count = 0;
  for (std::uint32_t v : out->touched) {
    if (!out->settled[v]) {
      out->dist[v] = kInf;
      out->pred_node[v] = graph::kInvalidNode;
      out->pred_edge[v] = graph::kInvalidEdge;
      continue;
    }
    out->touched[settled_count++] = v;
    if (out->pred_edge[v] != graph::kInvalidEdge) {
      out->tree_edges.push_back(out->pred_edge[v]);
    }
  }
  out->touched.resize(settled_count);
  std::sort(out->tree_edges.begin(), out->tree_edges.end());
  out->tree_edges.erase(
      std::unique(out->tree_edges.begin(), out->tree_edges.end()),
      out->tree_edges.end());
}

// Local-id twin of ComputeSpTree over a mask's compact sub-CSR (see
// shard.h): every per-node array spans the mask's L nodes instead of
// num_nodes and the heap drains at local capacity, which is what keeps
// masked Dijkstras cache-resident on million-source catalogs. Arcs whose
// head left the mask carry the kExternal sentinel and feed mask_min_clip
// exactly where the uncompacted scan would clip (banned arcs are skipped
// first, in the same order, so they never contribute a clip offer).
// Bit-identity argument: mask->nodes is ascending, so global->local is
// order-preserving and local (dist, id) tie order is isomorphic to the
// global canonical (dist, id) order; with per-node arc order preserved by
// the compact view, settle order, predecessor selection, the clipped
// offer set — hence every stored value and the clip floor — are
// byte-equal to the uncompacted masked run, merely re-indexed.
// dist/pred_node/settled/touched are local-indexed; pred_edge and
// tree_edges stay global edge ids.
void ComputeSpTreeLocal(const ShardMask& m,
                        const std::vector<std::uint8_t>& edge_flag,
                        const std::vector<std::uint8_t>& is_target_local,
                        std::size_t num_targets, bool stop_at_targets,
                        std::uint32_t source_local, util::DaryHeap& heap,
                        SpTree* out) {
  const std::uint32_t n = static_cast<std::uint32_t>(m.nodes.size());
  if (out->dist.size() < n) {
    out->dist.resize(n, kInf);
    out->pred_node.resize(n, graph::kInvalidNode);
    out->pred_edge.resize(n, graph::kInvalidEdge);
    out->settled.resize(n, 0);
  }
  // The sparse reset is index-space agnostic: whatever index space the
  // slot's previous run used, wiping its touched entries restores the
  // all-default state this run starts from.
  for (std::uint32_t v : out->touched) {
    out->dist[v] = kInf;
    out->pred_node[v] = graph::kInvalidNode;
    out->pred_edge[v] = graph::kInvalidEdge;
    out->settled[v] = 0;
  }
  out->touched.clear();
  out->mask_min_clip = kInf;
  heap.Drain(n);
  out->dist[source_local] = 0.0;
  out->touched.push_back(source_local);
  heap.PushOrDecrease(source_local, 0.0);
  std::size_t remaining = num_targets;
  bool stopped_early = false;
  while (!heap.empty()) {
    auto [d, v] = heap.PopMin();
    out->settled[v] = 1;
    if (stop_at_targets && is_target_local[v] && --remaining == 0) {
      stopped_early = !heap.empty();
      break;
    }
    const std::uint32_t end = m.local_offsets[v + 1];
    for (std::uint32_t a = m.local_offsets[v]; a < end; ++a) {
      graph::EdgeId e = m.local_arc_edge[a];
      std::uint8_t flag = edge_flag[e];
      if (flag == kBanned) continue;
      std::uint32_t to = m.local_arc_head[a];
      double next = d + (flag == kForced ? 0.0 : m.local_arc_cost[a]);
      if (to == ShardMask::kExternal) {
        if (next < out->mask_min_clip) out->mask_min_clip = next;
        continue;
      }
      double& dt = out->dist[to];
      if (next < dt) {
        if (dt == kInf) out->touched.push_back(to);
        dt = next;
        out->pred_node[to] = v;
        out->pred_edge[to] = e;
        heap.PushOrDecrease(to, next);
      }
    }
  }
  out->complete = !stopped_early;
  out->tree_edges.clear();
  std::size_t settled_count = 0;
  for (std::uint32_t v : out->touched) {
    if (!out->settled[v]) {
      out->dist[v] = kInf;
      out->pred_node[v] = graph::kInvalidNode;
      out->pred_edge[v] = graph::kInvalidEdge;
      continue;
    }
    out->touched[settled_count++] = v;
    if (out->pred_edge[v] != graph::kInvalidEdge) {
      out->tree_edges.push_back(out->pred_edge[v]);
    }
  }
  out->touched.resize(settled_count);
  std::sort(out->tree_edges.begin(), out->tree_edges.end());
  out->tree_edges.erase(
      std::unique(out->tree_edges.begin(), out->tree_edges.end()),
      out->tree_edges.end());
}

// Shared preamble of both solvers: sort the edit sets, reject infeasible
// subproblems, contract forced edges in the union-find, charge their cost,
// and dedup terminals to one representative per supernode. Returns false
// when the subproblem is infeasible.
bool PrepareSubproblem(const CsrGraph& csr,
                       const std::vector<graph::NodeId>& terminals,
                       const std::vector<graph::EdgeId>& forced,
                       const std::vector<graph::EdgeId>& banned,
                       SolverScratch& s, SteinerTree* result) {
  s.forced_sorted.assign(forced.begin(), forced.end());
  std::sort(s.forced_sorted.begin(), s.forced_sorted.end());
  s.banned_sorted.assign(banned.begin(), banned.end());
  std::sort(s.banned_sorted.begin(), s.banned_sorted.end());
  if (SortedIntersect(s.forced_sorted, s.banned_sorted)) return false;

  s.uf.Begin(csr.num_nodes);
  result->edges.assign(forced.begin(), forced.end());
  result->cost = 0.0;
  for (graph::EdgeId e : forced) {
    std::uint32_t ru = s.uf.Find(csr.edge_u[e]);
    std::uint32_t rv = s.uf.Find(csr.edge_v[e]);
    if (ru == rv) return false;  // forced edges form a cycle
    s.uf.Union(ru, rv);
    result->cost += csr.edge_cost[e];
  }

  s.terminals.clear();
  for (graph::NodeId t : terminals) {
    std::uint32_t root = s.uf.Find(t);
    bool seen = false;
    for (std::uint32_t kept : s.terminals) {
      if (s.uf.Find(kept) == root) {
        seen = true;
        break;
      }
    }
    if (!seen) s.terminals.push_back(t);
  }
  return true;
}

// Copies a freshly computed tree out of its pooled scratch slot into a
// shareable cache entry whose arrays span `n` nodes. A pooled slot keeps
// the high-water arrays of every solve its thread ever ran (an unmasked
// solve on the largest graph it served leaves them at that size), so a
// wholesale copy or a stolen slot would store arrays sized to that graph
// rather than to this one — and a stolen slot would regrow on its next
// use. The slot's invariant — every entry off the touched list is at its
// (inf, invalid, 0) default — makes the right-sized rebuild byte-identical
// for every index below `n`, which is all the cache can serve.
std::shared_ptr<const SpTree> MaterializeTree(const SpTree& slot,
                                              std::size_t n) {
  auto fresh = std::make_shared<SpTree>();
  fresh->dist.assign(n, kInf);
  fresh->pred_node.assign(n, graph::kInvalidNode);
  fresh->pred_edge.assign(n, graph::kInvalidEdge);
  fresh->settled.assign(n, 0);
  for (std::uint32_t v : slot.touched) {
    fresh->dist[v] = slot.dist[v];
    fresh->pred_node[v] = slot.pred_node[v];
    fresh->pred_edge[v] = slot.pred_edge[v];
    fresh->settled[v] = slot.settled[v];
  }
  fresh->touched = slot.touched;
  fresh->tree_edges = slot.tree_edges;
  fresh->complete = slot.complete;
  fresh->mask_min_clip = slot.mask_min_clip;
  return fresh;
}

// Fills s.sp with one shortest-path tree per deduped terminal, shared
// through the cache. `full` requests complete (non-early-stopped) trees —
// the exact DP seeds its singleton slices from them. `cache_generation`
// is the generation captured by the solve's SnapshotPin: lookups and
// inserts keyed under it can only meet entries computed over the same
// pinned costs, even if a concurrent re-cost has already moved the cache
// to a newer generation.
//
// Only clean-overlay ({}, {}) trees are materialized, the policy the
// mask-local twin below follows too. A clean entry is re-served every
// time an enumeration at this generation re-acquires the terminal, and
// the reuse rule (sp_cache.h) lets it answer overlay lookups whose bans
// miss its tree. Overlay trees stay in the thread's scratch slot: a whole
// overlay subproblem that recurs is served one level up, by the engine's
// SolveMemo, while storing overlay trees here would cost a per-lookup
// scan over every entry of the terminal plus an O(num_nodes) copy per
// entry, and the rule serves almost no lookups from them
// (docs/query_engine.md, "Shortest-path cache", has the measured rates).
void AcquireSpTrees(const CsrGraph& csr, ShortestPathCache* cache,
                    std::uint64_t cache_generation, SolverScratch& s,
                    bool full, const std::vector<std::uint8_t>* in_mask) {
  const std::size_t t = s.terminals.size();
  const bool clean_overlay =
      s.forced_sorted.empty() && s.banned_sorted.empty();
  s.sp.clear();
  s.sp_refs.clear();
  if (s.sp_slots.size() < t) s.sp_slots.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    std::shared_ptr<const SpTree> ref;
    if (cache != nullptr) {
      ref = cache->Lookup(cache_generation, s.terminals[i], s.forced_sorted,
                          s.banned_sorted, csr.edge_cost, s.terminals, full);
    }
    if (ref == nullptr) {
      ComputeSpTree(csr, s.edge_flag, s.is_target, t, !full, s.terminals[i],
                    in_mask, s.heap, &s.sp_slots[i]);
      if (cache != nullptr && clean_overlay && cache->HasRoom()) {
        ref = MaterializeTree(s.sp_slots[i], csr.num_nodes);
        cache->Insert(cache_generation, s.terminals[i], {}, {}, ref);
      }
    }
    if (ref != nullptr) {
      s.sp.push_back(ref.get());
      s.sp_refs.push_back(std::move(ref));
    } else {
      // Cache disabled or full, or an overlay tree kept in scratch.
      s.sp.push_back(&s.sp_slots[i]);
    }
  }
}

// Local-id twin of AcquireSpTrees over a compact mask view: fills s.sp
// with per-terminal trees whose arrays are local-indexed, shared through
// the cache's mask-uid-keyed local half. A uid names one immutable
// compact view, so entries can never be matched across masks, epochs, or
// enumerations. Reuse caveat (see sp_cache.h): a tree served under a
// superset banned set may carry a mask_min_clip computed before the
// extra ban removed a boundary offer — a floor at most the fresh one —
// so certification against it is conservative (extra escalation at
// worst), never unsound.
void AcquireSpTreesLocal(const CsrGraph& csr, const ShardMask& m,
                         ShortestPathCache* cache, SolverScratch& s,
                         bool full) {
  const std::size_t t = s.terminals.size();
  const std::size_t n = m.nodes.size();
  const bool clean_overlay =
      s.forced_sorted.empty() && s.banned_sorted.empty();
  s.terminals_local.clear();
  for (std::uint32_t term : s.terminals) {
    s.terminals_local.push_back(m.local_of[term]);
  }
  if (s.is_target_local.size() < n) s.is_target_local.resize(n, 0);
  for (std::uint32_t lt : s.terminals_local) s.is_target_local[lt] = 1;
  s.sp.clear();
  s.sp_refs.clear();
  if (s.sp_slots.size() < t) s.sp_slots.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    std::shared_ptr<const SpTree> ref;
    if (cache != nullptr) {
      ref = cache->LookupLocal(m.mask_uid, s.terminals[i], s.forced_sorted,
                               s.banned_sorted, csr.edge_cost,
                               s.terminals_local, full);
    }
    if (ref == nullptr) {
      ComputeSpTreeLocal(m, s.edge_flag, s.is_target_local, t, !full,
                         s.terminals_local[i], s.heap, &s.sp_slots[i]);
      // Materialize only clean-overlay trees. A ({}, {}) entry is
      // re-served every time the enumeration re-acquires this mask and
      // terminal, so it earns its footprint; an overlay tree can only
      // hit again on a compatible (F, B) recurrence, which Lawler
      // partitioning makes vanishingly rare. Keeping overlay misses
      // slot-resident is what holds the per-solve cost at O(ball) as the
      // catalog grows: the slot sparse-resets its touched entries on the
      // next miss instead of allocating and refilling O(L) arrays. The
      // entry is rebuilt at the mask's local extent, so a slot a
      // catalog-sized unmasked solve left behind never costs an
      // O(catalog) copy on the first acquire of a new mask. The capacity
      // race is handled inside InsertLocal (wholesale clear), so no
      // HasRoom gate here.
      if (cache != nullptr && clean_overlay) {
        ref = MaterializeTree(s.sp_slots[i], n);
        cache->InsertLocal(m.mask_uid, s.terminals[i], {}, {}, ref);
      }
    }
    if (ref != nullptr) {
      s.sp.push_back(ref.get());
      s.sp_refs.push_back(std::move(ref));
    } else {
      s.sp.push_back(&s.sp_slots[i]);
    }
  }
  // Restore the all-zero invariant now: nothing downstream reads the
  // local target marks, and the shrink policy may reallocate the array
  // between solves.
  for (std::uint32_t lt : s.terminals_local) s.is_target_local[lt] = 0;
}

// Boundary certificate shared by both masked solvers. A masked tree's
// settled prefix is bit-identical to the unmasked run's whenever the
// cheapest offer it clipped at the mask boundary strictly exceeds the
// largest distance the caller reads: any path escaping the mask costs at
// least the clipped offer, so it can neither improve nor tie — and hence
// never reorder, re-predecessor, or newly settle — anything at or below
// the read horizon (induction over the canonical (dist, id) settle
// order; the first diverging node's predecessor would have had to reach
// it through a clipped arc). The KMB path reads pairwise terminal
// distances and predecessor chains below them, so its horizon is
// max_j dist[t_j] per tree. A terminal unreachable within the mask
// certifies only when nothing was clipped at all — then the mask
// exhausted the component and the infeasible verdict is exact.
// `term_idx` holds the terminals in whatever index space s.sp uses —
// s.terminals for global/uncompacted trees, s.terminals_local for
// compacted ones — so the certificate itself is index-space agnostic.
MaskedOutcome CertifyPairwiseReads(SolverScratch& s,
                                   const std::vector<std::uint32_t>& term_idx,
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
    const SpTree& sp = *s.sp[i];
    double max_read = 0.0;
    for (std::size_t j = 0; j < t; ++j) {
      double d = sp.dist[term_idx[j]];
      max_read = std::max(max_read, d);
      const double floor = std::min(d, sp.mask_min_clip);
      pairwise_lb = std::max(pairwise_lb, floor);
      s.cert_floor[i * t + j] = floor;
    }
    if (max_read == kInf) {
      if (sp.mask_min_clip < kInf) verdict = MaskedOutcome::kEscalate;
    } else if (!(sp.mask_min_clip > max_read)) {
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

// Picks the compact local-id view for a masked solve, or null to run the
// uncompacted referee path. The view must exist, be built (covers_all
// masks skip BuildCompact), span the pinned snapshot's node count, and
// contain every deduped terminal — hand-built test masks may omit one,
// which the uncompacted path tolerates by construction.
const ShardMask* ResolveCompact(const MaskView* mask, const CsrGraph& csr,
                                const SolverScratch& s) {
  if (mask == nullptr || mask->compact == nullptr) return nullptr;
  const ShardMask& m = *mask->compact;
  if (!m.HasCompact() || m.local_of.size() != csr.num_nodes) return nullptr;
  for (std::uint32_t term : s.terminals) {
    if (m.local_of[term] == ShardMask::kExternal) return nullptr;
  }
  return &m;
}

// KMB steps 2-5 over the trees in s.sp. Expects PrepareSubproblem done, an
// OverlayGuard active, and t >= 2 deduped terminals; `result` carries the
// forced prefix and base cost. `sp_terms` names the terminals in the
// trees' own index space (local ids for compacted masked solves) — only
// reads of sp.dist/pred_node go through it; collected pred_edge values
// are global edge ids in either space, so everything from Kruskal on is
// index-space independent. Safe to call concurrently (cache is
// synchronized, scratch is per-thread).
std::optional<SteinerTree> KmbFromTrees(const CsrGraph& csr, SolverScratch& s,
                                        const std::vector<std::uint32_t>& sp_terms,
                                        SteinerTree result) {
  const std::size_t t = s.terminals.size();

  // 2. Prim MST over the terminal metric closure.
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
    if (pick == t || s.best[pick] == kInf) return std::nullopt;
    s.in_mst[pick] = 1;
    if (pick != 0) s.closure.emplace_back(s.best_from[pick], pick);
    const SpTree& sp = *s.sp[pick];
    for (std::size_t i = 0; i < t; ++i) {
      if (s.in_mst[i]) continue;
      double d = sp.dist[sp_terms[i]];
      if (d < s.best[i]) {
        s.best[i] = d;
        s.best_from[i] = pick;
      }
    }
  }

  // 3. Expand closure edges into original-graph edges along the cached
  // predecessor trees (forced edges are already part of the result).
  s.collected.clear();
  for (auto [a, b] : s.closure) {
    std::uint32_t v = sp_terms[b];
    const std::uint32_t src = sp_terms[a];
    const SpTree& sp = *s.sp[a];
    while (v != src) {
      graph::EdgeId e = sp.pred_edge[v];
      if (e == graph::kInvalidEdge) break;
      if (s.edge_flag[e] != kForced) s.collected.push_back(e);
      v = sp.pred_node[v];
    }
  }
  std::sort(s.collected.begin(), s.collected.end());
  s.collected.erase(std::unique(s.collected.begin(), s.collected.end()),
                    s.collected.end());

  // 4. Kruskal MST of the induced subgraph, in supernode space.
  std::sort(s.collected.begin(), s.collected.end(),
            [&](graph::EdgeId a, graph::EdgeId b) {
              if (csr.edge_cost[a] != csr.edge_cost[b]) {
                return csr.edge_cost[a] < csr.edge_cost[b];
              }
              return a < b;
            });
  s.kruskal_uf.Begin(csr.num_nodes);
  s.mst.clear();
  s.ep_u.clear();
  s.ep_v.clear();
  for (graph::EdgeId e : s.collected) {
    std::uint32_t su = s.uf.Find(csr.edge_u[e]);
    std::uint32_t sv = s.uf.Find(csr.edge_v[e]);
    std::uint32_t ru = s.kruskal_uf.Find(su);
    std::uint32_t rv = s.kruskal_uf.Find(sv);
    if (ru == rv) continue;
    s.kruskal_uf.Union(ru, rv);
    s.mst.push_back(e);
    s.ep_u.push_back(su);
    s.ep_v.push_back(sv);
  }

  // 5. Iteratively prune non-terminal leaves (in supernode space).
  if (++s.stamp == 0) {
    std::fill(s.local_stamp.begin(), s.local_stamp.end(), 0);
    s.stamp = 1;
  }
  if (s.local_stamp.size() < csr.num_nodes) {
    s.local_stamp.resize(csr.num_nodes, 0);
    s.local_of.resize(csr.num_nodes);
  }
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
                                     bool use_cache)
    : csr_(std::make_shared<CsrGraph>(CsrGraph::Build(graph, weights))) {
  if (use_cache) {
    cache_ = std::make_unique<ShortestPathCache>();
    memo_ = std::make_unique<SolveMemo>();
  }
}

SnapshotPin FastSteinerEngine::Pin() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  SnapshotPin pin;
  // The handle owns a fresh control block whose deleter both keeps the
  // pinned CsrGraph alive (`keep`) and retires the pin with a release
  // decrement — the edge BeginMutation's acquire load pairs with.
  pins_->fetch_add(1, std::memory_order_relaxed);
  pin.csr = std::shared_ptr<const CsrGraph>(
      csr_.get(), [keep = csr_, pins = pins_](const CsrGraph*) {
        pins->fetch_sub(1, std::memory_order_release);
      });
  pin.generation = generation_;
  pin.cache_generation = cache_ != nullptr ? cache_->generation() : 0;
  return pin;
}

bool FastSteinerEngine::BeginMutation() {
  // Caller holds snapshot_mu_, so no new pin can appear mid-mutation;
  // outstanding pins only drain. Observing zero with acquire ordering
  // means every pinned reader's accesses happen-before this mutation
  // (release decrement in the pin deleter), so patching in place is
  // safe. Any live pin — even one on an already-replaced snapshot —
  // forces a clone so the pinned holders keep reading frozen costs.
  if (pins_->load(std::memory_order_acquire) > 0) {
    csr_ = std::make_shared<CsrGraph>(*csr_);
    return true;
  }
  return false;
}

void FastSteinerEngine::Recost(const graph::SearchGraph& graph,
                               const graph::WeightVector& weights) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  BeginMutation();
  csr_->Recost(graph, weights);
  ++generation_;
  if (cache_ != nullptr) cache_->BumpGeneration();
  if (memo_ != nullptr) memo_->Advance(generation_);
}

bool FastSteinerEngine::CollectDeltaCandidates(
    const graph::SearchGraph& graph,
    const std::vector<graph::FeatureDelta>& deltas,
    const std::vector<graph::EdgeId>& extra_edges) {
  touched_scratch_.clear();
  for (const graph::FeatureDelta& d : deltas) {
    touched_scratch_.push_back(d.id);
  }
  std::sort(touched_scratch_.begin(), touched_scratch_.end());
  touched_scratch_.erase(
      std::unique(touched_scratch_.begin(), touched_scratch_.end()),
      touched_scratch_.end());

  candidate_scratch_.clear();
  if (!touched_scratch_.empty()) {
    if (feature_index_ == nullptr) {
      feature_index_ = std::make_unique<FeatureEdgeIndex>(
          FeatureEdgeIndex::Build(graph));
    }
    feature_index_->CollectEdges(touched_scratch_, &candidate_scratch_);
  }
  // Edges whose FeatureVec itself changed must be repriced regardless of
  // what the (possibly stale-for-them) postings said.
  candidate_scratch_.insert(candidate_scratch_.end(), extra_edges.begin(),
                            extra_edges.end());
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end());
  candidate_scratch_.erase(
      std::unique(candidate_scratch_.begin(), candidate_scratch_.end()),
      candidate_scratch_.end());

  // Dense deltas gain nothing over a full pass but still pay the cache
  // scan; hand them back to Recost.
  return candidate_scratch_.size() <= csr_->num_edges / 2;
}

FastSteinerEngine::RecostDeltaOutcome FastSteinerEngine::RecostDelta(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::FeatureDelta>& deltas,
    const std::vector<graph::EdgeId>& extra_edges) {
  RecostDeltaOutcome outcome;
  bool sparse = CollectDeltaCandidates(graph, deltas, extra_edges);
  outcome.candidate_edges = candidate_scratch_.size();
  if (!sparse) {
    return outcome;  // applied == false
  }
  outcome.applied = true;

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  const bool cloned = BeginMutation();
  repriced_scratch_.clear();
  csr_->RecostEdges(graph, weights, candidate_scratch_, &repriced_scratch_);
  outcome.edges_repriced = repriced_scratch_.size();
  if (repriced_scratch_.empty()) {
    // Nothing moved: the snapshot (and any cached tree) is bitwise
    // unchanged, so neither generation advances. (A defensive clone from
    // BeginMutation is then byte-identical to the pinned original.)
    return outcome;
  }
  ++generation_;
  if (memo_ != nullptr) memo_->Advance(generation_);
  if (cache_ != nullptr) {
    if (cloned) {
      // Pinned solves of the old snapshot may still be populating the
      // current cache generation; selective invalidation re-judges those
      // entries under costs they were never computed for. Move to a
      // fresh generation instead — old-generation traffic stays coherent
      // under its own keys, new solves start cold.
      outcome.cache_entries_dropped = cache_->size();
      cache_->BumpGeneration();
    } else {
      cache_->InvalidateRepriced(repriced_scratch_,
                                 &outcome.cache_entries_retained,
                                 &outcome.cache_entries_dropped);
    }
  }
  return outcome;
}

bool FastSteinerEngine::PreviewDelta(
    const graph::SearchGraph& graph, const graph::WeightVector& weights,
    const std::vector<graph::FeatureDelta>& deltas,
    std::vector<RepricedEdge>* repriced) {
  // Shares the collection (and its dense-delta threshold) with
  // RecostDelta, so a declined preview and a declined re-cost classify
  // the same deltas. A gate fall-through re-collects in the subsequent
  // RecostDelta; that duplicate walk is bounded by the candidate count
  // and dwarfed by the search the fall-through implies.
  if (!CollectDeltaCandidates(graph, deltas, /*extra_edges=*/{})) {
    return false;
  }
  csr_->PreviewRecostEdges(graph, weights, candidate_scratch_, repriced);
  return true;
}

FastSolveStats FastSteinerEngine::stats() const {
  FastSolveStats st;
  if (cache_ != nullptr) {
    st.sp_cache_hits = cache_->hits();
    st.sp_cache_misses = cache_->misses();
    st.sp_cache_entries = cache_->size();
    st.sp_local_hits = cache_->local_hits();
    st.sp_local_misses = cache_->local_misses();
    st.sp_local_entries = cache_->local_size();
    st.masked_bypasses = cache_->masked_bypasses();
  }
  if (memo_ != nullptr) {
    st.memo_hits = memo_->hits();
    st.memo_misses = memo_->misses();
    st.memo_entries = memo_->size();
    st.memo_bytes = memo_->bytes();
  }
  return st;
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmb(
    const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  // Pin the snapshot for the whole solve: a concurrent re-cost
  // copies-on-write, so the pinned CSR stays bitwise frozen and the cache
  // traffic stays keyed under the pinned generation.
  return SolveKmb(Pin(), terminals, forced, banned);
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmb(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  return SolveKmbImpl(pin, terminals, forced, banned, /*mask=*/nullptr,
                      /*outcome=*/nullptr, /*escalate_bound=*/nullptr);
}

std::optional<SteinerTree> FastSteinerEngine::SolveMemoized(
    const SnapshotPin& pin, SolverKind kind,
    const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  std::optional<SteinerTree> verdict;
  if (memo_ != nullptr && memo_->Lookup(pin.generation, kind, terminals,
                                        forced, banned, &verdict)) {
    return verdict;
  }
  verdict = kind == SolverKind::kKmb
                ? SolveKmb(pin, terminals, forced, banned)
                : SolveExact(pin, terminals, forced, banned);
  if (memo_ != nullptr) {
    memo_->Insert(pin.generation, kind, terminals, forced, banned, verdict);
  }
  return verdict;
}

std::optional<SteinerTree> FastSteinerEngine::SolveKmbMasked(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, const MaskView& mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  return SolveKmbImpl(pin, terminals, forced, banned, &mask, outcome,
                      escalate_bound);
}

std::optional<SteinerTree> FastSteinerEngine::SolveExactMasked(
    const SnapshotPin& pin, const std::vector<graph::NodeId>& terminals,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned, const MaskView& mask,
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
    const std::vector<graph::EdgeId>& banned, const MaskView* mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  if (outcome != nullptr) *outcome = MaskedOutcome::kOk;
  const CsrGraph& csr = *pin.csr;
  SolverScratch& s = GetScratch();
  SteinerTree result;
  if (!PrepareSubproblem(csr, terminals, forced, banned, s, &result)) {
    return std::nullopt;
  }
  if (s.terminals.size() <= 1) {
    result.Canonicalize();
    return result;
  }
  const ShardMask* compact = ResolveCompact(mask, csr, s);
  // Before the overlay guard: destructors run in reverse order, so the
  // guard restores the all-zero invariant before a shrink may reallocate.
  ExtentGuard extent{
      s, compact != nullptr ? compact->nodes.size() : csr.num_nodes};
  OverlayGuard overlay(s, csr);
  if (compact != nullptr) {
    AcquireSpTreesLocal(csr, *compact, cache_.get(), s, /*full=*/false);
  } else {
    if (mask != nullptr && cache_ != nullptr) {
      cache_->NoteMaskedBypass(s.terminals.size());
    }
    // Uncompacted masked solves (the referee path) run uncached: their
    // Dijkstras stop inside the mask, so recomputing them beats
    // materializing graph-spanning cache copies.
    ShortestPathCache* cache = mask != nullptr ? nullptr : cache_.get();
    AcquireSpTrees(csr, cache, pin.cache_generation, s, /*full=*/false,
                   mask != nullptr ? mask->in_mask : nullptr);
  }
  const std::vector<std::uint32_t>& sp_terms =
      compact != nullptr ? s.terminals_local : s.terminals;
  if (mask != nullptr) {
    // Every value KMB reads must sit strictly below the clipped-offer
    // horizon, or the masked trees are not certified prefixes of the
    // full runs. No verdict otherwise — but the clip floor still bounds
    // the subspace cost from below, which the caller may keep.
    double overlay_lb = 0.0;
    MaskedOutcome verdict = CertifyPairwiseReads(s, sp_terms, &overlay_lb);
    if (verdict != MaskedOutcome::kOk) {
      *outcome = verdict;
      if (escalate_bound != nullptr) {
        *escalate_bound = SubspaceCostBound(result.cost, overlay_lb);
      }
      return std::nullopt;
    }
  }
  return KmbFromTrees(csr, s, sp_terms, std::move(result));
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
    const std::vector<graph::EdgeId>& banned, const MaskView* mask,
    MaskedOutcome* outcome, double* escalate_bound) {
  if (outcome != nullptr) *outcome = MaskedOutcome::kOk;
  const CsrGraph& csr = *pin.csr;
  SolverScratch& s = GetScratch();
  SteinerTree result;
  if (!PrepareSubproblem(csr, terminals, forced, banned, s, &result)) {
    return std::nullopt;
  }
  const std::size_t t = s.terminals.size();
  if (t <= 1) {
    result.Canonicalize();
    return result;
  }
  const ShardMask* compact = ResolveCompact(mask, csr, s);
  ExtentGuard extent{
      s, compact != nullptr ? compact->nodes.size() : csr.num_nodes};
  OverlayGuard overlay(s, csr);

  // Acquire complete per-terminal shortest-path trees once; they serve
  // triple duty: the KMB upper bound (terminals disconnected iff KMB fails
  // iff the DP would fail), the eligibility filter, and the DP's singleton
  // slices dp[{i}] = dist(t_i, .) — so those 2^0-subsets need no grow pass
  // at all.
  if (compact != nullptr) {
    AcquireSpTreesLocal(csr, *compact, cache_.get(), s, /*full=*/true);
  } else {
    if (mask != nullptr && cache_ != nullptr) {
      cache_->NoteMaskedBypass(s.terminals.size());
    }
    ShortestPathCache* cache = mask != nullptr ? nullptr : cache_.get();
    AcquireSpTrees(csr, cache, pin.cache_generation, s, /*full=*/true,
                   mask != nullptr ? mask->in_mask : nullptr);
  }
  const std::vector<std::uint32_t>& sp_terms =
      compact != nullptr ? s.terminals_local : s.terminals;
  if (mask != nullptr) {
    // Guarantees the KMB upper bound below (and its infeasibility
    // verdict) is the unmasked one before we derive a threshold from it.
    double overlay_lb = 0.0;
    MaskedOutcome verdict = CertifyPairwiseReads(s, sp_terms, &overlay_lb);
    if (verdict != MaskedOutcome::kOk) {
      *outcome = verdict;
      if (escalate_bound != nullptr) {
        *escalate_bound = SubspaceCostBound(result.cost, overlay_lb);
      }
      return std::nullopt;
    }
  }
  auto kmb = KmbFromTrees(csr, s, sp_terms, result);
  if (!kmb.has_value()) return std::nullopt;
  double bound = kmb->cost - result.cost;  // overlay-space upper bound
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
      if (!(s.sp[i]->mask_min_clip > bound)) {
        *outcome = MaskedOutcome::kEscalate;
        if (escalate_bound != nullptr) {
          // Pairwise distances certified above are exact here, so they
          // bound the subspace optimum even without the DP verdict.
          double pairwise = 0.0;
          for (std::size_t a = 0; a < t; ++a) {
            for (std::size_t b = 0; b < t; ++b) {
              pairwise = std::max(pairwise, s.sp[a]->dist[sp_terms[b]]);
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
  // dense mini ids (in node-id order); the induced mini-CSR bakes the
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
    s.elig_nodes.clear();
    s.elig_local.clear();
    if (compact != nullptr) {
      // Local ids ascend with the (ascending) mask node list, so this
      // scan visits candidates in the same order as the uncompacted
      // masked branch below — the eligible list (and hence the mini-id
      // assignment) comes out identical, merely read through local
      // distance arrays.
      const std::uint32_t num_local =
          static_cast<std::uint32_t>(compact->nodes.size());
      for (std::uint32_t lv = 0; lv < num_local; ++lv) {
        bool ok = true;
        for (std::size_t i = 0; i < t; ++i) {
          if (s.sp[i]->dist[lv] > threshold) {
            ok = false;
            break;
          }
        }
        if (ok) {
          s.elig_nodes.push_back(compact->nodes[lv]);
          s.elig_local.push_back(lv);
        }
      }
    } else if (mask != nullptr) {
      // Below-bound nodes all live inside the mask (the clipped-offer
      // floor exceeds the bound, so any node whose true distance fits
      // the threshold was settled — identically — by the masked runs),
      // so scanning the ascending mask node list yields the same
      // eligible list — same order — as the unmasked 0..n-1 scan.
      for (std::uint32_t v : *mask->nodes) {
        bool ok = true;
        for (std::size_t i = 0; i < t; ++i) {
          if (s.sp[i]->dist[v] > threshold) {
            ok = false;
            break;
          }
        }
        if (ok) s.elig_nodes.push_back(v);
      }
    } else {
      for (std::uint32_t v = 0; v < csr.num_nodes; ++v) {
        bool ok = true;
        for (std::size_t i = 0; i < t; ++i) {
          if (s.sp[i]->dist[v] > threshold) {
            ok = false;
            break;
          }
        }
        if (ok) s.elig_nodes.push_back(v);
      }
    }
    if (++s.stamp == 0) {
      std::fill(s.local_stamp.begin(), s.local_stamp.end(), 0);
      s.stamp = 1;
    }
    if (s.local_stamp.size() < csr.num_nodes) {
      s.local_stamp.resize(csr.num_nodes, 0);
      s.local_of.resize(csr.num_nodes);
    }
    n_e = static_cast<std::uint32_t>(s.elig_nodes.size());
    for (std::uint32_t i = 0; i < n_e; ++i) {
      s.local_stamp[s.elig_nodes[i]] = s.stamp;
      s.local_of[s.elig_nodes[i]] = i;
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
    std::uint32_t v = s.elig_nodes[i];
    const std::uint32_t end = csr.offsets[v + 1];
    for (std::uint32_t a = csr.offsets[v]; a < end; ++a) {
      std::uint32_t to = csr.arc_head[a];
      if (s.local_stamp[to] != s.stamp) continue;
      graph::EdgeId e = csr.arc_edge[a];
      std::uint8_t flag = s.edge_flag[e];
      if (flag == kBanned) continue;
      s.mini_head.push_back(s.local_of[to]);
      s.mini_edge.push_back(e);
      s.mini_cost.push_back(flag == kForced ? 0.0 : csr.arc_cost[a]);
    }
    s.mini_offsets[i + 1] = static_cast<std::uint32_t>(s.mini_head.size());
  }

  // Eligible nodes in the trees' own index space: local ids under a
  // compact view, global node ids otherwise. Parallel to elig_nodes, so
  // mini id mv reads the same node either way.
  const std::vector<std::uint32_t>& elig_idx =
      compact != nullptr ? s.elig_local : s.elig_nodes;

  const std::uint32_t full = (1u << t) - 1;
  const std::size_t states = static_cast<std::size_t>(full + 1) * n_e;
  s.dp.assign(states, kInf);
  s.back.assign(states, Back{});
  // Singleton slices come straight from the shortest-path trees (bound-
  // pruned); their subsets below need neither merge nor grow.
  for (std::size_t i = 0; i < t; ++i) {
    double* dps = &s.dp[(std::size_t{1} << i) * n_e];
    const SpTree& sp = *s.sp[i];
    for (std::uint32_t mv = 0; mv < n_e; ++mv) {
      double d = sp.dist[elig_idx[mv]];
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
      const SpTree& sp = *s.sp[i];
      std::uint32_t cur = elig_idx[v];
      const std::uint32_t src = sp_terms[i];
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

std::size_t ThreadScratchBytes() { return GetScratch().FootprintBytes(); }

MaskedSpProbe ComputeMaskedSpTreeForTest(
    const CsrGraph& csr, const MaskView& mask, std::uint32_t source,
    const std::vector<graph::NodeId>& targets, bool stop_at_targets,
    const std::vector<graph::EdgeId>& forced,
    const std::vector<graph::EdgeId>& banned) {
  SolverScratch& s = GetScratch();
  s.forced_sorted.assign(forced.begin(), forced.end());
  std::sort(s.forced_sorted.begin(), s.forced_sorted.end());
  s.banned_sorted.assign(banned.begin(), banned.end());
  std::sort(s.banned_sorted.begin(), s.banned_sorted.end());
  s.terminals.assign(targets.begin(), targets.end());
  OverlayGuard overlay(s, csr);

  // Both paths project into global-indexed arrays so callers diff them
  // element-for-element without knowing which path ran.
  MaskedSpProbe probe;
  probe.dist.assign(csr.num_nodes, kInf);
  probe.pred_node.assign(csr.num_nodes, graph::kInvalidNode);
  probe.pred_edge.assign(csr.num_nodes, graph::kInvalidEdge);
  probe.settled.assign(csr.num_nodes, 0);

  SpTree tree;
  const ShardMask* compact =
      mask.compact != nullptr && mask.compact->HasCompact() &&
              mask.compact->local_of.size() == csr.num_nodes &&
              mask.compact->local_of[source] != ShardMask::kExternal
          ? mask.compact
          : nullptr;
  if (compact != nullptr) {
    const std::size_t n = compact->nodes.size();
    if (s.is_target_local.size() < n) s.is_target_local.resize(n, 0);
    for (std::uint32_t t : targets) {
      const std::uint32_t lt = compact->local_of[t];
      if (lt != ShardMask::kExternal) s.is_target_local[lt] = 1;
    }
    // The stop threshold mirrors the global path's s.terminals.size():
    // a target outside the mask (or a duplicate) never settles, so both
    // paths keep exploring identically instead of stopping early.
    ComputeSpTreeLocal(*compact, s.edge_flag, s.is_target_local,
                       targets.size(), stop_at_targets,
                       compact->local_of[source], s.heap, &tree);
    for (std::uint32_t t : targets) {
      const std::uint32_t lt = compact->local_of[t];
      if (lt != ShardMask::kExternal) s.is_target_local[lt] = 0;
    }
    for (std::uint32_t lv : tree.touched) {  // settled survivors only
      const std::uint32_t v = compact->nodes[lv];
      probe.dist[v] = tree.dist[lv];
      probe.pred_node[v] = tree.pred_node[lv] == graph::kInvalidNode
                               ? graph::kInvalidNode
                               : compact->nodes[tree.pred_node[lv]];
      probe.pred_edge[v] = tree.pred_edge[lv];
      probe.settled[v] = 1;
    }
  } else {
    ComputeSpTree(csr, s.edge_flag, s.is_target, s.terminals.size(),
                  stop_at_targets, source, mask.in_mask, s.heap, &tree);
    for (std::uint32_t v : tree.touched) {
      probe.dist[v] = tree.dist[v];
      probe.pred_node[v] = tree.pred_node[v];
      probe.pred_edge[v] = tree.pred_edge[v];
      probe.settled[v] = 1;
    }
  }
  probe.tree_edges = std::move(tree.tree_edges);
  probe.mask_min_clip = tree.mask_min_clip;
  probe.complete = tree.complete;
  return probe;
}

}  // namespace q::steiner
