#ifndef Q_STEINER_SHARD_H_
#define Q_STEINER_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/csr.h"

namespace q::steiner {

// Topology-only partition of a CSR snapshot into connected node clusters
// of roughly `target_nodes` each, grown by BFS in ascending seed order so
// the assignment is a pure function of the arc structure. Costs play no
// role: re-costing a snapshot never moves a node between shards, so one
// partition serves an engine for its whole lifetime (the engine's
// node/edge set is fixed at construction).
struct ShardPartition {
  std::vector<std::uint32_t> shard_of;  // node id -> shard id
  std::uint32_t num_shards = 0;
  // Inverse index as a CSR: shard id -> its node ids in ascending order.
  // Mask builds expand touched shards through it in O(mask) instead of
  // scanning every catalog node per query.
  std::vector<std::uint32_t> shard_offsets;  // size num_shards + 1
  std::vector<std::uint32_t> shard_nodes;    // size num_nodes

  static ShardPartition Build(const CsrGraph& csr, std::uint32_t target_nodes);
};

// A set of whole shards, materialized as a node bitmap plus the sorted
// node-id list (ascending — the exact-DP eligibility scan relies on the
// order matching the unmasked 0..n-1 scan).
//
// Alongside the bitmap, a mask built by TerminalLocalizer carries a
// *compact local-id view*: local id l is mask node nodes[l] (ascending, so
// local (dist, id) tie order is isomorphic to the global canonical order),
// plus a materialized sub-CSR whose arc heads are translated to local ids.
// Arcs leaving the mask keep a kExternal head so a masked Dijkstra still
// sees every clipped boundary offer — its mask_min_clip equals that of a
// Dijkstra over the global CSR that skips out-of-mask heads (the
// uncompacted referee in tests). Arc costs are baked from the CSR the view
// was built against (the localizer's pinned snapshot; one enumeration
// never mixes generations), and per-node arc order is preserved, so
// predecessor selection matches the global scan arc for arc. No
// global->local map is kept: the build translates arc heads through a
// per-thread mask-sized slot map, and a solve maps its few terminals and
// edit edges by binary search over `nodes`, so building the view costs
// O(mask), not O(catalog). The view is immutable after Rebuild and shared
// with the mask itself; masked solves run over it only, sizing every
// per-node and per-arc array to the mask instead of the catalog, which is
// the whole point (cache residency on million-source catalogs).
struct ShardMask {
  // Local-id sentinel for arc heads outside the mask.
  static constexpr std::uint32_t kExternal = 0xFFFFFFFFu;

  // One byte per catalog node: the one catalog-sized array a mask build
  // writes. Searches read `nodes`; the benchmark and the tests' referee
  // read this.
  std::vector<std::uint8_t> in_mask;   // size num_nodes
  std::vector<std::uint32_t> nodes;    // ascending node ids with in_mask=1
  // True when no escalation can grow the mask further (every node the
  // terminals can reach is already inside, or the mask spans the whole
  // graph). Callers then solve unmasked.
  bool covers_all = false;

  // --- compact local-id view (see the class comment above) -------------
  // num_nodes of the CSR the view was built from (0 before BuildCompact);
  // masked solves check it against their pinned snapshot.
  std::uint32_t csr_num_nodes = 0;
  std::vector<std::uint32_t> local_offsets;   // size nodes.size() + 1
  std::vector<std::uint32_t> local_arc_head;  // local id, or kExternal
  std::vector<graph::EdgeId> local_arc_edge;  // global edge ids (overlay flags)
  std::vector<double> local_arc_cost;         // baked from the pinned CSR

  bool HasCompact() const {
    return local_offsets.size() == nodes.size() + 1 && csr_num_nodes != 0;
  }

  // Fills the compact view from `csr` (must be the snapshot in_mask/nodes
  // were computed over). Called once per mask epoch by the localizer.
  void BuildCompact(const CsrGraph& csr);
};

// Per-enumeration state for sharded terminal-local search: owns the
// current mask (all shards any node within real-cost radius `r_proof` of
// the terminals belongs to) and grows it on demand. The solver's masked
// variants verify, per subproblem, the conditions under which the masked
// result is provably bit-identical to the unmasked one (see
// fast_solver.h); when a condition fails they report kEscalate and the
// enumeration calls Escalate, which doubles r_proof and rebuilds the
// mask under a new epoch. Escalation is monotone (the ball only grows)
// and terminates: once the bounded ball Dijkstra stops clipping at the
// radius, the mask can never grow again and covers_all is set.
//
// Its Dijkstras and mask builds run on per-thread scratch indexed by dense
// slots that a map from node id hands out, sized to the ball or the mask
// (ThreadLocalizerScratchBytes), never to the catalog.
//
// Thread safety: Acquire/Escalate are mutex-protected; parallel Lawler
// children race benignly (Escalate no-ops when the caller's observed
// epoch is already stale). Masks are immutable after publication and
// handed out by shared_ptr.
class TerminalLocalizer {
 public:
  struct Snapshot {
    std::shared_ptr<const ShardMask> mask;
    std::uint64_t epoch = 0;
  };

  // Bootstraps r_proof from the star heuristic: a single real-cost
  // Dijkstra from terminals[0] gives star = sum_i d(t0, t_i), an upper
  // bound on the optimal unconstrained tree cost; r_proof starts at
  // 2 * star. An unreachable terminal (or an empty terminal set) skips
  // straight to a covers_all mask — the unmasked solver then owns the
  // infeasibility verdict.
  TerminalLocalizer(std::shared_ptr<const CsrGraph> csr,
                    std::shared_ptr<const ShardPartition> shards,
                    std::vector<graph::NodeId> terminals);

  Snapshot Acquire() const;

  // Doubles r_proof and republishes the mask under the next epoch. No-op
  // when `observed_epoch` is stale — the concurrent solver that lost the
  // race re-acquires the already-grown mask instead of growing it twice.
  void Escalate(std::uint64_t observed_epoch);

 private:
  // Builds the mask for the current r_proof_: multi-source bounded
  // real-cost Dijkstra from the terminals, then every touched shard in
  // full. Caller holds mu_.
  std::shared_ptr<const ShardMask> Rebuild() const;

  std::shared_ptr<const CsrGraph> csr_;
  std::shared_ptr<const ShardPartition> shards_;
  std::vector<graph::NodeId> terminals_;

  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  double r_proof_ = 0.0;
  std::shared_ptr<const ShardMask> mask_;
};

// Bytes retained by the calling thread's localizer scratch (counted in
// ThreadScratchBytes, fast_solver.h).
std::size_t ThreadLocalizerScratchBytes();

}  // namespace q::steiner

#endif  // Q_STEINER_SHARD_H_
