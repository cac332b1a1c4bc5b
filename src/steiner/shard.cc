#include "steiner/shard.h"

#include <algorithm>
#include <limits>

#include "util/dary_heap.h"

namespace q::steiner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kUnassigned = std::numeric_limits<std::uint32_t>::max();

// Per-thread scratch for the localizer's bootstrap and ball Dijkstras.
// Distances are stamp-validated (stamp[v] != cur reads as +inf), so a
// run touches only its own neighborhood instead of re-initializing
// num_nodes-sized arrays — the per-query localizer cost is O(ball), not
// O(catalog), which is what keeps query latency from growing linearly
// with sources. The arrays grow to the largest snapshot the thread has
// localized and are reused across queries.
struct LocalizerScratch {
  util::DaryHeap heap;
  std::vector<double> dist;
  std::vector<std::uint32_t> stamp;
  std::uint32_t cur = 0;
  std::vector<std::uint8_t> is_target;  // sparsely set, cleared per run

  // Starts a run: bumps the stamp (wholesale re-zero on the ~4-billion-run
  // wrap) and drains heap leftovers from an early-stopped prior run.
  void Begin(std::size_t n) {
    if (dist.size() < n) {
      dist.resize(n, kInf);
      stamp.resize(n, 0);
    }
    if (is_target.size() < n) is_target.resize(n, 0);
    if (++cur == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      cur = 1;
    }
    heap.Drain(n);
  }

  double Dist(std::uint32_t v) const {
    return stamp[v] == cur ? dist[v] : kInf;
  }
  void SetDist(std::uint32_t v, double d) {
    dist[v] = d;
    stamp[v] = cur;
  }

  std::size_t MemoryBytes() const {
    return heap.MemoryBytes() + dist.capacity() * sizeof(double) +
           stamp.capacity() * sizeof(std::uint32_t) +
           is_target.capacity() * sizeof(std::uint8_t);
  }
};

LocalizerScratch& GetLocalizerScratch() {
  thread_local LocalizerScratch scratch;
  return scratch;
}

}  // namespace

std::size_t LocalizerScratchBytes() {
  return GetLocalizerScratch().MemoryBytes();
}

void ShardMask::BuildCompact(const CsrGraph& csr) {
  const std::uint32_t num_local = static_cast<std::uint32_t>(nodes.size());
  local_of.assign(csr.num_nodes, kExternal);
  for (std::uint32_t l = 0; l < num_local; ++l) local_of[nodes[l]] = l;
  local_offsets.assign(num_local + 1, 0);
  local_arc_head.clear();
  local_arc_edge.clear();
  local_arc_cost.clear();
  for (std::uint32_t l = 0; l < num_local; ++l) {
    const std::uint32_t v = nodes[l];
    const std::uint32_t end = csr.offsets[v + 1];
    for (std::uint32_t a = csr.offsets[v]; a < end; ++a) {
      // Per-node arc order preserved from the global CSR; out-of-mask
      // heads stay visible as kExternal so the masked Dijkstra records
      // the exact clipped-offer set a global scan would.
      local_arc_head.push_back(local_of[csr.arc_head[a]]);
      local_arc_edge.push_back(csr.arc_edge[a]);
      local_arc_cost.push_back(csr.arc_cost[a]);
    }
    local_offsets[l + 1] = static_cast<std::uint32_t>(local_arc_head.size());
  }
}

ShardPartition ShardPartition::Build(const CsrGraph& csr,
                                     std::uint32_t target_nodes) {
  if (target_nodes == 0) target_nodes = 1;
  ShardPartition p;
  p.shard_of.assign(csr.num_nodes, kUnassigned);
  p.shard_offsets.clear();
  p.shard_nodes.clear();
  std::vector<std::uint32_t> queue;
  for (std::uint32_t seed = 0; seed < csr.num_nodes; ++seed) {
    if (p.shard_of[seed] != kUnassigned) continue;
    const std::uint32_t shard = p.num_shards++;
    std::uint32_t size = 1;
    queue.clear();
    queue.push_back(seed);
    p.shard_of[seed] = shard;
    for (std::size_t head = 0; head < queue.size() && size < target_nodes;
         ++head) {
      const std::uint32_t v = queue[head];
      const std::uint32_t end = csr.offsets[v + 1];
      for (std::uint32_t a = csr.offsets[v]; a < end; ++a) {
        const std::uint32_t to = csr.arc_head[a];
        if (p.shard_of[to] != kUnassigned) continue;
        p.shard_of[to] = shard;
        queue.push_back(to);
        if (++size >= target_nodes) break;
      }
    }
  }
  // Shard -> node-id CSR (each shard's list ascending): lets a mask build
  // enumerate exactly the nodes of its touched shards instead of scanning
  // the whole catalog per query.
  p.shard_offsets.assign(p.num_shards + 1, 0);
  for (std::uint32_t v = 0; v < csr.num_nodes; ++v) {
    ++p.shard_offsets[p.shard_of[v] + 1];
  }
  for (std::uint32_t i = 1; i <= p.num_shards; ++i) {
    p.shard_offsets[i] += p.shard_offsets[i - 1];
  }
  p.shard_nodes.resize(csr.num_nodes);
  std::vector<std::uint32_t> cursor(p.shard_offsets.begin(),
                                    p.shard_offsets.end() - 1);
  for (std::uint32_t v = 0; v < csr.num_nodes; ++v) {
    p.shard_nodes[cursor[p.shard_of[v]]++] = v;
  }
  return p;
}

TerminalLocalizer::TerminalLocalizer(
    std::shared_ptr<const CsrGraph> csr,
    std::shared_ptr<const ShardPartition> shards,
    std::vector<graph::NodeId> terminals)
    : csr_(std::move(csr)),
      shards_(std::move(shards)),
      terminals_(std::move(terminals)) {
  const CsrGraph& g = *csr_;
  bool all_reachable = !terminals_.empty();
  double star = 0.0;
  if (!terminals_.empty()) {
    // Star heuristic: real-cost single-source Dijkstra from t0, stopped
    // once every distinct terminal is settled. Runs on the thread's
    // stamped scratch, so the cost is the settled neighborhood — one
    // full-array initialization per query would itself grow linearly
    // with the catalog and dominate small-ball queries.
    LocalizerScratch& s = GetLocalizerScratch();
    s.Begin(g.num_nodes);
    std::size_t remaining = 0;
    for (graph::NodeId t : terminals_) {
      if (!s.is_target[t]) {
        s.is_target[t] = 1;
        ++remaining;
      }
    }
    s.SetDist(terminals_[0], 0.0);
    s.heap.PushOrDecrease(terminals_[0], 0.0);
    while (!s.heap.empty() && remaining > 0) {
      auto [d, v] = s.heap.PopMin();
      if (s.is_target[v]) {
        s.is_target[v] = 0;
        --remaining;
      }
      const std::uint32_t end = g.offsets[v + 1];
      for (std::uint32_t a = g.offsets[v]; a < end; ++a) {
        const std::uint32_t to = g.arc_head[a];
        const double next = d + g.arc_cost[a];
        if (next < s.Dist(to)) {
          s.SetDist(to, next);
          s.heap.PushOrDecrease(to, next);
        }
      }
    }
    all_reachable = remaining == 0;
    if (all_reachable) {
      for (graph::NodeId t : terminals_) star += s.Dist(t);
    }
    // Restore the all-zero target-mark invariant (early stop may leave
    // unsettled terminals marked).
    for (graph::NodeId t : terminals_) s.is_target[t] = 0;
  }
  if (!all_reachable) {
    // Some terminal is unreachable (or there are none): no finite radius
    // helps, so publish a covers-all mask and let the unmasked solver
    // rule on feasibility.
    auto mask = std::make_shared<ShardMask>();
    mask->covers_all = true;
    mask_ = std::move(mask);
    return;
  }
  r_proof_ = star > 0.0 ? 2.0 * star : 1.0;
  mask_ = Rebuild();
}

TerminalLocalizer::Snapshot TerminalLocalizer::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{mask_, epoch_};
}

void TerminalLocalizer::Escalate(std::uint64_t observed_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (observed_epoch != epoch_) return;  // a concurrent caller already grew
  r_proof_ *= 2.0;
  mask_ = Rebuild();
  ++epoch_;
}

std::shared_ptr<const ShardMask> TerminalLocalizer::Rebuild() const {
  const CsrGraph& g = *csr_;
  const ShardPartition& parts = *shards_;
  auto mask = std::make_shared<ShardMask>();

  // Multi-source real-cost Dijkstra from the terminals, bounded by
  // r_proof_ and run on the thread's stamped scratch (O(ball), not
  // O(catalog) — see LocalizerScratch). `clipped` records whether the
  // radius excluded anything; if not, the ball already holds every
  // reachable node and no escalation can ever grow it.
  LocalizerScratch& s = GetLocalizerScratch();
  s.Begin(g.num_nodes);
  for (graph::NodeId t : terminals_) {
    if (s.Dist(t) > 0.0) {
      s.SetDist(t, 0.0);
      s.heap.PushOrDecrease(t, 0.0);
    }
  }
  std::vector<std::uint32_t> touched_shards;
  bool clipped = false;
  while (!s.heap.empty()) {
    auto [d, v] = s.heap.PopMin();
    touched_shards.push_back(parts.shard_of[v]);
    const std::uint32_t end = g.offsets[v + 1];
    for (std::uint32_t a = g.offsets[v]; a < end; ++a) {
      const std::uint32_t to = g.arc_head[a];
      const double next = d + g.arc_cost[a];
      if (next > r_proof_) {
        if (next < s.Dist(to)) clipped = true;
        continue;
      }
      if (next < s.Dist(to)) {
        s.SetDist(to, next);
        s.heap.PushOrDecrease(to, next);
      }
    }
  }

  // Expand touched shards to their node lists through the partition's
  // shard->nodes index, then sort: BFS-grown shards interleave in node-id
  // space, and ascending mask->nodes is the canonical order the compact
  // view's tie-order isomorphism rests on. O(mask log mask) — no
  // whole-catalog scan.
  std::sort(touched_shards.begin(), touched_shards.end());
  touched_shards.erase(
      std::unique(touched_shards.begin(), touched_shards.end()),
      touched_shards.end());
  mask->nodes.clear();
  for (std::uint32_t shard : touched_shards) {
    const std::uint32_t end = parts.shard_offsets[shard + 1];
    mask->nodes.insert(mask->nodes.end(),
                       parts.shard_nodes.begin() + parts.shard_offsets[shard],
                       parts.shard_nodes.begin() + end);
  }
  std::sort(mask->nodes.begin(), mask->nodes.end());
  mask->in_mask.assign(g.num_nodes, 0);
  for (std::uint32_t v : mask->nodes) mask->in_mask[v] = 1;
  mask->covers_all = !clipped || mask->nodes.size() == g.num_nodes;
  // Materialize the compact local-id view once per epoch; covers_all
  // masks skip it (callers solve unmasked).
  if (!mask->covers_all) mask->BuildCompact(g);
  return mask;
}

}  // namespace q::steiner
