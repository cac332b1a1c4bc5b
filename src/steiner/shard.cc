#include "steiner/shard.h"

#include <algorithm>
#include <limits>

#include "util/dary_heap.h"

namespace q::steiner {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kUnassigned = std::numeric_limits<std::uint32_t>::max();

// Per-thread scratch for the localizer's star and ball Dijkstras and for
// ShardMask::BuildCompact. A run gives every node it reaches a dense slot,
// in order of first reach, through an open-addressing map keyed by node
// id, and every array below is slot-indexed: the scratch spans the ball
// or the mask a run touches, never the catalog, so a localizing thread
// holds about as much on a 100k-source catalog as on a 10k one (the
// arrays keep the capacity of the thread's largest run). Buckets are
// stamp-validated, so starting a run is O(1). The heap pops equal
// distances in slot order; nothing the localizer returns depends on
// the order among ties (final distances, the ball's node set, and
// whether the radius excluded a node).
struct LocalizerScratch {
  struct Bucket {
    std::uint32_t stamp = 0;  // the run that filled it; other stamps: empty
    std::uint32_t node = 0;
    std::uint32_t slot = 0;
  };
  static constexpr std::size_t kMinBuckets = 64;

  // Power-of-two size, at most a quarter full: most lookups that miss (an
  // arc leaving the mask or the ball) then stop at the first probe.
  std::vector<Bucket> table;
  std::uint32_t cur = 0;
  std::vector<std::uint32_t> node_of;  // slot -> node id
  std::vector<double> dist;            // slot -> distance, +inf until set
  util::DaryHeap heap;                 // over slots

  // Starts a run: forgets every slot (a wholesale bucket re-zero on the
  // ~4-billion-run wrap) and drains heap leftovers from an early-stopped
  // prior run.
  void Begin() {
    node_of.clear();
    dist.clear();
    heap.Drain(0);
    if (table.empty()) table.resize(kMinBuckets);
    if (++cur == 0) {
      std::fill(table.begin(), table.end(), Bucket{});
      cur = 1;
    }
  }

  static std::size_t Home(std::uint32_t node, std::size_t mask) {
    // Fibonacci hashing: the product's high bits mix every bit of the id.
    const std::uint64_t h = node * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & mask;
  }

  // The node's slot this run, or ShardMask::kExternal.
  std::uint32_t Find(std::uint32_t node) const {
    const std::size_t mask = table.size() - 1;
    for (std::size_t b = Home(node, mask);; b = (b + 1) & mask) {
      const Bucket& bucket = table[b];
      if (bucket.stamp != cur) return ShardMask::kExternal;
      if (bucket.node == node) return bucket.slot;
    }
  }

  // The node's slot this run; a node not seen before gets the next one.
  std::uint32_t Slot(std::uint32_t node) {
    const std::size_t mask = table.size() - 1;
    std::size_t b = Home(node, mask);
    for (; table[b].stamp == cur; b = (b + 1) & mask) {
      if (table[b].node == node) return table[b].slot;
    }
    const auto slot = static_cast<std::uint32_t>(node_of.size());
    table[b] = Bucket{cur, node, slot};
    node_of.push_back(node);
    if (4 * node_of.size() > table.size()) Grow();
    return slot;
  }

  // Slot() for the Dijkstras: a node not reached before starts at +inf.
  std::uint32_t Reach(std::uint32_t node) {
    const std::uint32_t slot = Slot(node);
    if (slot == dist.size()) {
      dist.push_back(kInf);
      heap.Reserve(node_of.capacity());
    }
    return slot;
  }

  double Dist(std::uint32_t node) const {
    const std::uint32_t slot = Find(node);
    return slot == ShardMask::kExternal ? kInf : dist[slot];
  }

  // Doubles the table and re-files this run's slots.
  void Grow() {
    std::vector<Bucket>(2 * table.size()).swap(table);
    const std::size_t mask = table.size() - 1;
    for (std::uint32_t slot = 0; slot < node_of.size(); ++slot) {
      std::size_t b = Home(node_of[slot], mask);
      while (table[b].stamp == cur) b = (b + 1) & mask;
      table[b] = Bucket{cur, node_of[slot], slot};
    }
  }

  std::size_t FootprintBytes() const {
    return table.capacity() * sizeof(Bucket) +
           node_of.capacity() * sizeof(std::uint32_t) +
           dist.capacity() * sizeof(double) + heap.MemoryBytes();
  }
};

LocalizerScratch& GetLocalizerScratch() {
  thread_local LocalizerScratch scratch;
  return scratch;
}

}  // namespace

std::size_t ThreadLocalizerScratchBytes() {
  return GetLocalizerScratch().FootprintBytes();
}

void ShardMask::BuildCompact(const CsrGraph& csr) {
  const std::uint32_t num_local = static_cast<std::uint32_t>(nodes.size());
  // Heads translate through the thread's slot map: the mask's nodes take
  // slots 0..L-1 in order, so a node's slot is its local id and the build
  // costs O(mask) however large the catalog is.
  LocalizerScratch& s = GetLocalizerScratch();
  s.Begin();
  local_offsets.assign(num_local + 1, 0);
  for (std::uint32_t l = 0; l < num_local; ++l) {
    const std::uint32_t v = nodes[l];
    s.Slot(v);
    local_offsets[l + 1] =
        local_offsets[l] + (csr.offsets[v + 1] - csr.offsets[v]);
  }
  local_arc_head.resize(local_offsets[num_local]);
  local_arc_edge.resize(local_offsets[num_local]);
  local_arc_cost.resize(local_offsets[num_local]);
  for (std::uint32_t l = 0; l < num_local; ++l) {
    // Per-node arc order preserved from the global CSR; out-of-mask heads
    // stay visible as kExternal so the masked Dijkstra records the exact
    // clipped-offer set a global scan would.
    std::uint32_t i = local_offsets[l];
    const std::uint32_t end = csr.offsets[nodes[l] + 1];
    for (std::uint32_t a = csr.offsets[nodes[l]]; a < end; ++a, ++i) {
      local_arc_head[i] = s.Find(csr.arc_head[a]);
      local_arc_edge[i] = csr.arc_edge[a];
      local_arc_cost[i] = csr.arc_cost[a];
    }
  }
  csr_num_nodes = csr.num_nodes;
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
    // once every distinct terminal is settled. Runs on the thread's slot
    // scratch, so the cost is the settled neighborhood — one full-array
    // initialization per query would itself grow linearly with the
    // catalog and dominate small-ball queries. The terminals take the
    // first slots, so a settled slot below `distinct` is a terminal.
    LocalizerScratch& s = GetLocalizerScratch();
    s.Begin();
    for (graph::NodeId t : terminals_) s.Reach(t);
    const std::size_t distinct = s.node_of.size();
    std::size_t remaining = distinct;
    s.dist[0] = 0.0;  // terminals_[0]'s slot
    s.heap.PushOrDecrease(0, 0.0);
    while (!s.heap.empty() && remaining > 0) {
      auto [d, v] = s.heap.PopMin();
      if (v < distinct) --remaining;
      const std::uint32_t node = s.node_of[v];
      const std::uint32_t end = g.offsets[node + 1];
      for (std::uint32_t a = g.offsets[node]; a < end; ++a) {
        const double next = d + g.arc_cost[a];
        const std::uint32_t to = s.Reach(g.arc_head[a]);
        if (next < s.dist[to]) {
          s.dist[to] = next;
          s.heap.PushOrDecrease(to, next);
        }
      }
    }
    all_reachable = remaining == 0;
    if (all_reachable) {
      for (graph::NodeId t : terminals_) star += s.Dist(t);
    }
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
  // r_proof_ and run on the thread's slot scratch (O(ball), not
  // O(catalog) — see LocalizerScratch). `clipped` records whether the
  // radius excluded a node; if not, the ball already holds every
  // reachable node and no escalation can ever grow it. An arc cut at the
  // radius whose head was not reached yet is only a candidate: the head
  // may still enter the ball through another arc, so the candidates are
  // settled once the ball is complete, which keeps the verdict
  // independent of the order among tied distances.
  LocalizerScratch& s = GetLocalizerScratch();
  s.Begin();
  for (graph::NodeId t : terminals_) {
    const std::uint32_t slot = s.Reach(t);
    if (s.dist[slot] > 0.0) {
      s.dist[slot] = 0.0;
      s.heap.PushOrDecrease(slot, 0.0);
    }
  }
  std::vector<std::uint32_t> touched_shards;
  std::vector<std::uint32_t> cut_heads;
  while (!s.heap.empty()) {
    auto [d, v] = s.heap.PopMin();
    const std::uint32_t node = s.node_of[v];
    touched_shards.push_back(parts.shard_of[node]);
    const std::uint32_t end = g.offsets[node + 1];
    for (std::uint32_t a = g.offsets[node]; a < end; ++a) {
      const std::uint32_t head = g.arc_head[a];
      const double next = d + g.arc_cost[a];
      if (next > r_proof_) {
        if (s.Find(head) == ShardMask::kExternal) cut_heads.push_back(head);
        continue;
      }
      const std::uint32_t to = s.Reach(head);
      if (next < s.dist[to]) {
        s.dist[to] = next;
        s.heap.PushOrDecrease(to, next);
      }
    }
  }

  const bool clipped =
      std::any_of(cut_heads.begin(), cut_heads.end(), [&s](std::uint32_t v) {
        return s.Find(v) == ShardMask::kExternal;
      });

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
  // The bitmap is the build's one catalog-sized write; the compact view
  // below costs O(mask).
  mask->in_mask.assign(g.num_nodes, 0);
  for (std::uint32_t v : mask->nodes) mask->in_mask[v] = 1;
  mask->covers_all = !clipped || mask->nodes.size() == g.num_nodes;
  // Materialize the compact local-id view once per epoch; covers_all
  // masks skip it (callers solve unmasked).
  if (!mask->covers_all) mask->BuildCompact(g);
  return mask;
}

}  // namespace q::steiner
