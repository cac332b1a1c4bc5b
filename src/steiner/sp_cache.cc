#include "steiner/sp_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace q::steiner {
namespace {

// True if every element of `a` xor `b` (both sorted) has zero base cost.
bool SymmetricDiffIsFree(const std::vector<graph::EdgeId>& a,
                         const std::vector<graph::EdgeId>& b,
                         const std::vector<double>& edge_cost) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      if (edge_cost[a[i++]] != 0.0) return false;
    } else if (i == a.size() || b[j] < a[i]) {
      if (edge_cost[b[j++]] != 0.0) return false;
    } else {
      ++i;
      ++j;
    }
  }
  return true;
}

// True if `sub` (sorted) is a subset of `super` (sorted) and every element
// of super \ sub is absent from `tree_edges` (sorted).
bool BansCompatible(const std::vector<graph::EdgeId>& sub,
                    const std::vector<graph::EdgeId>& super,
                    const std::vector<graph::EdgeId>& tree_edges) {
  std::size_t i = 0;
  for (graph::EdgeId e : super) {
    if (i < sub.size() && sub[i] == e) {
      ++i;
      continue;
    }
    if (std::binary_search(tree_edges.begin(), tree_edges.end(), e)) {
      return false;
    }
  }
  return i == sub.size();  // sub must be fully contained
}

}  // namespace

bool ShortestPathCache::Valid(const Entry& entry,
                              const std::vector<graph::EdgeId>& forced,
                              const std::vector<graph::EdgeId>& banned,
                              const std::vector<double>& edge_cost,
                              const std::vector<std::uint32_t>& required,
                              bool require_complete) {
  if (require_complete && !entry.tree->complete) return false;
  for (std::uint32_t node : required) {
    if (!entry.tree->settled[node]) return false;
  }
  return SymmetricDiffIsFree(entry.forced, forced, edge_cost) &&
         BansCompatible(entry.banned, banned, entry.tree->tree_edges);
}

void ShortestPathCache::BumpGeneration() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  // Stale generations can never be looked up again (the generation is in
  // the key), so purge them and give the new snapshot the full capacity.
  // Shard by shard: a pinned old-generation insert racing this purge
  // either lands before (purged) or after (lingers as capacity-bounded
  // garbage until the next bump) — both are documented-safe, and the
  // per-shard accounting keeps num_entries_ exact either way.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::size_t purged = 0;
    for (const auto& [key, entries] : shard.by_key) {
      purged += entries.size();
    }
    shard.by_key.clear();
    num_entries_.fetch_sub(purged, std::memory_order_relaxed);
  }
  // Local-tree entries are uid-keyed (never matched across masks) but a
  // re-cost means every live mask's enumeration is ending; reclaim their
  // memory now instead of waiting for the overflow clear.
  for (Shard& shard : local_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::size_t purged = 0;
    for (const auto& [key, entries] : shard.by_key) {
      purged += entries.size();
    }
    shard.by_key.clear();
    num_local_entries_.fetch_sub(purged, std::memory_order_relaxed);
  }
}

std::uint64_t ShortestPathCache::generation() const {
  return generation_.load(std::memory_order_acquire);
}

void ShortestPathCache::InvalidateRepriced(
    const std::vector<RepricedEdge>& repriced, std::size_t* retained,
    std::size_t* dropped) {
  std::size_t kept = 0;
  std::size_t lost = 0;
  // The scan covers every live entry. Current-generation entries are the
  // point: their validity must be re-proved under the new costs because a
  // delta re-cost moves costs without moving the generation. Older
  // generations (possible only from pinned solves inserting after a bump)
  // are valid for their own pinned costs forever, so re-judging them here
  // can only drop them spuriously — a miss, never a wrong tree.
  auto survives = [&](const Entry& entry) {
    for (const RepricedEdge& r : repriced) {
      if (std::binary_search(entry.forced.begin(), entry.forced.end(),
                             r.edge)) {
        continue;  // traversed at cost 0; base cost never read
      }
      if (std::binary_search(entry.banned.begin(), entry.banned.end(),
                             r.edge)) {
        continue;  // excluded from traversal entirely
      }
      if (r.new_cost > r.old_cost &&
          !std::binary_search(entry.tree->tree_edges.begin(),
                              entry.tree->tree_edges.end(), r.edge)) {
        continue;  // increase of a non-tree edge: provably no effect
      }
      return false;
    }
    return true;
  };
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.by_key.begin(); it != shard.by_key.end();) {
      std::vector<Entry>& entries = it->second;
      std::size_t out = 0;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (survives(entries[i])) {
          // Guard the common all-survive case: self-move-assignment would
          // empty the entry's overlay vectors, silently turning an overlay
          // tree into an overlay-free one.
          if (out != i) entries[out] = std::move(entries[i]);
          ++out;
          ++kept;
        } else {
          ++lost;
        }
      }
      entries.resize(out);
      it = entries.empty() ? shard.by_key.erase(it) : std::next(it);
    }
  }
  num_entries_.fetch_sub(lost, std::memory_order_relaxed);
  if (retained != nullptr) *retained += kept;
  if (dropped != nullptr) *dropped += lost;
}

std::shared_ptr<const SpTree> ShortestPathCache::Lookup(
    std::uint64_t generation, std::uint32_t terminal,
    const std::vector<graph::EdgeId>& forced_sorted,
    const std::vector<graph::EdgeId>& banned_sorted,
    const std::vector<double>& edge_cost,
    const std::vector<std::uint32_t>& required, bool require_complete) {
  const std::uint64_t key = Key(generation, terminal);
  Shard& shard = shards_[ShardIndex(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_key.find(key);
    if (it != shard.by_key.end()) {
      for (const Entry& entry : it->second) {
        if (Valid(entry, forced_sorted, banned_sorted, edge_cost, required,
                  require_complete)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return entry.tree;
        }
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

bool ShortestPathCache::HasRoom() const {
  return num_entries_.load(std::memory_order_relaxed) < max_entries_;
}

void ShortestPathCache::Insert(std::uint64_t generation,
                               std::uint32_t terminal,
                               std::vector<graph::EdgeId> forced_sorted,
                               std::vector<graph::EdgeId> banned_sorted,
                               std::shared_ptr<const SpTree> tree) {
  // Claim capacity before taking the shard lock so concurrent inserts
  // never overshoot max_entries_; roll the claim back when full.
  if (num_entries_.fetch_add(1, std::memory_order_relaxed) >= max_entries_) {
    num_entries_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t key = Key(generation, terminal);
  Shard& shard = shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.by_key[key].push_back(Entry{
      std::move(forced_sorted), std::move(banned_sorted), std::move(tree)});
}

std::shared_ptr<const SpTree> ShortestPathCache::LookupLocal(
    std::uint64_t mask_uid, std::uint32_t terminal,
    const std::vector<graph::EdgeId>& forced_sorted,
    const std::vector<graph::EdgeId>& banned_sorted,
    const std::vector<double>& edge_cost,
    const std::vector<std::uint32_t>& required_local, bool require_complete) {
  const std::uint64_t key = LocalKey(mask_uid, terminal);
  Shard& shard = local_shards_[ShardIndex(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_key.find(key);
    if (it != shard.by_key.end()) {
      for (const Entry& entry : it->second) {
        // Same reuse rule as the global store: forced/banned/tree_edges
        // hold global edge ids regardless of index space, and `required`
        // indexes the entry's own (local) settled array.
        if (Valid(entry, forced_sorted, banned_sorted, edge_cost,
                  required_local, require_complete)) {
          local_hits_.fetch_add(1, std::memory_order_relaxed);
          return entry.tree;
        }
      }
    }
  }
  local_misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ShortestPathCache::InsertLocal(std::uint64_t mask_uid,
                                    std::uint32_t terminal,
                                    std::vector<graph::EdgeId> forced_sorted,
                                    std::vector<graph::EdgeId> banned_sorted,
                                    std::shared_ptr<const SpTree> tree) {
  if (num_local_entries_.fetch_add(1, std::memory_order_relaxed) >=
      max_local_entries_) {
    // Local working sets die with their enumeration (uids are never
    // reused), so a full store is all garbage to the inserter: clear it
    // wholesale and keep going. Concurrent readers of other uids just
    // miss and recompute — entries are immutable shared_ptrs, so nothing
    // is ever torn.
    std::size_t purged = 0;
    for (Shard& shard : local_shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [key, entries] : shard.by_key) {
        purged += entries.size();
      }
      shard.by_key.clear();
    }
    num_local_entries_.fetch_sub(purged, std::memory_order_relaxed);
  }
  const std::uint64_t key = LocalKey(mask_uid, terminal);
  Shard& shard = local_shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.by_key[key].push_back(Entry{
      std::move(forced_sorted), std::move(banned_sorted), std::move(tree)});
}

void ShortestPathCache::NoteMaskedBypass(std::size_t trees) {
  masked_bypasses_.fetch_add(trees, std::memory_order_relaxed);
}

std::size_t ShortestPathCache::local_hits() const {
  return local_hits_.load(std::memory_order_relaxed);
}

std::size_t ShortestPathCache::local_misses() const {
  return local_misses_.load(std::memory_order_relaxed);
}

std::size_t ShortestPathCache::local_size() const {
  return num_local_entries_.load(std::memory_order_relaxed);
}

std::size_t ShortestPathCache::masked_bypasses() const {
  return masked_bypasses_.load(std::memory_order_relaxed);
}

std::size_t ShortestPathCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::size_t ShortestPathCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

std::size_t ShortestPathCache::size() const {
  return num_entries_.load(std::memory_order_relaxed);
}

std::uint64_t SolveMemo::Hash(std::uint64_t generation, SolverKind kind,
                              const std::vector<graph::NodeId>& terminals,
                              const std::vector<graph::EdgeId>& forced,
                              const std::vector<graph::EdgeId>& banned) {
  // Multiply-xorshift over every input word; the vector lengths separate
  // the three lists, so ({1}, {2, 3}) and ({1, 2}, {3}) hash apart.
  std::uint64_t h = generation * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(kind);
  auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  };
  for (const auto* list : {&terminals, &forced, &banned}) {
    mix(list->size());
    for (std::uint32_t v : *list) mix(v);
  }
  return h;
}

bool SolveMemo::Matches(const Entry& entry, std::uint64_t generation,
                        SolverKind kind,
                        const std::vector<graph::NodeId>& terminals,
                        const std::vector<graph::EdgeId>& forced,
                        const std::vector<graph::EdgeId>& banned) {
  return entry.generation == generation && entry.kind == kind &&
         entry.terminals == terminals && entry.forced == forced &&
         entry.banned == banned;
}

bool SolveMemo::Lookup(std::uint64_t generation, SolverKind kind,
                       const std::vector<graph::NodeId>& terminals,
                       const std::vector<graph::EdgeId>& forced,
                       const std::vector<graph::EdgeId>& banned,
                       std::optional<SteinerTree>* verdict) const {
  const std::uint64_t hash = Hash(generation, kind, terminals, forced, banned);
  const Shard& shard = shards_[ShardIndex(hash)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_hash.find(hash);
    if (it != shard.by_hash.end()) {
      for (const Entry& entry : it->second) {
        if (Matches(entry, generation, kind, terminals, forced, banned)) {
          *verdict = entry.verdict;
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SolveMemo::Insert(std::uint64_t generation, SolverKind kind,
                       const std::vector<graph::NodeId>& terminals,
                       const std::vector<graph::EdgeId>& forced,
                       const std::vector<graph::EdgeId>& banned,
                       const std::optional<SteinerTree>& verdict) {
  // Claim capacity first so concurrent inserts never overshoot the cap;
  // every early return below gives the claim back.
  if (num_entries_.fetch_add(1, std::memory_order_relaxed) >= kMaxEntries) {
    num_entries_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t hash = Hash(generation, kind, terminals, forced, banned);
  Shard& shard = shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_hash.find(hash);
  const bool duplicate =
      it != shard.by_hash.end() &&
      std::any_of(it->second.begin(), it->second.end(), [&](const Entry& e) {
        return Matches(e, generation, kind, terminals, forced, banned);
      });
  if (duplicate || generation != generation_.load(std::memory_order_acquire)) {
    num_entries_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  // The entry record, its map node (key/bucket pair plus next pointer)
  // and bucket slot, then the heap payload of its vectors.
  shard.bytes +=
      sizeof(Entry) +
      sizeof(std::pair<const std::uint64_t, std::vector<Entry>>) +
      2 * sizeof(void*) +
      (terminals.size() + forced.size() + banned.size()) *
          sizeof(std::uint32_t) +
      (verdict.has_value() ? verdict->edges.size() * sizeof(graph::EdgeId)
                           : 0);
  shard.by_hash[hash].push_back(
      Entry{generation, kind, terminals, forced, banned, verdict});
}

void SolveMemo::Advance(std::uint64_t generation) {
  // Publish the new generation before purging: an old-generation insert
  // that takes a shard lock after that shard's purge sees it and drops.
  generation_.store(generation, std::memory_order_release);
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::size_t purged = 0;
    for (const auto& [hash, bucket] : shard.by_hash) purged += bucket.size();
    shard.by_hash.clear();
    shard.bytes = 0;
    num_entries_.fetch_sub(purged, std::memory_order_relaxed);
  }
}

std::size_t SolveMemo::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::size_t SolveMemo::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

std::size_t SolveMemo::size() const {
  return num_entries_.load(std::memory_order_relaxed);
}

std::size_t SolveMemo::bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

}  // namespace q::steiner
