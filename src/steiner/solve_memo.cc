#include "steiner/solve_memo.h"

#include <algorithm>
#include <utility>

namespace q::steiner {

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
